// Command servebench is the relserve benchmark. It runs relserve in
// process — server.New backends, and server.NewRouter in front of them
// for the cluster workload, each behind a loopback listener — and
// drives it over HTTP with closed-loop clients, checking every verdict
// against an oracle that shares no text with the requests.
//
//	servebench --workload crm-check|sat-search|crm-cluster --seed N
//	           --seconds S --trace 0|1 [--spans FILE]
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// runs an untraced reference pass and a traced pass, records spans
// around every call into the servers and replays each operation's
// public library calls, and reports the per-layer metrics. The last
// line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.workload, "workload", "", "crm-check, sat-search or crm-cluster")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same scenario and operation sequence")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.spans, "spans", "", "with --trace 1: write the spans as JSONL here (default .bench_build/spans-<workload>.jsonl)")
	flag.Parse()
	cfg.trace = *trace == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: need --workload crm-check|sat-search|crm-cluster, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	if cfg.trace && cfg.spans == "" {
		cfg.spans = fmt.Sprintf(".bench_build/spans-%s.jsonl", cfg.workload)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spans    string
	// delay, when positive, is busy work added inside every backend
	// handler call; the sensitivity self-test uses it.
	delay time.Duration
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints the human-readable lines before the result line:
// every metric with its unit, then extra lines (per-phase counts,
// metrics outside the result set).
func report(w *os.File, workload string, ms map[string]metric, extra []string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %-28s %14.6f %s\n", workload, n, ms[n].Value, ms[n].Unit)
	}
	for _, l := range extra {
		fmt.Fprintf(w, "%s %s\n", workload, l)
	}
}
