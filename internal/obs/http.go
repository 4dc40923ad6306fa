package obs

import (
	"expvar"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// publishOnce guards the expvar publication of the Default registry:
// expvar.Publish panics on duplicate names, and Handler may be called
// more than once (tests, multiple servers).
var publishOnce sync.Once

// readiness holds the process-wide readiness probe consulted by
// /readyz. nil (the default) means always ready.
var readiness atomic.Pointer[func() bool]

// SetReady installs the readiness probe behind the /readyz endpoint of
// Handler and returns the previous probe. A long-running server (see
// cmd/relserve) points it at its drain state so load balancers stop
// routing to an instance that is shutting down; nil restores the
// always-ready default. /healthz is intentionally not configurable: it
// reports process liveness only.
func SetReady(probe func() bool) func() bool {
	var prev *func() bool
	if probe == nil {
		prev = readiness.Swap(nil)
	} else {
		prev = readiness.Swap(&probe)
	}
	if prev == nil {
		return nil
	}
	return *prev
}

// Ready reports the current readiness probe's answer (true when no
// probe is installed).
func Ready() bool {
	p := readiness.Load()
	return p == nil || (*p)()
}

// Handler returns the observability HTTP surface:
//
//	/metrics            Prometheus text exposition of the Default registry
//	/debug/vars         expvar JSON (registry snapshot under "relcomp",
//	                    plus the standard cmdline/memstats)
//	/debug/pprof/...    net/http/pprof profiles
//	/healthz            process liveness (always 200 "ok")
//	/readyz             readiness: 200 "ok", or 503 "draining" while the
//	                    SetReady probe reports not ready
//
// The handler is stateless; the registry is read at request time, so a
// long-running check shows live counters.
func Handler() http.Handler {
	publishOnce.Do(func() {
		expvar.Publish("relcomp", expvar.Func(func() any { return Default.Snapshot() }))
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		var b strings.Builder
		Default.WritePrometheus(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(b.String()))
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", HealthzHandler)
	mux.HandleFunc("/readyz", ReadyzHandler)
	return mux
}

// HealthzHandler answers process-liveness probes: 200 "ok" for as long
// as the process can serve HTTP at all.
func HealthzHandler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

// ReadyzHandler answers readiness probes against the SetReady probe:
// 200 "ok" when ready, 503 "draining" when not.
func ReadyzHandler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !Ready() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("draining\n"))
		return
	}
	_, _ = w.Write([]byte("ok\n"))
}

// Default timeouts of the HTTP listeners built by NewServer: how long a
// client may take to send a request's headers, and how long an idle
// keep-alive connection stays open. Without them a client that never
// finishes its headers holds a connection, and its goroutine, forever.
const (
	DefaultReadHeaderTimeout = 10 * time.Second
	DefaultIdleTimeout       = 2 * time.Minute
)

// NewServer returns an http.Server for h that closes a connection whose
// request headers take longer than readHeader to arrive, or that sits
// idle between requests for longer than idle (0 = no limit), and that
// answers a handler panic with a 500 (see Recover). Request bodies are
// capped by the handlers (http.MaxBytesReader), not here.
func NewServer(h http.Handler, readHeader, idle time.Duration) *http.Server {
	return &http.Server{Handler: Recover(h), ReadHeaderTimeout: readHeader, IdleTimeout: idle}
}

// Recover wraps h so that a panic in a handler is logged with its
// stack, counted in ServePanics and answered with a 500 JSON error,
// where net/http alone would drop the connection. The handler's
// deferred cleanup — admission and worker slots among it — has run by
// the time the panic reaches the wrapper. http.ErrAbortHandler, the
// deliberate abort, passes through.
func Recover(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			ServePanics.Inc()
			log.Printf("obs: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			_, _ = w.Write([]byte(`{"error":"internal error: the handler panicked"}` + "\n"))
		}()
		h.ServeHTTP(w, r)
	})
}

// Serve starts the observability endpoint on addr in a background
// goroutine, with the default timeouts, and returns the bound address
// (useful with ":0"). The server runs until the process exits — the
// CLIs expose it for the duration of a check.
func Serve(addr string) (net.Addr, error) {
	return ServeTimeouts(addr, DefaultReadHeaderTimeout, DefaultIdleTimeout)
}

// ServeTimeouts is Serve with explicit header-read and idle timeouts
// (see NewServer).
func ServeTimeouts(addr string, readHeader, idle time.Duration) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := NewServer(Handler(), readHeader, idle)
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr(), nil
}
