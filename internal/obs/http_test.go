package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestHandlerMetrics(t *testing.T) {
	Evals.Inc() // ensure at least one nonzero engine counter
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"# TYPE relcomp_cq_evals_total counter",
		"# TYPE relcomp_core_check_seconds histogram",
		"relcomp_core_check_seconds_bucket{le=\"+Inf\"}",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestHandlerExpvar(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	rc, ok := vars["relcomp"].(map[string]any)
	if !ok {
		t.Fatalf("expvar missing relcomp snapshot: %v", vars["relcomp"])
	}
	if _, ok := rc["relcomp_cq_evals_total"]; !ok {
		t.Fatal("snapshot missing engine counter")
	}
}

func TestHandlerPprof(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
	}
}

func TestServe(t *testing.T) {
	addr, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "relcomp_core_checks_total") {
		t.Fatal("served /metrics missing engine metrics")
	}
}

// TestServeSlowHeaderClosed drives the listener timeouts NewServer sets
// (relserve's API listener is built the same way): a client that never
// finishes its request headers is disconnected once the header timeout
// passes, and a keep-alive connection is closed after sitting idle.
func TestServeSlowHeaderClosed(t *testing.T) {
	addr, err := ServeTimeouts("127.0.0.1:0", 100*time.Millisecond, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// closedWithin reports how long the server took to close conn.
	closedWithin := func(conn net.Conn, r io.Reader) time.Duration {
		t.Helper()
		start := time.Now()
		if err := conn.SetReadDeadline(start.Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if n, err := r.Read(make([]byte, 64)); err != io.EOF {
			t.Fatalf("read %d bytes, err %v; want the server to close the connection", n, err)
		}
		return time.Since(start)
	}

	slow, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := io.WriteString(slow, "GET /healthz HTTP/1.1\r\nHost: obs\r\n"); err != nil {
		t.Fatal(err)
	}
	if d := closedWithin(slow, slow); d > 5*time.Second {
		t.Errorf("slow-header connection closed after %v, want about 100ms", d)
	}

	idle, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if _, err := io.WriteString(idle, "GET /healthz HTTP/1.1\r\nHost: obs\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(idle)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Close {
		t.Fatalf("status %d, close %v; want a kept-alive 200", resp.StatusCode, resp.Close)
	}
	if d := closedWithin(idle, br); d > 5*time.Second {
		t.Errorf("idle connection closed after %v, want about 200ms", d)
	}
}

func TestHandlerHealthz(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
			t.Fatalf("%s = %d %q, want 200 ok", path, resp.StatusCode, body)
		}
	}
}

func TestHandlerReadyzProbe(t *testing.T) {
	var ready atomic.Bool
	prev := SetReady(ready.Load)
	defer SetReady(prev)

	srv := httptest.NewServer(Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || strings.TrimSpace(string(body)) != "draining" {
		t.Fatalf("/readyz while not ready = %d %q, want 503 draining", resp.StatusCode, body)
	}
	// /healthz stays green regardless of readiness.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while not ready = %d, want 200", resp.StatusCode)
	}

	ready.Store(true)
	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after ready = %d, want 200", resp.StatusCode)
	}
}
