package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// gatedServer builds a server whose checks block on the returned gate
// once they hold a worker slot; entered counts checks that reached the
// gate. Closing the gate releases every blocked and future check.
func gatedServer(t *testing.T, cfg Config) (*Server, *httptest.Server, chan struct{}, *atomic.Int64) {
	t.Helper()
	s := New(cfg)
	gate := make(chan struct{})
	var entered atomic.Int64
	s.beforeCheck = func() {
		entered.Add(1)
		<-gate
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, gate, &entered
}

// postResult is one client's outcome.
type postResult struct {
	status  int
	verdict string
	retry   string
}

// blast fires n concurrent identical requests and returns all
// outcomes.
func blast(t *testing.T, url string, body CheckRequest, n int) []postResult {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]postResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				results[i] = postResult{status: -1}
				return
			}
			var out CheckResponse
			_ = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			results[i] = postResult{
				status:  resp.StatusCode,
				verdict: out.Verdict,
				retry:   resp.Header.Get("Retry-After"),
			}
		}(i)
	}
	wg.Wait()
	return results
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAdmissionControl is the acceptance integration test: with a
// capacity of 64 admitted checks (8 executing, 56 queued), a burst of
// 80 concurrent requests yields exactly 64 correct completed responses
// and exactly 16 429s carrying Retry-After — no admitted request is
// dropped. Run under -race via make race.
func TestAdmissionControl(t *testing.T) {
	const (
		workers = 8
		queue   = 56
		burst   = 80
	)
	rejected0 := obs.ServeRejections.Value("queue-full")
	s, ts, gate, entered := gatedServer(t, Config{Workers: workers, QueueDepth: queue, RetryAfter: 3 * time.Second})
	if s.Capacity() != workers+queue {
		t.Fatalf("capacity %d", s.Capacity())
	}

	var results []postResult
	done := make(chan struct{})
	go func() {
		results = blast(t, ts.URL+"/v1/rcdp", inlineRequest(), burst)
		close(done)
	}()

	// All worker slots fill and every rejection is answered while the
	// admitted 64 are still in flight.
	waitFor(t, "workers busy", func() bool { return entered.Load() >= workers })
	waitFor(t, "16 rejections", func() bool {
		return obs.ServeRejections.Value("queue-full")-rejected0 >= burst-(workers+queue)
	})
	if got := s.inflight.Load(); got != int64(workers+queue) {
		t.Errorf("inflight at saturation = %d, want %d", got, workers+queue)
	}
	// At saturation the occupancy gauge reads exactly the queued (admitted
	// but not executing) requests: inflight minus the executing workers.
	waitFor(t, "queue occupancy gauge", func() bool { return obs.ServeQueueOccupancy.Value() == queue })
	if got := obs.ServeQueueOccupancy.Value(); got != queue {
		t.Errorf("queue occupancy at saturation = %d, want %d", got, queue)
	}
	close(gate)
	<-done

	var ok, tooMany, other int
	for _, r := range results {
		switch r.status {
		case http.StatusOK:
			ok++
			if r.verdict != "complete" {
				t.Errorf("completed response with verdict %q", r.verdict)
			}
		case http.StatusTooManyRequests:
			tooMany++
			if secs, err := strconv.Atoi(r.retry); err != nil || secs < 1 {
				t.Errorf("429 Retry-After = %q", r.retry)
			}
		default:
			other++
		}
	}
	if ok != workers+queue || tooMany != burst-(workers+queue) || other != 0 {
		t.Fatalf("ok=%d tooMany=%d other=%d, want %d/%d/0", ok, tooMany, other, workers+queue, burst-(workers+queue))
	}
	waitFor(t, "inflight back to zero", func() bool { return s.inflight.Load() == 0 })
}

// TestDrain verifies the SIGTERM semantics Drain implements: admitted
// requests (executing and queued) finish, requests arriving during and
// after the drain are refused, and readiness flips to 503.
func TestDrain(t *testing.T) {
	s, ts, gate, entered := gatedServer(t, Config{Workers: 2, QueueDepth: 2})

	var results []postResult
	done := make(chan struct{})
	go func() {
		results = blast(t, ts.URL+"/v1/rcdp", inlineRequest(), 4)
		close(done)
	}()
	waitFor(t, "both workers busy", func() bool { return entered.Load() >= 2 })
	waitFor(t, "queue occupied", func() bool { return s.inflight.Load() == 4 })

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	waitFor(t, "draining flag", s.Draining)

	// Mid-drain arrivals are refused; readiness reports draining.
	resp, err := http.Post(ts.URL+"/v1/rcdp", "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mid-drain request: status %d, want 503", resp.StatusCode)
	}
	// Drain refusals carry the same Retry-After hint as admission 429s,
	// so routed clients back off instead of hammering a dying backend.
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Errorf("503 Retry-After = %q, want >= 1s", resp.Header.Get("Retry-After"))
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mid-drain /readyz: status %d, want 503", resp.StatusCode)
	}

	// The drain must be waiting on the in-flight four.
	select {
	case err := <-drained:
		t.Fatalf("drain returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}

	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	<-done
	for i, r := range results {
		if r.status != http.StatusOK || r.verdict != "complete" {
			t.Errorf("in-flight request %d dropped during drain: status %d verdict %q", i, r.status, r.verdict)
		}
	}

	// Post-drain requests stay refused.
	if code := post(t, ts.URL+"/v1/rcdp", inlineRequest(), nil); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: status %d, want 503", code)
	}
}

// TestDrainTimeout: a drain with an expired context reports the
// context error instead of hanging on a stuck check.
func TestDrainTimeout(t *testing.T) {
	s, ts, gate, entered := gatedServer(t, Config{Workers: 1, QueueDepth: 1})

	done := make(chan struct{})
	go func() {
		blast(t, ts.URL+"/v1/rcdp", inlineRequest(), 1)
		close(done)
	}()
	waitFor(t, "worker busy", func() bool { return entered.Load() >= 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("drain error = %v, want deadline exceeded", err)
	}
	close(gate)
	<-done
}

// TestQueuedClientGone: a request whose client disconnects while
// queued releases its admission slot without consuming a worker.
func TestQueuedClientGone(t *testing.T) {
	s, ts, gate, entered := gatedServer(t, Config{Workers: 1, QueueDepth: 4})

	blocker := make(chan struct{})
	go func() {
		blast(t, ts.URL+"/v1/rcdp", inlineRequest(), 1)
		close(blocker)
	}()
	waitFor(t, "worker busy", func() bool { return entered.Load() >= 1 })

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/rcdp", bytes.NewReader(mustJSON(t, inlineRequest())))
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	waitFor(t, "second request queued", func() bool { return s.inflight.Load() == 2 })
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled client got a response")
	}
	waitFor(t, "abandoned slot released", func() bool { return s.inflight.Load() == 1 })
	close(gate)
	<-blocker
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHandlerPanicRecovered serves through obs.NewServer, whose
// recovery turns a handler panic into a 500 and a counter increment.
// Two panicking checks run back to back on a server with one worker
// slot and room for two admitted requests: if either panic leaked its
// admission or worker slot, the check that follows would be refused
// with a 429 or hang waiting for the worker.
func TestHandlerPanicRecovered(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	var panics atomic.Int64
	s.beforeCheck = func() {
		if panics.Add(1) <= 2 {
			panic("injected handler fault")
		}
	}
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = obs.NewServer(s.Handler(), time.Second, time.Second)
	ts.Start()
	t.Cleanup(ts.Close)
	client := &http.Client{Timeout: 5 * time.Second}
	post := func() *http.Response {
		t.Helper()
		buf, err := json.Marshal(inlineRequest())
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(ts.URL+"/v1/rcdp", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	for i := 0; i < 2; i++ {
		before := obs.ServePanics.Value()
		resp := post()
		var body ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || resp.StatusCode != http.StatusInternalServerError || body.Error == "" {
			t.Fatalf("panic %d: status %d, body %+v (%v); want a 500 JSON error", i, resp.StatusCode, body, err)
		}
		if got := obs.ServePanics.Value() - before; got != 1 {
			t.Fatalf("panic %d: counter rose by %d, want 1", i, got)
		}
	}
	if got := s.inflight.Load(); got != 0 {
		t.Fatalf("%d admission slots still held after the panics", got)
	}
	var out CheckResponse
	resp := post()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK || out.Verdict != "complete" {
		t.Fatalf("check after the panics: status %d, verdict %q (%v); want 200 complete", resp.StatusCode, out.Verdict, err)
	}
}
