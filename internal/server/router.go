package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// RouterConfig sizes the relserve router mode (relserve -route): a
// stateless HTTP tier in front of a set of relserve backends.
type RouterConfig struct {
	// Backends are the base URLs of the backend relserve processes
	// (e.g. http://127.0.0.1:8081). Required.
	Backends []string
	// RetryAfter is the hint attached to 503 responses while the router
	// drains (default 1s).
	RetryAfter time.Duration
	// MaxBodyBytes bounds buffered request bodies (default 16 MiB).
	MaxBodyBytes int64
	// Client is the HTTP client used for forwards, broadcasts and
	// health probes (default http.DefaultClient).
	Client *http.Client
	// ReprobeInterval is how long an ejected backend stays out of the
	// routing rotation before a routed request may reprobe it (default
	// 5s). The /v1/backends health sweep re-admits independently of the
	// interval.
	ReprobeInterval time.Duration
}

// Router is the relserve scale-out front door: it consistent-hashes
// each request's routing key (the catalog name when present, else the
// query text) onto a backend, so all requests against one catalog land
// on the process that holds that catalog's warm caches — the p(Dm)
// memo, the column indexes and the compiled-tableau cache.
//
// Health is state, not a retry: a connection failure ejects the backend
// from the routing rotation, and routed requests fail over to the next
// distinct backend in ring order (deterministic, so one catalog's
// traffic lands on one stand-in, keeping its caches warm too). An
// ejected backend is re-admitted when a probe sees it ready AND the
// catalog replay log has fully healed it (syncBackend pending 0) —
// either opportunistically from the routing path after ReprobeInterval,
// or from the /v1/backends health sweep. Catalog registrations are
// broadcast to every backend so any of them can serve any catalog when
// the rotation moves.
type Router struct {
	cfg  RouterConfig
	ring []ringPoint
	mux  *http.ServeMux

	draining atomic.Bool
	wg       sync.WaitGroup
	reqSeq   atomic.Int64

	health []backendHealth // parallel to cfg.Backends

	// catmu guards the catalog replay log: the ordered catalog-state
	// broadcasts (registrations and mutations) and, per backend, how
	// many of them it has applied. A backend that was unreachable
	// during a broadcast falls behind and is caught up by syncBackend
	// when a health probe sees it ready again.
	catmu   sync.Mutex
	catlog  []catalogLogEntry
	applied []int // parallel to cfg.Backends
}

// catalogLogEntry is one replayable catalog-state broadcast.
type catalogLogEntry struct {
	path string // "/v1/catalog" or "/v1/catalog/{name}/insert|delete"
	body []byte
}

// backendHealth is the router's per-backend forward ledger and
// rotation state, surfaced on GET /v1/backends next to a live
// readiness probe. retries counts failovers received from ejected or
// failing peers; ejected takes the backend out of the routing
// rotation; lastReprobe rate-limits opportunistic heal attempts from
// the routing path.
type backendHealth struct {
	forwards    atomic.Int64
	retries     atomic.Int64
	failures    atomic.Int64
	ejected     atomic.Bool
	lastReprobe atomic.Int64 // unix nanos of the last routing-path reprobe
}

// ringPoint is one virtual node of the consistent-hash ring.
type ringPoint struct {
	hash    uint64
	backend int
}

// ringVnodes is the virtual-node count per backend: enough to spread
// catalogs evenly across a handful of backends while keeping ring
// construction and lookup trivial.
const ringVnodes = 64

// NewRouter builds a Router over cfg.Backends.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("router: at least one backend is required")
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 16 << 20
	}
	if cfg.ReprobeInterval <= 0 {
		cfg.ReprobeInterval = 5 * time.Second
	}
	rt := &Router{
		cfg:     cfg,
		health:  make([]backendHealth, len(cfg.Backends)),
		applied: make([]int, len(cfg.Backends)),
	}
	for i, b := range cfg.Backends {
		for v := 0; v < ringVnodes; v++ {
			rt.ring = append(rt.ring, ringPoint{hash: ringHash(b + "#" + strconv.Itoa(v)), backend: i})
		}
	}
	sort.Slice(rt.ring, func(i, j int) bool { return rt.ring[i].hash < rt.ring[j].hash })

	rt.mux = http.NewServeMux()
	for _, ep := range []string{"rcdp", "rcqp", "bounded", "approximate", "advise", "batch", "mine"} {
		rt.mux.HandleFunc("/v1/"+ep, rt.forwardHandler(ep))
	}
	rt.mux.HandleFunc("/v1/catalog", rt.catalogHandler)
	rt.mux.HandleFunc("POST /v1/catalog/{name}/insert", rt.mutationHandler)
	rt.mux.HandleFunc("POST /v1/catalog/{name}/delete", rt.mutationHandler)
	rt.mux.HandleFunc("GET /v1/catalog/{name}/verdicts", rt.verdictsProxyHandler)
	rt.mux.HandleFunc("/v1/backends", rt.backendsHandler)
	rt.mux.HandleFunc("/healthz", obs.HealthzHandler)
	rt.mux.HandleFunc("/readyz", rt.readyzHandler)
	return rt, nil
}

// Handler returns the router's HTTP surface.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Draining reports whether Drain has begun.
func (rt *Router) Draining() bool { return rt.draining.Load() }

// Drain refuses new requests (503 + Retry-After, mirroring backend
// drains) and waits for in-flight forwards to finish or ctx to expire.
func (rt *Router) Drain(ctx context.Context) error {
	rt.draining.Store(true)
	done := make(chan struct{})
	go func() {
		rt.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (rt *Router) client() *http.Client {
	if rt.cfg.Client != nil {
		return rt.cfg.Client
	}
	return http.DefaultClient
}

func (rt *Router) nextRequestID() string {
	return fmt.Sprintf("g%06d", rt.reqSeq.Add(1))
}

// refuse answers a request that arrived after Drain began, with the
// same shape a draining backend uses.
func (rt *Router) refuse(w http.ResponseWriter, id string) {
	obs.ServeRejections.Inc("draining")
	w.Header().Set("Retry-After", strconv.Itoa(int((rt.cfg.RetryAfter+time.Second-1)/time.Second)))
	writeError(w, id, http.StatusServiceUnavailable, "router is draining")
}

// ringHash places ring points and routing keys: 64-bit FNV-1a
// finished with murmur3's fmix64 avalanche. Raw FNV-1a barely moves
// its top bits when only a key's last bytes change, so names such as
// crm-00 … crm-99 would crowd onto one arc of the ring.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// pick maps a routing key to a backend index: the first ring point at
// or after the key's hash, wrapping at the top. It ignores rotation
// state; routed traffic goes through candidates/usable instead.
func (rt *Router) pick(key string) int {
	h := ringHash(key)
	i := sort.Search(len(rt.ring), func(i int) bool { return rt.ring[i].hash >= h })
	if i == len(rt.ring) {
		i = 0
	}
	return rt.ring[i].backend
}

// candidates returns the failover order for a routing key: the
// distinct backends in ring order starting at the key's position. The
// order is a pure function of the key, so when a backend is ejected
// all of one catalog's traffic fails over to the SAME stand-in — the
// cache-affinity property the ring buys survives ejection.
func (rt *Router) candidates(key string) []int {
	h := ringHash(key)
	i := sort.Search(len(rt.ring), func(i int) bool { return rt.ring[i].hash >= h })
	out := make([]int, 0, len(rt.cfg.Backends))
	seen := make(map[int]bool, len(rt.cfg.Backends))
	for n := 0; n < len(rt.ring) && len(out) < len(rt.cfg.Backends); n++ {
		p := rt.ring[(i+n)%len(rt.ring)]
		if !seen[p.backend] {
			seen[p.backend] = true
			out = append(out, p.backend)
		}
	}
	return out
}

// eject takes a backend out of the routing rotation after a connection
// failure. Idempotent; the ejection is observed by every subsequent
// routed request until a heal re-admits the backend.
func (rt *Router) eject(backend int) {
	if !rt.health[backend].ejected.Swap(true) {
		obs.RouteEjections.Inc(rt.cfg.Backends[backend])
	}
}

// usable reports whether a backend is in the routing rotation. For an
// ejected backend it attempts one opportunistic heal per
// ReprobeInterval: a /readyz probe plus a full catalog replay-log
// resync (both must succeed — re-admitting a backend that misses
// catalog state would serve checks against stale or absent entries).
func (rt *Router) usable(ctx context.Context, backend int) bool {
	h := &rt.health[backend]
	if !h.ejected.Load() {
		return true
	}
	now := time.Now().UnixNano()
	last := h.lastReprobe.Load()
	if now-last < int64(rt.cfg.ReprobeInterval) || !h.lastReprobe.CompareAndSwap(last, now) {
		return false
	}
	if rt.probe(ctx, backend) && rt.syncBackend(ctx, backend) == 0 {
		h.ejected.Store(false)
		return true
	}
	return false
}

// routeKey extracts the consistent-hash key from a buffered request
// body with a tolerant decode: the catalog reference when present
// (check and batch requests), the entry name (catalog registrations),
// else the query text. A body with none of them (an inline batch's
// queries, an inline mining evidence document) is its own key, so such
// requests spread over the ring instead of sharing one backend.
// Unknown fields are ignored — the backend revalidates strictly.
func routeKey(body []byte) string {
	var probe struct {
		Catalog string `json:"catalog"`
		Name    string `json:"name"`
		Query   string `json:"query"`
	}
	_ = json.Unmarshal(body, &probe)
	switch {
	case probe.Catalog != "":
		return probe.Catalog
	case probe.Name != "":
		return probe.Name
	case probe.Query != "":
		return probe.Query
	default:
		return string(body)
	}
}

// forwardHandler forwards one endpoint to the ring-picked backend.
func (rt *Router) forwardHandler(endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		obs.ServeRequests.Inc(endpoint)
		id := rt.nextRequestID()
		w.Header().Set("X-Request-Id", id)
		if r.Method != http.MethodPost {
			writeError(w, id, http.StatusMethodNotAllowed, "POST only")
			return
		}
		if rt.Draining() {
			rt.refuse(w, id)
			return
		}
		rt.wg.Add(1)
		defer rt.wg.Done()
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
		if err != nil {
			writeError(w, id, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		// Walk the failover order: skip ejected backends (reprobing them
		// when due), eject on connection failure and move on. The last
		// failure is reported only when no backend could take the
		// request.
		var lastErr error
		lastBackend := -1
		tried := 0
		for _, b := range rt.candidates(routeKey(body)) {
			if !rt.usable(r.Context(), b) {
				continue
			}
			tried++
			if tried > 1 {
				rt.health[b].retries.Add(1)
				obs.RouteRetries.Inc(rt.cfg.Backends[b])
			}
			resp, err := rt.forward(r.Context(), b, r.URL.Path, r.Header.Get("Content-Type"), body)
			if err != nil {
				lastErr, lastBackend = err, b
				continue
			}
			defer resp.Body.Close()
			relay(w, resp)
			return
		}
		if lastErr != nil {
			writeError(w, id, http.StatusBadGateway,
				"backend %s: %v", rt.cfg.Backends[lastBackend], lastErr)
			return
		}
		writeError(w, id, http.StatusBadGateway, "no backend in rotation")
	}
}

// forward posts a buffered body to one specific backend. A connection
// failure ejects the backend from the routing rotation (unless the
// caller's context caused it) and is returned to the caller — routed
// traffic fails over to the next ring candidate, broadcasts leave the
// entry in the replay log for syncBackend. An HTTP status from the
// backend — any status — means it is alive and is relayed as-is.
func (rt *Router) forward(ctx context.Context, backend int, path, contentType string, body []byte) (*http.Response, error) {
	name := rt.cfg.Backends[backend]
	rt.health[backend].forwards.Add(1)
	obs.RouteRequests.Inc(name)
	resp, err := rt.post(ctx, name+path, contentType, body)
	if err != nil {
		rt.health[backend].failures.Add(1)
		obs.RouteFailures.Inc(name)
		if ctx.Err() == nil {
			rt.eject(backend)
		}
		return nil, err
	}
	return resp, nil
}

func (rt *Router) post(ctx context.Context, url, contentType string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	return rt.client().Do(req)
}

// relay copies a backend response through: status, the content headers
// and a flushing body copy, so streamed batch JSONL lines reach the
// client as the backend emits them.
func relay(w http.ResponseWriter, resp *http.Response) {
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	if v := resp.Header.Get("X-Request-Id"); v != "" {
		w.Header().Set("X-Backend-Request-Id", v)
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// catalogHandler broadcasts registrations (POST) to every backend —
// the ring may move keys when backends come and go, so each backend
// must hold every catalog — and fans a GET in to the union of the
// backends' listings.
func (rt *Router) catalogHandler(w http.ResponseWriter, r *http.Request) {
	obs.ServeRequests.Inc("catalog")
	id := rt.nextRequestID()
	w.Header().Set("X-Request-Id", id)
	switch r.Method {
	case http.MethodGet:
		byName := map[string]CatalogInfo{}
		for i := range rt.cfg.Backends {
			infos, err := rt.listCatalog(r.Context(), i)
			if err != nil {
				writeError(w, id, http.StatusBadGateway,
					"backend %s: %v", rt.cfg.Backends[i], err)
				return
			}
			for _, info := range infos {
				if _, ok := byName[info.Name]; !ok {
					byName[info.Name] = info
				}
			}
		}
		names := make([]string, 0, len(byName))
		for n := range byName {
			names = append(names, n)
		}
		sort.Strings(names)
		out := make([]CatalogInfo, 0, len(names))
		for _, n := range names {
			out = append(out, byName[n])
		}
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		if rt.Draining() {
			rt.refuse(w, id)
			return
		}
		rt.wg.Add(1)
		defer rt.wg.Done()
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
		if err != nil {
			writeError(w, id, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		rt.broadcastCatalog(r.Context(), w, id, "/v1/catalog", body)
	default:
		writeError(w, id, http.StatusMethodNotAllowed, "GET or POST only")
	}
}

// mutationHandler broadcasts a catalog mutation to every backend:
// broadcast catalogs mean every backend holds its own copy of the
// entry, so a mutation must reach all of them or their maintained
// verdicts diverge. Unreachable backends are tolerated the same way as
// for registrations — the mutation lands in the replay log and
// syncBackend delivers it when the backend returns (mutation batches
// are idempotent at the tuple level, so replay over partial state is
// safe).
func (rt *Router) mutationHandler(w http.ResponseWriter, r *http.Request) {
	obs.ServeRequests.Inc("mutation")
	id := rt.nextRequestID()
	w.Header().Set("X-Request-Id", id)
	if rt.Draining() {
		rt.refuse(w, id)
		return
	}
	rt.wg.Add(1)
	defer rt.wg.Done()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, id, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	rt.broadcastCatalog(r.Context(), w, id, r.URL.Path, body)
}

// verdictsProxyHandler forwards a verdicts read (including its
// long-poll parameters) to the catalog's first in-rotation ring
// candidate — the backend routed checks land on, so the poll observes
// the same copy even while the primary is ejected.
func (rt *Router) verdictsProxyHandler(w http.ResponseWriter, r *http.Request) {
	obs.ServeRequests.Inc("verdicts")
	id := rt.nextRequestID()
	w.Header().Set("X-Request-Id", id)
	b := rt.pick(r.PathValue("name"))
	for _, c := range rt.candidates(r.PathValue("name")) {
		if rt.usable(r.Context(), c) {
			b = c
			break
		}
	}
	url := rt.cfg.Backends[b] + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, url, nil)
	if err != nil {
		writeError(w, id, http.StatusBadGateway, "%v", err)
		return
	}
	resp, err := rt.client().Do(req)
	if err != nil {
		writeError(w, id, http.StatusBadGateway, "backend %s: %v", rt.cfg.Backends[b], err)
		return
	}
	defer resp.Body.Close()
	relay(w, resp)
}

// broadcastCatalog appends one catalog-state change (registration or
// mutation) to the replay log and applies it to every backend that is
// current. Unreachable backends are left behind for syncBackend; a
// backend that is alive but refuses the change aborts the broadcast —
// the entry is invalid, it is popped from the log and the refusal is
// relayed. At least one backend must accept, else the client gets 502
// and the log stays unchanged. The first accepting backend's response
// is relayed.
func (rt *Router) broadcastCatalog(ctx context.Context, w http.ResponseWriter, id, path string, body []byte) {
	rt.catmu.Lock()
	defer rt.catmu.Unlock()
	n := len(rt.catlog)
	rt.catlog = append(rt.catlog, catalogLogEntry{path: path, body: body})
	var first []byte
	firstStatus, accepted := 0, 0
	for i := range rt.cfg.Backends {
		if rt.applied[i] != n {
			continue // already behind; syncBackend replays in order
		}
		resp, err := rt.forward(ctx, i, path, "application/json", body)
		if err != nil {
			continue // unreachable: catches up on the next ready probe
		}
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if resp.StatusCode >= 300 {
			rt.catlog = rt.catlog[:n]
			for j := range rt.applied {
				if rt.applied[j] > n {
					rt.applied[j] = n
				}
			}
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			w.WriteHeader(resp.StatusCode)
			_, _ = w.Write(b)
			return
		}
		rt.applied[i] = n + 1
		accepted++
		if first == nil {
			first, firstStatus = b, resp.StatusCode
		}
	}
	if accepted == 0 {
		rt.catlog = rt.catlog[:n]
		writeError(w, id, http.StatusBadGateway, "no backend accepted the catalog update")
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(firstStatus)
	_, _ = w.Write(first)
}

// syncBackend replays the catalog log entries a backend missed — it
// was unreachable during a broadcast, or restarted empty. The replay
// posts directly instead of going through forward, so the forwards
// ledger keeps counting only client-driven traffic. Replaying onto a
// backend holding any prefix of the log is sound: a registration it
// already has comes back as a 409 conflict (treated as applied), and
// mutation batches are idempotent at the tuple level (duplicate
// inserts and absent deletes are no-ops). It returns how many entries
// remain unapplied.
func (rt *Router) syncBackend(ctx context.Context, backend int) int {
	rt.catmu.Lock()
	defer rt.catmu.Unlock()
	for rt.applied[backend] < len(rt.catlog) {
		e := rt.catlog[rt.applied[backend]]
		resp, err := rt.post(ctx, rt.cfg.Backends[backend]+e.path, "application/json", e.body)
		if err != nil {
			break
		}
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		status := resp.StatusCode
		resp.Body.Close()
		if status >= 300 && !(e.path == "/v1/catalog" && status == http.StatusConflict) {
			break
		}
		rt.applied[backend]++
	}
	return len(rt.catlog) - rt.applied[backend]
}

// listCatalog fetches one backend's catalog listing.
func (rt *Router) listCatalog(ctx context.Context, backend int) ([]CatalogInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rt.cfg.Backends[backend]+"/v1/catalog", nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("catalog listing: status %d", resp.StatusCode)
	}
	var infos []CatalogInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// BackendStatus is one row of GET /v1/backends: a live readiness probe
// plus the router's forward ledger and rotation state for that backend.
type BackendStatus struct {
	Backend string `json:"backend"`
	Ready   bool   `json:"ready"`
	// State is the routing-rotation state: "healthy" (receives routed
	// traffic) or "ejected" (skipped until a probe + replay-log resync
	// heal it). Retries counts failovers this backend received from
	// ejected or failing peers.
	State    string `json:"state"`
	Forwards int64  `json:"forwards"`
	Retries  int64  `json:"retries"`
	Failures int64  `json:"failures"`
	// Pending is how many catalog replay-log entries the backend still
	// misses (see syncBackend); a ready backend is synced during this
	// probe, so a ready backend with Pending > 0 is refusing replays.
	Pending int `json:"pending"`
}

// backendsHandler reports per-backend health: a live /readyz probe,
// the forward/retry/failure counters and the rotation state. The sweep
// is also the deliberate heal path: a backend that probes ready has
// its missed catalog replay-log entries replayed and, once fully
// caught up, is re-admitted to the routing rotation; a backend that
// probes unready is ejected. An operator (or the relload watchdog)
// polling /v1/backends therefore heals a rejoined backend without
// extra machinery and without waiting for ReprobeInterval.
func (rt *Router) backendsHandler(w http.ResponseWriter, r *http.Request) {
	id := rt.nextRequestID()
	w.Header().Set("X-Request-Id", id)
	if r.Method != http.MethodGet {
		writeError(w, id, http.StatusMethodNotAllowed, "GET only")
		return
	}
	out := make([]BackendStatus, len(rt.cfg.Backends))
	var wg sync.WaitGroup
	for i, b := range rt.cfg.Backends {
		out[i] = BackendStatus{
			Backend:  b,
			Forwards: rt.health[i].forwards.Load(),
			Retries:  rt.health[i].retries.Load(),
			Failures: rt.health[i].failures.Load(),
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i].Ready = rt.probe(r.Context(), i)
			if out[i].Ready {
				out[i].Pending = rt.syncBackend(r.Context(), i)
				if out[i].Pending == 0 {
					rt.health[i].ejected.Store(false)
				}
			} else {
				rt.eject(i)
				rt.catmu.Lock()
				out[i].Pending = len(rt.catlog) - rt.applied[i]
				rt.catmu.Unlock()
			}
			out[i].State = "healthy"
			if rt.health[i].ejected.Load() {
				out[i].State = "ejected"
			}
		}(i)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, out)
}

// probe checks one backend's /readyz.
func (rt *Router) probe(ctx context.Context, backend int) bool {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rt.cfg.Backends[backend]+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.client().Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	return resp.StatusCode == http.StatusOK
}

func (rt *Router) readyzHandler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if rt.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("draining\n"))
		return
	}
	_, _ = w.Write([]byte("ok\n"))
}
