package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/textq"
)

// Catalog mutations and maintained verdicts.
//
// A catalog entry is a live completeness context, not a frozen
// snapshot: POST /v1/catalog/{name}/insert and /delete apply a batch of
// textq facts to the entry's resident database D (the default) or its
// master data Dm, patching the relation indexes and cc p(Dm) memos in
// place instead of rebuilding them. Entries registered with watched
// queries maintain those queries' RCDP verdicts across mutations —
// reusing a cached verdict when the core invisibility gate
// (core.Delta.WitnessReusable) proves the batch cannot have changed it,
// and rerunning the check cold over the incrementally patched data
// otherwise. GET /v1/catalog/{name}/verdicts reads (and optionally
// long-polls) the maintained verdicts, so clients observe flips without
// re-posting checks.

// watchedVerdict is the maintained state of one watched query.
type watchedVerdict struct {
	src    string
	q      qlang.Query
	prev   *core.RCDPResult // nil after a failed recheck: stale, rerun next mutation
	reused bool             // the last maintenance step reused prev instead of rerunning
}

// maxVerdictWaitMS bounds how long one verdicts long-poll may park.
const maxVerdictWaitMS = 60_000

// MutationRequest is the body of POST /v1/catalog/{name}/insert and
// /delete: a batch of textq facts against the entry's resident
// database ("db", the default) or its master data ("master").
type MutationRequest struct {
	Target string `json:"target,omitempty"`
	Facts  string `json:"facts"`
}

// MutationResponse reports one applied batch: the rows actually
// inserted and deleted (duplicates and absent deletes are no-ops), the
// reused-versus-rechecked split over the entry's watched verdicts, and
// the entry version the batch produced (what verdict long-polls pass
// back as ?after=).
type MutationResponse struct {
	RequestID string `json:"request_id"`
	Catalog   string `json:"catalog"`
	Op        string `json:"op"`
	Target    string `json:"target"`
	Inserted  int    `json:"inserted"`
	Deleted   int    `json:"deleted"`
	Reused    int    `json:"reused"`
	Rechecked int    `json:"rechecked"`
	Version   uint64 `json:"version"`
}

// WatchedVerdict is the wire form of one maintained verdict.
type WatchedVerdict struct {
	Query     string   `json:"query"`
	Verdict   string   `json:"verdict"`
	Reason    string   `json:"reason,omitempty"`
	Extension string   `json:"extension,omitempty"`
	NewTuple  []string `json:"new_tuple,omitempty"`
	Reused    bool     `json:"reused"`
}

// VerdictsResponse is the body of GET /v1/catalog/{name}/verdicts.
type VerdictsResponse struct {
	RequestID string           `json:"request_id"`
	Catalog   string           `json:"catalog"`
	Version   uint64           `json:"version"`
	Verdicts  []WatchedVerdict `json:"verdicts"`
}

// mutationOutcome is Mutate's summary of one applied batch.
type mutationOutcome struct {
	ins, del          int
	reused, rechecked int
	version           uint64
}

// Watch seeds maintained verdicts for queries against the entry's
// resident database. Queries already watched are kept as they are;
// like the exact check endpoints, non-monotone queries are refused
// (the maintained verdict would be undecidable).
func (e *Entry) Watch(ctx context.Context, ck *core.Checker, queries []string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, src := range queries {
		if _, ok := e.verdicts[src]; ok {
			continue
		}
		q, err := e.Query(src)
		if err != nil {
			return fmt.Errorf("watch query %q: %w", src, err)
		}
		if !q.Lang().Monotone() || !e.V.AllMonotone() {
			return fmt.Errorf("watch query %q: undecidable fragment", src)
		}
		res, err := ck.RCDPCtx(ctx, q, e.D, e.Dm, e.V)
		if err != nil {
			return fmt.Errorf("watch query %q: %w", src, err)
		}
		e.watched = append(e.watched, src)
		e.verdicts[src] = &watchedVerdict{src: src, q: q, prev: res}
	}
	e.bump()
	return nil
}

// bump advances the entry version and wakes parked long-polls. Callers
// hold e.mu.
func (e *Entry) bump() {
	e.version++
	close(e.changed)
	e.changed = make(chan struct{})
}

// Mutate applies dl to the entry and maintains every watched verdict.
// A batch that changes no row keeps every verdict and the version as
// they are. Otherwise each verdict is gated on the PRE-apply state —
// the projections and active domain its cached result was computed
// against: verdicts the invisibility gate proves untouched are reused
// (a cached Incomplete witness is first cheaply revalidated as defense
// in depth), the rest rerun cold over the incrementally patched data.
// An apply error (e.g. arity mismatch) leaves the entry unchanged; a
// recheck error keeps the batch applied (it already happened), resets
// that query's verdict to stale and is reported after the remaining
// queries are maintained.
func (e *Entry) Mutate(ctx context.Context, ck *core.Checker, dl *core.Delta) (mutationOutcome, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out mutationOutcome
	if e.D == nil {
		return out, fmt.Errorf("catalog %q has no resident database", e.Name)
	}
	gates := make(map[string]bool, len(e.watched))
	for src, wv := range e.verdicts {
		gates[src] = core.ResultReusable(wv.prev) && dl.WitnessReusable(wv.q, e.D, e.Dm, e.V)
	}
	var err error
	if out.ins, out.del, err = dl.Apply(e.D, e.Dm, e.V); err != nil {
		return mutationOutcome{}, err
	}
	if out.ins+out.del == 0 {
		// No row changed (duplicate inserts, absent deletes or an empty
		// batch): every verdict still holds, the version stays and no
		// long-poll wakes.
		for _, src := range e.watched {
			obs.RecheckReused.Inc()
			e.verdicts[src].reused = true
		}
		out.reused = len(e.watched)
		out.version = e.version
		return out, nil
	}
	var firstErr error
	for _, src := range e.watched {
		wv := e.verdicts[src]
		if gates[src] && (wv.prev.Verdict != core.VerdictIncomplete || e.revalidate(wv.prev)) {
			obs.RecheckReused.Inc()
			wv.reused = true
			out.reused++
			continue
		}
		obs.RecheckCold.Inc()
		wv.reused = false
		out.rechecked++
		res, rerr := ck.RCDPCtx(ctx, wv.q, e.D, e.Dm, e.V)
		if rerr != nil {
			wv.prev = nil
			if firstErr == nil {
				firstErr = fmt.Errorf("recheck %q: %w", src, rerr)
			}
			continue
		}
		wv.prev = res
	}
	e.bump()
	out.version = e.version
	return out, firstErr
}

// revalidate re-verifies a cached incompleteness witness against the
// mutated data (D ∪ ext must still satisfy V). Under the invisibility
// gate this cannot fail; it is a cheap guard against gate bugs, and a
// failure routes the query to the cold path.
func (e *Entry) revalidate(prev *core.RCDPResult) bool {
	if prev.Extension == nil {
		return false
	}
	ok, err := e.V.SatisfiedDelta(e.D, prev.Extension, e.Dm)
	return err == nil && ok
}

// verdictsSnapshot returns the current version, the channel the next
// bump closes, and the wire-form verdicts in watch order.
func (e *Entry) verdictsSnapshot() (uint64, <-chan struct{}, []WatchedVerdict) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]WatchedVerdict, 0, len(e.watched))
	for _, src := range e.watched {
		wv := e.verdicts[src]
		wj := WatchedVerdict{Query: src, Verdict: "stale", Reused: wv.reused}
		if wv.prev != nil {
			wj.Verdict = wv.prev.Verdict.String()
			wj.Reason = wv.prev.Reason.String()
			if wv.prev.Verdict == core.VerdictIncomplete {
				wj.Extension = textq.FormatDatabase(wv.prev.Extension)
				wj.NewTuple = tupleJSON(wv.prev.NewTuple)
			}
		}
		out = append(out, wj)
	}
	return e.version, e.changed, out
}

// serveMutation builds the insert/delete endpoint body for the shared
// admission machinery; the catalog name comes from the route pattern.
func (s *Server) serveMutation(op string) func(ctx context.Context, id string, req *MutationRequest, w http.ResponseWriter, r *http.Request) {
	return func(ctx context.Context, id string, req *MutationRequest, w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		e := s.catalog.Get(name)
		if e == nil {
			writeError(w, id, http.StatusNotFound, "catalog %q is not registered", name)
			return
		}
		target := req.Target
		if target == "" {
			target = "db"
		}
		var schemas map[string]*relation.Schema
		switch target {
		case "db":
			schemas = e.Schemas
		case "master":
			schemas = e.MasterSchemas
		default:
			writeError(w, id, http.StatusBadRequest, `target must be "db" or "master"`)
			return
		}
		tuples, err := factsTuples(req.Facts, schemas)
		if err != nil {
			writeError(w, id, http.StatusBadRequest, "facts: %v", err)
			return
		}
		dl := &core.Delta{Master: target == "master"}
		if op == "insert" {
			dl.Inserts = tuples
		} else {
			dl.Deletes = tuples
		}
		ck := &core.Checker{Workers: s.cfg.CheckWorkers, Budget: s.effectiveBudget(nil)}
		out, err := e.Mutate(ctx, ck, dl)
		if err != nil {
			writeError(w, id, statusOf(err), "%s", err.Error())
			return
		}
		writeJSON(w, http.StatusOK, &MutationResponse{
			RequestID: id,
			Catalog:   name,
			Op:        op,
			Target:    target,
			Inserted:  out.ins,
			Deleted:   out.del,
			Reused:    out.reused,
			Rechecked: out.rechecked,
			Version:   out.version,
		})
	}
}

// factsTuples parses a textq fact batch into per-relation tuple groups
// (the Delta wire-to-core conversion).
func factsTuples(src string, schemas map[string]*relation.Schema) (map[string][]relation.Tuple, error) {
	db, err := textq.ParseFacts(src, schemas)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]relation.Tuple)
	for _, rel := range db.Relations() {
		if ts := db.Instance(rel).Tuples(); len(ts) > 0 {
			out[rel] = ts
		}
	}
	return out, nil
}

// verdictsHandler serves GET /v1/catalog/{name}/verdicts: the
// maintained verdicts of the entry's watched queries. With ?after=N
// and ?wait_ms=T the response is held back until the entry version
// exceeds N or T milliseconds pass (long-poll), so clients observe
// verdict flips without tight polling. The handler stays outside the
// admission path on purpose: it runs no search, only reads maintained
// state, and a parked long-poll must not occupy a worker slot.
func (s *Server) verdictsHandler(w http.ResponseWriter, r *http.Request) {
	obs.ServeRequests.Inc("verdicts")
	id := s.nextRequestID()
	w.Header().Set("X-Request-Id", id)
	name := r.PathValue("name")
	e := s.catalog.Get(name)
	if e == nil {
		writeError(w, id, http.StatusNotFound, "catalog %q is not registered", name)
		return
	}
	after, err := uintParam(r, "after")
	if err != nil {
		writeError(w, id, http.StatusBadRequest, "%v", err)
		return
	}
	waitMS, err := uintParam(r, "wait_ms")
	if err != nil {
		writeError(w, id, http.StatusBadRequest, "%v", err)
		return
	}
	if waitMS > maxVerdictWaitMS {
		waitMS = maxVerdictWaitMS
	}
	deadline := time.Now().Add(time.Duration(waitMS) * time.Millisecond)
	for {
		version, changed, verdicts := e.verdictsSnapshot()
		if version > after || waitMS == 0 || !time.Now().Before(deadline) {
			writeJSON(w, http.StatusOK, &VerdictsResponse{
				RequestID: id, Catalog: e.Name, Version: version, Verdicts: verdicts,
			})
			return
		}
		timer := time.NewTimer(time.Until(deadline))
		select {
		case <-changed:
			timer.Stop()
		case <-timer.C:
		case <-r.Context().Done():
			timer.Stop()
			return
		}
	}
}

// uintParam parses an optional unsigned query parameter (absent = 0).
func uintParam(r *http.Request, name string) (uint64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %v", name, err)
	}
	return n, nil
}
