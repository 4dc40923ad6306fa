package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/textq"
)

// BudgetOverride is the per-request governance override. Every field
// is optional; set fields replace the server default for that
// dimension and are then clamped to the operator ceilings.
type BudgetOverride struct {
	TimeoutMS     int64 `json:"timeout_ms,omitempty"`
	MaxValuations int   `json:"max_valuations,omitempty"`
	MaxJoinRows   int64 `json:"max_join_rows,omitempty"`
	MaxTuples     int64 `json:"max_tuples,omitempty"`
}

// CheckRequest is the body of the three check endpoints. All problem
// parts use the textq grammar. Either Catalog names a registered
// (Dm, V) context — the request then carries only DB facts and the
// query — or the request is self-contained with inline Schemas,
// MasterSchemas, Master and Constraints.
type CheckRequest struct {
	Catalog       string `json:"catalog,omitempty"`
	Schemas       string `json:"schemas,omitempty"`
	MasterSchemas string `json:"master_schemas,omitempty"`
	DB            string `json:"db,omitempty"`
	Master        string `json:"master,omitempty"`
	Constraints   string `json:"constraints,omitempty"`
	Query         string `json:"query"`

	Budget *BudgetOverride `json:"budget,omitempty"`

	// Bounded-search knobs (/v1/bounded only; zero keeps the engine
	// defaults).
	MaxAdd      int `json:"max_add,omitempty"`
	FreshValues int `json:"fresh_values,omitempty"`

	// Degree asks /v1/rcdp to also measure the quantitative degree of
	// completeness (core.DegreeCtx): the response then carries a
	// "degree" object. DegreeValuations bounds the candidate valuations
	// inspected per disjunct; zero and over-ceiling values are clamped
	// to the operator's -max-degree-valuations.
	Degree           bool `json:"degree,omitempty"`
	DegreeValuations int  `json:"degree_valuations,omitempty"`
}

// StatsJSON mirrors core.BudgetStats for responses.
type StatsJSON struct {
	Valuations int     `json:"valuations"`
	JoinRows   int64   `json:"join_rows"`
	Tuples     int64   `json:"tuples"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

func statsJSON(st core.BudgetStats) *StatsJSON {
	return &StatsJSON{
		Valuations: st.Valuations,
		JoinRows:   st.JoinRows,
		Tuples:     st.Tuples,
		ElapsedMS:  float64(st.Elapsed) / float64(time.Millisecond),
	}
}

// CheckResponse is the body of a successful check. Verdict is the
// three-valued outcome ("complete", "incomplete", "unknown" for
// RCDP/bounded; "yes", "no", "unknown" for RCQP); Reason names the
// exhausted governance dimension on "unknown". Extension/NewTuple
// witness incompleteness (textq facts), Witness carries a verified
// complete database on RCQP "yes".
type CheckResponse struct {
	RequestID string     `json:"request_id"`
	Verdict   string     `json:"verdict"`
	Reason    string     `json:"reason,omitempty"`
	Stats     *StatsJSON `json:"stats,omitempty"`

	Extension string   `json:"extension,omitempty"`
	NewTuple  []string `json:"new_tuple,omitempty"`

	Method  string `json:"method,omitempty"`
	Detail  string `json:"detail,omitempty"`
	Witness string `json:"witness,omitempty"`

	Explored int `json:"explored,omitempty"`
	MaxAdd   int `json:"max_add,omitempty"`

	// Degree is present when the request asked for the quantitative
	// completeness score.
	Degree *DegreeJSON `json:"degree,omitempty"`
}

// DegreeJSON is the quantitative completeness score of a /v1/rcdp
// response: the covered fraction of candidate valuations with its
// Wilson 95% interval. Exact reports an exhaustive enumeration (the
// value is then the true fraction and value 1.0 iff the verdict is
// complete); otherwise the run was a budget-governed prefix sample and
// Reason names the stopping dimension.
type DegreeJSON struct {
	Value           float64 `json:"value"`
	Lo              float64 `json:"lo"`
	Hi              float64 `json:"hi"`
	Exact           bool    `json:"exact"`
	Verdict         string  `json:"verdict"`
	Candidates      int     `json:"candidates"`
	Counterexamples int     `json:"counterexamples"`
	Reason          string  `json:"reason,omitempty"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	RequestID string `json:"request_id,omitempty"`
	Error     string `json:"error"`
}

// checkInput is a resolved request: parsed problem parts plus the
// effective budget. release, when non-nil, must be called once the
// check is done with the parts — catalog-backed inputs hold the
// entry's read lock so a concurrent mutation cannot patch (D)m or V
// mid-search.
type checkInput struct {
	schemas map[string]*relation.Schema
	d       *relation.Database
	dm      *relation.Database
	v       *cc.Set
	q       qlang.Query
	budget  core.Budget
	req     *CheckRequest
	release func()
}

// httpError carries a status code with a client-facing message.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func httpErrorf(status int, format string, args ...any) error {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// retryAfterHeader attaches the Retry-After hint the refusal statuses
// (429 queue-full, 503 draining) carry so clients and routers back off
// instead of hammering.
func (s *Server) retryAfterHeader(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
}

// refuseDraining answers a request that arrived after Drain began:
// 503 with the same Retry-After hint as admission 429s, so routed
// clients treat a dying backend like a saturated one and retry
// elsewhere after the hint instead of immediately.
func (s *Server) refuseDraining(w http.ResponseWriter, id string) {
	obs.ServeRejections.Inc("draining")
	s.retryAfterHeader(w)
	writeError(w, id, http.StatusServiceUnavailable, "server is draining")
}

// handleAdmitted wraps an endpoint with the shared serving machinery:
// method filtering, drain refusal, body decoding, admission control,
// queue-occupancy accounting and the worker slot. serve runs inside
// the slot with the decoded request and is responsible for the
// response body and any endpoint-specific metrics; the
// admission-to-response latency observation is shared. Every endpoint
// — single checks and batches alike — goes through this one path, so
// the admission bound governs them uniformly (a batch occupies one
// slot for its whole run).
func handleAdmitted[Req any](s *Server, endpoint string, serve func(ctx context.Context, id string, req *Req, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		obs.ServeRequests.Inc(endpoint)
		id := s.nextRequestID()
		w.Header().Set("X-Request-Id", id)
		if r.Method != http.MethodPost {
			writeError(w, id, http.StatusMethodNotAllowed, "POST only")
			return
		}
		if s.Draining() {
			s.refuseDraining(w, id)
			return
		}
		// Decode before admission: consuming the body lets net/http
		// surface client disconnects through the request context while
		// the request waits for a worker slot; the expensive work
		// (textq parsing, the check itself) stays inside the slot.
		var req Req
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, id, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		if !s.admit() {
			obs.ServeRejections.Inc("queue-full")
			s.retryAfterHeader(w)
			writeError(w, id, http.StatusTooManyRequests,
				"admission queue is full (capacity %d); retry later", s.capacity)
			return
		}
		s.wg.Add(1)
		defer s.release()
		start := time.Now()
		if obs.Tracing() {
			obs.Emit("http_request", map[string]any{"id": id, "endpoint": endpoint})
		}

		// Wait for an execution slot; a client that goes away while
		// queued releases its admission slot without running. The
		// occupancy gauge covers exactly this wait, so its value is the
		// admitted-but-not-yet-executing count.
		ctx := r.Context()
		obs.ServeQueueOccupancy.Add(1)
		select {
		case s.sem <- struct{}{}:
			obs.ServeQueueOccupancy.Add(-1)
		case <-ctx.Done():
			obs.ServeQueueOccupancy.Add(-1)
			obs.ServeRejections.Inc("abandoned")
			return
		}
		defer func() { <-s.sem }()
		if s.beforeCheck != nil {
			s.beforeCheck()
		}

		serve(ctx, id, &req, w, r)
		obs.ServeSeconds.Observe(time.Since(start).Seconds())
	}
}

// checkHandler builds one single-check endpoint on the shared
// admission machinery; run executes the already-resolved check.
func (s *Server) checkHandler(endpoint string, run func(ctx context.Context, in *checkInput) (*CheckResponse, error)) http.HandlerFunc {
	return handleAdmitted(s, endpoint, func(ctx context.Context, id string, req *CheckRequest, w http.ResponseWriter, _ *http.Request) {
		resp, err := s.process(ctx, req, run)
		status := http.StatusOK
		verdict := ""
		if err != nil {
			status = statusOf(err)
			writeError(w, id, status, "%s", err.Error())
		} else {
			resp.RequestID = id
			verdict = resp.Verdict
			obs.ServeVerdicts.Inc(verdict)
			writeJSON(w, http.StatusOK, resp)
		}
		if obs.Tracing() {
			f := map[string]any{"id": id, "endpoint": endpoint, "status": status}
			if verdict != "" {
				f["verdict"] = verdict
			}
			obs.Emit("http_response", f)
		}
	})
}

// statusOf maps a processing error to its HTTP status: explicit
// httpErrors keep theirs, anything else is a 422 (the request was
// well-formed but the check could not run on it).
func statusOf(err error) int {
	var he *httpError
	if errors.As(err, &he) {
		return he.status
	}
	return http.StatusUnprocessableEntity
}

// process resolves and runs one admitted check request.
func (s *Server) process(ctx context.Context, req *CheckRequest, run func(ctx context.Context, in *checkInput) (*CheckResponse, error)) (*CheckResponse, error) {
	in, err := s.resolve(req)
	if err != nil {
		return nil, err
	}
	if in.release != nil {
		defer in.release()
	}
	return run(ctx, in)
}

// resolve turns a decoded request into parsed problem parts and the
// effective, ceiling-clamped budget.
func (s *Server) resolve(req *CheckRequest) (*checkInput, error) {
	return s.resolveWith(req, false)
}

// resolveWith is resolve with one extra behavior for the approximation
// endpoints: when residentDefault is set, a catalog-backed request with
// an empty db field runs against the entry's resident database (the
// state the mutation endpoints maintain) instead of an empty one. The
// check endpoints keep residentDefault off — their empty db has always
// meant the empty database, and changing that would change verdicts.
func (s *Server) resolveWith(req *CheckRequest, residentDefault bool) (*checkInput, error) {
	if req.Query == "" {
		return nil, httpErrorf(http.StatusBadRequest, "query is required")
	}
	in := &checkInput{req: req, budget: s.effectiveBudget(req.Budget)}
	if req.Catalog != "" {
		if req.Schemas != "" || req.MasterSchemas != "" || req.Master != "" || req.Constraints != "" {
			return nil, httpErrorf(http.StatusBadRequest,
				"catalog %q conflicts with inline schemas/master/constraints", req.Catalog)
		}
		e := s.catalog.Get(req.Catalog)
		if e == nil {
			return nil, httpErrorf(http.StatusNotFound, "catalog %q is not registered", req.Catalog)
		}
		// Hold the entry's read side until the check releases it, so a
		// concurrent mutation cannot patch Dm or V mid-search.
		e.mu.RLock()
		var d *relation.Database
		var err error
		if residentDefault && req.DB == "" {
			d = e.D
		} else if d, err = textq.ParseFacts(req.DB, e.Schemas); err != nil {
			e.mu.RUnlock()
			return nil, httpErrorf(http.StatusBadRequest, "db: %v", err)
		}
		q, err := e.Query(req.Query)
		if err != nil {
			e.mu.RUnlock()
			return nil, httpErrorf(http.StatusBadRequest, "query: %v", err)
		}
		in.schemas, in.d, in.dm, in.v, in.q = e.Schemas, d, e.Dm, e.V, q
		in.release = e.mu.RUnlock
		return in, nil
	}
	p, err := textq.ParseProblem(textq.ProblemSource{
		Schemas:       req.Schemas,
		MasterSchemas: req.MasterSchemas,
		DB:            req.DB,
		Master:        req.Master,
		Constraints:   req.Constraints,
		Query:         req.Query,
	})
	if err != nil {
		return nil, httpErrorf(http.StatusBadRequest, "%v", err)
	}
	in.schemas, in.d, in.dm, in.v, in.q = p.Schemas, p.D, p.Dm, p.V, p.Q
	return in, nil
}

// effectiveBudget overlays the request's overrides on the server
// defaults and clamps the result to the operator ceilings.
func (s *Server) effectiveBudget(o *BudgetOverride) core.Budget {
	b := s.cfg.DefaultBudget
	if o != nil {
		if o.TimeoutMS > 0 {
			b.Timeout = time.Duration(o.TimeoutMS) * time.Millisecond
		}
		if o.MaxValuations > 0 {
			b.MaxValuations = o.MaxValuations
		}
		if o.MaxJoinRows > 0 {
			b.MaxJoinRows = o.MaxJoinRows
		}
		if o.MaxTuples > 0 {
			b.MaxTuples = o.MaxTuples
		}
	}
	return b.Clamp(s.cfg.MaxBudget)
}

// decidable guards the exact endpoints: RCDP/RCQP are undecidable
// beyond monotone queries and constraints (Theorems 3.1/4.1).
func decidable(in *checkInput) error {
	switch {
	case !in.q.Lang().Monotone() && !in.v.AllMonotone():
		return httpErrorf(http.StatusUnprocessableEntity,
			"undecidable fragment (%v query, non-monotone constraints): use /v1/bounded", in.q.Lang())
	case !in.q.Lang().Monotone():
		return httpErrorf(http.StatusUnprocessableEntity,
			"undecidable fragment (%v query): use /v1/bounded", in.q.Lang())
	case !in.v.AllMonotone():
		return httpErrorf(http.StatusUnprocessableEntity,
			"undecidable fragment (non-monotone constraints): use /v1/bounded")
	}
	return nil
}

func (s *Server) runRCDP(ctx context.Context, in *checkInput) (*CheckResponse, error) {
	if err := decidable(in); err != nil {
		return nil, err
	}
	ck := core.Checker{Workers: s.cfg.CheckWorkers, Budget: in.budget}
	res, err := ck.RCDPCtx(ctx, in.q, in.d, in.dm, in.v)
	if err != nil {
		return nil, err
	}
	out := &CheckResponse{
		Verdict: res.Verdict.String(),
		Reason:  res.Reason.String(),
		Stats:   statsJSON(res.Stats),
	}
	if res.Verdict == core.VerdictIncomplete {
		out.Extension = textq.FormatDatabase(res.Extension)
		out.NewTuple = tupleJSON(res.NewTuple)
	}
	if in.req != nil && in.req.Degree {
		dg, err := s.runDegree(ctx, in)
		if err != nil {
			return nil, err
		}
		out.Degree = dg
	}
	return out, nil
}

// runDegree measures the quantitative completeness score for a
// degree-requesting /v1/rcdp call. The degree enumeration reuses the
// request's effective budget except for its valuation dimension, which
// is governed separately: the request's degree_valuations clamped to
// the operator's MaxDegreeValuations ceiling.
func (s *Server) runDegree(ctx context.Context, in *checkInput) (*DegreeJSON, error) {
	budget := in.budget
	dv := in.req.DegreeValuations
	if dv <= 0 || dv > s.cfg.MaxDegreeValuations {
		dv = s.cfg.MaxDegreeValuations
	}
	budget.MaxValuations = dv
	ck := core.Checker{Workers: s.cfg.CheckWorkers, Budget: budget}
	res, err := ck.DegreeCtx(ctx, in.q, in.d, in.dm, in.v)
	if err != nil {
		return nil, err
	}
	out := &DegreeJSON{
		Value:           res.Degree,
		Lo:              res.Lo,
		Hi:              res.Hi,
		Exact:           res.Exact,
		Verdict:         res.Verdict.String(),
		Candidates:      res.Candidates,
		Counterexamples: res.Counterexamples,
	}
	if res.Reason != core.ReasonNone {
		out.Reason = res.Reason.String()
	}
	return out, nil
}

func (s *Server) runRCQP(ctx context.Context, in *checkInput) (*CheckResponse, error) {
	if err := decidable(in); err != nil {
		return nil, err
	}
	ck := core.QPChecker{Checker: core.Checker{Workers: s.cfg.CheckWorkers, Budget: in.budget}}
	res, err := ck.RCQPCtx(ctx, in.q, in.dm, in.v, in.schemas)
	if err != nil {
		return nil, err
	}
	out := &CheckResponse{
		Verdict: res.Status.String(),
		Reason:  res.Reason.String(),
		Stats:   statsJSON(res.Stats),
		Method:  res.Method,
		Detail:  res.Detail,
	}
	if res.Witness != nil {
		out.Witness = textq.FormatDatabase(res.Witness)
	}
	return out, nil
}

func (s *Server) runBounded(ctx context.Context, in *checkInput) (*CheckResponse, error) {
	opts := core.BoundedOpts{
		MaxAdd:      in.req.MaxAdd,
		FreshValues: in.req.FreshValues,
		Workers:     s.cfg.CheckWorkers,
		Budget:      in.budget,
	}
	res, err := core.BoundedRCDPCtx(ctx, in.q, in.d, in.dm, in.v, opts)
	if err != nil {
		return nil, err
	}
	out := &CheckResponse{
		Verdict:  res.Verdict.String(),
		Reason:   res.Reason.String(),
		Stats:    statsJSON(res.Stats),
		Explored: res.Explored,
		MaxAdd:   res.MaxAdd,
	}
	if res.Incomplete {
		out.Extension = textq.FormatDatabase(res.Extension)
		out.NewTuple = tupleJSON(res.NewTuple)
	}
	return out, nil
}

// CatalogRequest registers a master-data context under a name. DB
// seeds the entry's resident database (the state mutation endpoints
// patch; entries without DB facts start empty) and Queries seeds the
// watched queries whose verdicts the entry maintains across mutations
// (see mutation.go).
type CatalogRequest struct {
	Name          string   `json:"name"`
	Schemas       string   `json:"schemas"`
	MasterSchemas string   `json:"master_schemas,omitempty"`
	DB            string   `json:"db,omitempty"`
	Master        string   `json:"master,omitempty"`
	Constraints   string   `json:"constraints,omitempty"`
	Queries       []string `json:"queries,omitempty"`
}

// CatalogInfo describes one registered entry.
type CatalogInfo struct {
	Name          string `json:"name"`
	Relations     int    `json:"relations"`
	DBTuples      int    `json:"db_tuples"`
	MasterTuples  int    `json:"master_tuples"`
	Constraints   int    `json:"constraints"`
	CachedQueries int    `json:"cached_queries"`
	Watched       int    `json:"watched,omitempty"`
	Version       uint64 `json:"version,omitempty"`
}

// catalogHandler registers entries (POST) and lists them (GET).
func (s *Server) catalogHandler(w http.ResponseWriter, r *http.Request) {
	obs.ServeRequests.Inc("catalog")
	id := s.nextRequestID()
	w.Header().Set("X-Request-Id", id)
	switch r.Method {
	case http.MethodGet:
		names := s.catalog.Names()
		infos := make([]CatalogInfo, 0, len(names))
		for _, n := range names {
			infos = append(infos, catalogInfo(s.catalog.Get(n)))
		}
		writeJSON(w, http.StatusOK, infos)
	case http.MethodPost:
		if s.Draining() {
			s.refuseDraining(w, id)
			return
		}
		var req CatalogRequest
		dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, id, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		e, err := s.catalog.Register(req.Name, textq.ProblemSource{
			Schemas:       req.Schemas,
			MasterSchemas: req.MasterSchemas,
			DB:            req.DB,
			Master:        req.Master,
			Constraints:   req.Constraints,
		})
		if err != nil {
			status := http.StatusBadRequest
			if s.catalog.Get(req.Name) != nil {
				status = http.StatusConflict
			}
			writeError(w, id, status, "%v", err)
			return
		}
		if len(req.Queries) > 0 {
			ck := &core.Checker{Workers: s.cfg.CheckWorkers, Budget: s.effectiveBudget(nil)}
			if err := e.Watch(r.Context(), ck, req.Queries); err != nil {
				s.catalog.drop(req.Name)
				writeError(w, id, http.StatusBadRequest, "%v", err)
				return
			}
		}
		writeJSON(w, http.StatusCreated, catalogInfo(e))
	default:
		writeError(w, id, http.StatusMethodNotAllowed, "GET or POST only")
	}
}

func catalogInfo(e *Entry) CatalogInfo {
	e.mu.RLock()
	defer e.mu.RUnlock()
	count := func(db *relation.Database) int {
		n := 0
		if db != nil {
			for _, name := range db.Relations() {
				n += db.Instance(name).Len()
			}
		}
		return n
	}
	return CatalogInfo{
		Name:          e.Name,
		Relations:     len(e.Schemas),
		DBTuples:      count(e.D),
		MasterTuples:  count(e.Dm),
		Constraints:   e.V.Len(),
		CachedQueries: e.CachedQueries(),
		Watched:       len(e.watched),
		Version:       e.version,
	}
}

func tupleJSON(t relation.Tuple) []string {
	if t == nil {
		return nil
	}
	out := make([]string, len(t))
	for i, v := range t {
		out[i] = string(v)
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}

func writeError(w http.ResponseWriter, id string, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{RequestID: id, Error: fmt.Sprintf(format, args...)})
}
