package cqbound

// The cqserve HTTP front-end: a Server exposing one Engine to concurrent
// network clients with per-request deadlines, bound-based admission
// control (internal/serve), an epoch-keyed result cache, and the PR 8
// observability surface (/metrics, ?trace=1, slow-query sinks). The
// engine-agnostic pieces live in internal/serve; this file is the glue
// that needs the Engine's unexported state (governor, epoch store).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cqbound/internal/obs"
	"cqbound/internal/serve"
)

// Server default knobs; all overridable through server options.
const (
	// defaultRequestTimeout bounds each request's context.
	defaultRequestTimeout = 30 * time.Second
	// defaultAdmissionBudget applies when the engine has no memory budget
	// to inherit (<= 0 governor budget means unlimited).
	defaultAdmissionBudget = 64 << 20
	// defaultAdmissionQueue is the FIFO depth beyond which Admit rejects.
	defaultAdmissionQueue = 16
	// defaultResultCacheSize is the (query, epoch) result cache capacity.
	defaultResultCacheSize = 256
	// estBytesPerValue is the resident cost charged per output value when
	// converting a planner row bound to an admission reservation: one
	// interned uint32 column cell plus index/dedup overhead.
	estBytesPerValue = 8
	// maxCommitBytes bounds a /commit request body; larger bodies get 413.
	// It sits far above any bulk load the tools send (a few hundred KB),
	// and keeps one request from buffering unbounded JSON in memory.
	maxCommitBytes = 64 << 20
)

// Server is the cqserve HTTP front-end over one Engine. Endpoints:
//
//	GET/POST /query?q=Q[&epoch=N][&trace=1]  evaluate Q (JSON tuples)
//	POST     /commit                         apply a transaction (JSON ops)
//	GET      /explain?q=Q                    plan, rationale and row bound
//	GET      /metrics                        engine + serve metric registry
//	POST     /snapshot                       pin the live epoch; returns it
//	DELETE   /snapshot?epoch=N               release a pinned epoch
//
// Each request runs under a deadline; each query passes admission before
// evaluation, reserving its paper-derived worst-case size out of the
// governor budget (429 when the queue is full). Server implements
// http.Handler and is safe for concurrent use.
type Server struct {
	e        *Engine
	admit    *serve.Admission
	cache    *serve.Cache[*cachedResult]
	mux      *http.ServeMux
	timeout  time.Duration
	cacheOn  bool
	requests atomic.Int64
	errors   atomic.Int64

	// obs is the serving-path observability state (serve_obs.go); nil
	// when the server was built WithoutObservability.
	obs *serverObs

	snapMu sync.Mutex
	snaps  map[uint64]*snapSession
	closed bool
}

// snapSession is one HTTP-pinned epoch: the underlying Snapshot, a count
// of POST /snapshot pins outstanding (clients pinning the same epoch
// share the session; it dies with its last DELETE), and a refcount of
// in-flight requests reading it, so a DELETE during a long evaluation
// defers the release instead of racing the retirement sweep.
type snapSession struct {
	snap     *Snapshot
	pins     int
	refs     int
	released bool
}

// ServerOption configures NewServer.
type ServerOption func(*serverConfig)

type serverConfig struct {
	timeout     time.Duration
	budget      int64
	queue       int
	cacheSize   int
	noObs       bool
	obsClock    obs.Clock
	accessW     io.Writer
	accessEvery int
}

// WithRequestTimeout bounds every request's context; handlers return 503
// when it expires. d <= 0 keeps the default (30s).
func WithRequestTimeout(d time.Duration) ServerOption {
	return func(c *serverConfig) {
		if d > 0 {
			c.timeout = d
		}
	}
}

// WithAdmissionBudget sets the byte budget the admission controller
// rations, overriding the default of the engine's own memory budget (or
// 64 MiB when the engine has none).
func WithAdmissionBudget(bytes int64) ServerOption {
	return func(c *serverConfig) {
		if bytes > 0 {
			c.budget = bytes
		}
	}
}

// WithAdmissionQueue sets how many requests may wait for budget before
// Admit rejects with 429. Zero queues nothing — contention rejects
// immediately.
func WithAdmissionQueue(n int) ServerOption {
	return func(c *serverConfig) {
		if n >= 0 {
			c.queue = n
		}
	}
}

// WithResultCache sets the (query, epoch) result cache capacity in
// entries. Zero disables the cache — every request re-evaluates, which
// the saturation tests rely on.
func WithResultCache(entries int) ServerOption {
	return func(c *serverConfig) {
		c.cacheSize = entries
	}
}

// NewServer wraps e in the cqserve HTTP front-end and registers the serve
// stats family (admission and cache counters) on e.Metrics(). The server
// holds no goroutines of its own; Close releases any epochs still pinned
// by snapshot sessions.
func NewServer(e *Engine, opts ...ServerOption) *Server {
	cfg := serverConfig{
		timeout:   defaultRequestTimeout,
		budget:    e.spill.Budget(),
		queue:     defaultAdmissionQueue,
		cacheSize: defaultResultCacheSize,
	}
	if cfg.budget <= 0 {
		cfg.budget = defaultAdmissionBudget
	}
	for _, o := range opts {
		o(&cfg)
	}
	s := &Server{
		e:       e,
		admit:   serve.NewAdmission(cfg.budget, cfg.queue, e.spill),
		timeout: cfg.timeout,
		cacheOn: cfg.cacheSize > 0,
		snaps:   make(map[uint64]*snapSession),
	}
	if s.cacheOn {
		s.cache = serve.NewCache[*cachedResult](cfg.cacheSize)
	} else {
		s.cache = serve.NewCache[*cachedResult](1)
	}
	if !cfg.noObs {
		s.obs = newServerObs(cfg.obsClock, cfg.accessW, cfg.accessEvery)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/commit", s.handleCommit)
	mux.HandleFunc("/explain", s.handleExplain)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	s.registerObsRoutes(mux)
	s.mux = mux
	s.registerMetrics()
	s.registerObsMetrics()
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if s.obs != nil {
		s.serveObserved(w, r)
		return
	}
	s.mux.ServeHTTP(w, r)
}

// now reads the server's clock: the injectable obs clock when
// observability is on, the wall clock otherwise.
func (s *Server) now() time.Time {
	if s.obs != nil {
		return s.obs.clock()
	}
	return time.Now()
}

// Close releases every epoch still pinned by a snapshot session. In-flight
// requests on those sessions finish against their pinned state; new
// epoch-pinned requests get 404.
func (s *Server) Close() {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.closed = true
	for epoch, sess := range s.snaps {
		if !sess.released {
			sess.released = true
			if sess.refs == 0 {
				sess.snap.Close()
			}
		}
		if sess.refs == 0 {
			delete(s.snaps, epoch)
		}
	}
}

// AdmissionStats snapshots the admission controller (also on /metrics as
// the serve_admission_* gauges).
func (s *Server) AdmissionStats() serve.AdmissionStats { return s.admit.Stats() }

// ResultCacheStats snapshots the result cache (also on /metrics as the
// serve_cache_* gauges).
func (s *Server) ResultCacheStats() serve.CacheStats { return s.cache.Stats() }

// registerMetrics adds the serve stats family to the engine's registry.
func (s *Server) registerMetrics() {
	reg := s.e.Metrics()
	ag := func(name string, f func(serve.AdmissionStats) int64) {
		reg.Gauge(name, func() int64 { return f(s.admit.Stats()) })
	}
	ag("serve_admission_admitted", func(st serve.AdmissionStats) int64 { return int64(st.Admitted) })
	ag("serve_admission_rejected", func(st serve.AdmissionStats) int64 { return int64(st.Rejected) })
	ag("serve_admission_queued", func(st serve.AdmissionStats) int64 { return int64(st.Queued) })
	ag("serve_admission_queue_timeouts", func(st serve.AdmissionStats) int64 { return int64(st.QueueTimeouts) })
	ag("serve_admission_waiting", func(st serve.AdmissionStats) int64 { return int64(st.Waiting) })
	ag("serve_admission_committed_bytes", func(st serve.AdmissionStats) int64 { return st.CommittedBytes })
	ag("serve_admission_capacity_bytes", func(st serve.AdmissionStats) int64 { return st.Capacity })
	cg := func(name string, f func(serve.CacheStats) int64) {
		reg.Gauge(name, func() int64 { return f(s.cache.Stats()) })
	}
	cg("serve_cache_hits", func(st serve.CacheStats) int64 { return int64(st.Hits) })
	cg("serve_cache_misses", func(st serve.CacheStats) int64 { return int64(st.Misses) })
	cg("serve_cache_invalidations", func(st serve.CacheStats) int64 { return int64(st.Invalidations) })
	cg("serve_cache_entries", func(st serve.CacheStats) int64 { return int64(st.Entries) })
	reg.Gauge("serve_requests", s.requests.Load)
	reg.Gauge("serve_errors", s.errors.Load)
}

// cachedResult is one rendered query answer: the JSON of its attrs and
// tuples arrays plus the row count — everything a /query body needs except
// the per-request envelope fields — so a cache hit re-sends stored bytes.
type cachedResult struct {
	Attrs  []byte
	Rows   int
	Tuples []byte
}

// handleQuery is the request lifecycle of ARCHITECTURE §11: resolve and
// pin the epoch, consult the result cache, pass admission with the plan's
// worst-case byte estimate, evaluate under the request deadline, release
// everything (deferred even on error paths).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	rs := obs.RequestFrom(ctx)
	qtext := r.FormValue("q")
	q, err := Parse(qtext)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, "parse: %v", err)
		return
	}
	rs.SetQuery(qtext)
	traced := r.FormValue("trace") == "1"

	// Pin the epoch the request reads: a held snapshot session when
	// ?epoch=N names one, the live epoch otherwise.
	var (
		db      *Database
		epoch   uint64
		release func()
	)
	if es := r.FormValue("epoch"); es != "" {
		n, err := strconv.ParseUint(es, 10, 64)
		if err != nil {
			s.fail(w, r, http.StatusBadRequest, "epoch: %v", err)
			return
		}
		sess := s.acquireSession(n)
		if sess == nil {
			s.fail(w, r, http.StatusNotFound, "epoch %d is not pinned by a snapshot session", n)
			return
		}
		db, epoch, release = sess.snap.DB(), n, func() { s.releaseSession(n) }
	} else {
		snap := s.e.Snapshot()
		db, epoch, release = snap.DB(), snap.Epoch(), snap.Close
	}
	defer release()
	rs.SetEpoch(epoch)

	// Cache hits skip admission: a rendered answer costs no evaluation
	// memory. Traced requests bypass the cache so their trace is real.
	if s.cacheOn && !traced {
		res, ok := s.cache.Get(qtext, epoch)
		if o := s.obs; o != nil {
			if ok {
				o.windows.CacheHits.Add(1)
			} else {
				o.windows.CacheMisses.Add(1)
			}
		}
		if ok {
			rs.MarkCached()
			rs.SetOutcome("cached")
			s.replyQuery(w, qtext, epoch, res, true, "")
			return
		}
	}

	// Admission: reserve the paper's worst-case output size. With
	// observability on, one PlanInfo call against the cached plan also
	// yields the strategy name and the System-R output estimate the
	// calibration telemetry compares against actual rows.
	var (
		strategy string
		bound    float64
		estimate float64
	)
	if s.obs != nil {
		strategy, bound, estimate, err = s.e.PlanInfo(q, db)
	} else {
		bound, err = s.e.BoundRows(q, db)
	}
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, "plan: %v", err)
		return
	}
	charge := estBytes(bound, q)
	ast := s.admit.Stats()
	rs.SetAdmission(bound, charge, charge > ast.Capacity)
	rs.SetState("queued", ast.Waiting)
	queuedAt := s.now()
	ticket, err := s.admit.Admit(ctx, charge)
	if o := s.obs; o != nil {
		o.windows.QueueWait.Observe(s.now().Sub(queuedAt).Nanoseconds())
	}
	rs.SetQueueWait(s.now().Sub(queuedAt).Nanoseconds())
	if err != nil {
		switch {
		case errors.Is(err, serve.ErrOverloaded):
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			s.fail(w, r, http.StatusTooManyRequests, "%v", err)
		default:
			s.fail(w, r, http.StatusServiceUnavailable, "admission wait: %v", err)
		}
		return
	}
	defer ticket.Release()
	if o := s.obs; o != nil {
		o.windows.Grants.Add(1)
	}
	rs.SetState("evaluating", 0)

	var (
		out *Relation
		tr  *Trace
	)
	if traced {
		out, _, tr, err = s.e.EvaluateTraced(ctx, q, db)
	} else {
		out, _, err = s.e.Evaluate(ctx, q, db)
	}
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.fail(w, r, http.StatusServiceUnavailable, "evaluate: %v", err)
		case errors.Is(err, context.Canceled):
			// The client is gone; the status is for the access log only.
			s.fail(w, r, 499, "evaluate: %v", err)
		default:
			s.fail(w, r, http.StatusUnprocessableEntity, "evaluate: %v", err)
		}
		return
	}
	res := renderResult(out, db.Dict())
	s.recordCalibration(strategy, shapeOf(q), bound, estimate, res.Rows)
	if s.cacheOn && !traced {
		s.cache.Put(qtext, epoch, res)
	}
	rs.SetState("done", 0)
	rs.SetOutcome("ok")
	var trace string
	if tr != nil {
		trace = tr.Render()
	}
	s.replyQuery(w, qtext, epoch, res, false, trace)
}

// estBytes converts a planner row bound to an admission reservation: one
// estBytesPerValue charge per output value. Infinite or overflowing
// estimates saturate (Admit clamps to capacity anyway).
func estBytes(rows float64, q *Query) int64 {
	width := len(q.Head.Vars)
	if width < 1 {
		width = 1
	}
	b := rows * float64(width) * estBytesPerValue
	if b >= float64(1<<62) {
		return 1 << 62
	}
	return int64(b)
}

// renderResult encodes a result relation as the JSON a /query body
// carries, straight from its columns: each distinct value ID is resolved
// through the evaluated snapshot's dictionary (the output relation does not
// adopt one) and encoded once, and each cell copies its encoding into one
// buffer. The relation itself is not retained.
func renderResult(out *Relation, d *Dict) *cachedResult {
	out.Pin()
	defer out.Unpin()
	cols := make([][]Value, out.Arity())
	for c := range cols {
		cols[c] = out.Column(c)
	}
	rows := out.Size()
	memo := make(map[Value]string)
	buf := make([]byte, 0, 2+rows*(3+8*len(cols)))
	buf = append(buf, '[')
	for i := 0; i < rows; i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		for c, col := range cols {
			if c > 0 {
				buf = append(buf, ',')
			}
			enc, ok := memo[col[i]]
			if !ok {
				enc = string(appendJSONString(nil, d.String(col[i])))
				memo[col[i]] = enc
			}
			buf = append(buf, enc...)
		}
		buf = append(buf, ']')
	}
	// An empty attribute list encodes as null, as it always has: the
	// copy of no attributes is a nil slice.
	attrs, _ := json.Marshal(append([]string(nil), out.Attrs...)) // strings always marshal
	return &cachedResult{Attrs: attrs, Rows: rows, Tuples: append(buf, ']')}
}

// appendJSONString appends s encoded exactly as encoding/json encodes a
// string. Printable ASCII outside "\<>& is copied verbatim between
// quotes; anything else (escapes, HTML-escaped bytes, non-ASCII, invalid
// UTF-8) goes through json.Marshal.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < 0x20 || b > 0x7e || b == '"' || b == '\\' || b == '<' || b == '>' || b == '&' {
			enc, _ := json.Marshal(s) // a string always marshals
			return append(dst, enc...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// commitRequest is the /commit JSON body: a transaction as an ordered op
// list. Ops are applied in order inside one Txn; any failure aborts the
// whole batch.
type commitRequest struct {
	Ops []commitOp `json:"ops"`
}

type commitOp struct {
	// Op is one of "create", "append", "retract", "drop"... create needs
	// Attrs; append and retract need Rows.
	Op    string     `json:"op"`
	Rel   string     `json:"rel"`
	Attrs []string   `json:"attrs,omitempty"`
	Rows  [][]string `json:"rows,omitempty"`
}

// handleCommit applies one transaction and publishes the next epoch. The
// response carries the committed epoch; the result cache is swept for
// epochs no longer readable.
func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, r, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if r.ContentLength > maxCommitBytes {
		s.fail(w, r, http.StatusRequestEntityTooLarge, "commit body of %d bytes exceeds the %d-byte limit", r.ContentLength, maxCommitBytes)
		return
	}
	var req commitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCommitBytes)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, r, http.StatusRequestEntityTooLarge, "commit body exceeds the %d-byte limit", tooBig.Limit)
			return
		}
		s.fail(w, r, http.StatusBadRequest, "decode: %v", err)
		return
	}
	tx := s.e.Begin()
	defer tx.Abort() // no-op after Commit
	for i, op := range req.Ops {
		var err error
		switch op.Op {
		case "create":
			err = tx.Create(op.Rel, op.Attrs...)
		case "append":
			for _, row := range op.Rows {
				if err = tx.Add(op.Rel, row...); err != nil {
					break
				}
			}
		case "retract":
			for _, row := range op.Rows {
				if err = tx.Remove(op.Rel, row...); err != nil {
					break
				}
			}
		default:
			err = fmt.Errorf("unknown op %q", op.Op)
		}
		if err != nil {
			s.fail(w, r, http.StatusBadRequest, "op %d (%s %s): %v", i, op.Op, op.Rel, err)
			return
		}
	}
	epoch, err := tx.Commit()
	if err != nil {
		s.fail(w, r, http.StatusUnprocessableEntity, "commit: %v", err)
		return
	}
	s.sweepCache()
	s.reply(w, http.StatusOK, map[string]uint64{"epoch": epoch})
}

// handleExplain returns the plan for q over the live epoch as text: the
// strategy, atom order and rationale, plus the worst-case row bound the
// admission controller would charge.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q, err := Parse(r.FormValue("q"))
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, "parse: %v", err)
		return
	}
	snap := s.e.Snapshot()
	defer snap.Close()
	p, err := s.e.ExplainDB(q, snap.DB())
	if err != nil {
		s.fail(w, r, http.StatusUnprocessableEntity, "plan: %v", err)
		return
	}
	rows, err := s.e.BoundRows(q, snap.DB())
	if err != nil {
		s.fail(w, r, http.StatusUnprocessableEntity, "bound: %v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "epoch: %d\n%s\nworst-case rows: %g (admission charge %d bytes)\n",
		snap.Epoch(), p, rows, estBytes(rows, q))
}

// handleSnapshot pins (POST) or releases (DELETE) an epoch for the
// ?epoch=N query form. Pinning the same epoch twice shares one session.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.snapMu.Lock()
		if s.closed {
			s.snapMu.Unlock()
			s.fail(w, r, http.StatusServiceUnavailable, "server closed")
			return
		}
		snap := s.e.Snapshot()
		epoch := snap.Epoch()
		if sess, ok := s.snaps[epoch]; ok {
			sess.pins++
			snap.Close() // session already holds this epoch
		} else {
			s.snaps[epoch] = &snapSession{snap: snap, pins: 1}
		}
		s.snapMu.Unlock()
		s.reply(w, http.StatusOK, map[string]uint64{"epoch": epoch})
	case http.MethodDelete:
		n, err := strconv.ParseUint(r.FormValue("epoch"), 10, 64)
		if err != nil {
			s.fail(w, r, http.StatusBadRequest, "epoch: %v", err)
			return
		}
		s.snapMu.Lock()
		sess, ok := s.snaps[n]
		if ok && sess.released {
			ok = false
		}
		if ok {
			sess.pins--
			if sess.pins <= 0 {
				sess.released = true
				if sess.refs == 0 {
					sess.snap.Close()
					delete(s.snaps, n)
				}
			}
		}
		s.snapMu.Unlock()
		if !ok {
			s.fail(w, r, http.StatusNotFound, "epoch %d is not pinned", n)
			return
		}
		s.sweepCache()
		s.reply(w, http.StatusOK, map[string]uint64{"epoch": n})
	default:
		s.fail(w, r, http.StatusMethodNotAllowed, "POST or DELETE required")
	}
}

// acquireSession refcounts the session pinning epoch n, or returns nil.
func (s *Server) acquireSession(n uint64) *snapSession {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	sess, ok := s.snaps[n]
	if !ok || sess.released {
		return nil
	}
	sess.refs++
	return sess
}

// releaseSession undoes acquireSession, completing a deferred DELETE when
// the last in-flight reader leaves.
func (s *Server) releaseSession(n uint64) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	sess, ok := s.snaps[n]
	if !ok {
		return
	}
	sess.refs--
	if sess.released && sess.refs == 0 {
		sess.snap.Close()
		delete(s.snaps, n)
	}
}

// sweepCache drops result-cache entries for epochs that are neither live
// nor pinned by a snapshot session.
func (s *Server) sweepCache() {
	if !s.cacheOn {
		return
	}
	live := s.e.LiveEpoch()
	s.snapMu.Lock()
	pinned := make(map[uint64]bool, len(s.snaps))
	for e, sess := range s.snaps {
		if !sess.released {
			pinned[e] = true
		}
	}
	s.snapMu.Unlock()
	s.cache.Sweep(func(e uint64) bool { return e == live || pinned[e] })
}

// replyQuery writes a 200 /query body: the envelope fields in their fixed
// order around the rendered attrs and tuples, byte for byte what
// encoding/json would produce for the same fields, in one Write with its
// Content-Length set.
func (s *Server) replyQuery(w http.ResponseWriter, qtext string, epoch uint64, res *cachedResult, cached bool, trace string) {
	b := make([]byte, 0, 96+len(qtext)+len(res.Attrs)+len(res.Tuples)+len(trace))
	b = append(b, `{"query":`...)
	b = appendJSONString(b, qtext)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, epoch, 10)
	b = append(b, `,"rows":`...)
	b = strconv.AppendInt(b, int64(res.Rows), 10)
	b = append(b, `,"attrs":`...)
	b = append(b, res.Attrs...)
	b = append(b, `,"tuples":`...)
	b = append(b, res.Tuples...)
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, cached)
	if trace != "" {
		b = append(b, `,"trace":`...)
		b = appendJSONString(b, trace)
	}
	b = append(b, "}\n"...)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(b); err != nil {
		s.errors.Add(1)
	}
}

// reply writes v as a JSON response.
func (s *Server) reply(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.errors.Add(1)
	}
}

// fail writes a JSON error body and counts it. The body carries the
// request's correlation ID when one is attached, so a client holding a
// 429 or 503 can quote the same ID the access log and traces recorded;
// the request's access-log outcome is derived from the status.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	s.errors.Add(1)
	body := map[string]string{"error": fmt.Sprintf(format, args...)}
	rs := obs.RequestFrom(r.Context())
	if id := rs.ID(); id != "" {
		body["request_id"] = id
	}
	rs.SetOutcome(outcomeForStatus(status))
	s.reply(w, status, body)
}

// outcomeForStatus maps an error status onto the access-log outcome
// vocabulary.
func outcomeForStatus(status int) string {
	switch status {
	case http.StatusTooManyRequests:
		return "shed"
	case http.StatusServiceUnavailable:
		return "timeout"
	case 499:
		return "canceled"
	default:
		return "error"
	}
}
