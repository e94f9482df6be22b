package main

// The serving workloads: an in-process cqbound.Server on a loopback port,
// loaded through POST /commit with cqload's dataset, driven by at most two
// client goroutines over at most two connections.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	cqbound "cqbound"
	"cqbound/internal/database"
	"cqbound/internal/datagen"
	"cqbound/internal/relation"
)

// queries maps each read kind to its text over the loaded schema (the
// same texts cqload sends).
var queries = map[string]string{
	"point":    "Q(X,Y) <- K(X), E(X,Y).",
	"star3":    "Q(X,A,B,C) <- E(X,A), F(X,B), G(X,C).",
	"path3":    "Q(A,D) <- E(A,B), F(B,C), G(C,D).",
	"triangle": "Q(X,Y,Z) <- E(X,Y), F(Y,Z), G(Z,X).",
	"zipf":     "Q(X,Z) <- Z1(X,Y), Z2(Y,Z).",
}

// readKinds lists the read kinds in report order; "commit" is the
// fourth-row ingest transaction.
var readKinds = []string{"point", "star3", "path3", "triangle", "zipf"}

type weighted struct {
	kind   string
	weight int
}

// serveSpec defines one serving workload: a closed loop of `clients`
// clients, each sending its next request when its last one returns.
type serveSpec struct {
	// mix holds weights out of 100.
	mix []weighted
	// cache is the result cache capacity in entries (0 disables it).
	cache int
	// memBudget is the engine's memory budget in bytes.
	memBudget int64
}

// Dataset: cqload's defaults, drawn from cqload's default seed so every
// run serves the same data and BENCH_serve.json stays comparable. The
// --seed of a run drives the traffic: where in the operation cycle it
// starts and the committed rows.
const (
	datasetSeed = 20260807
	edges       = 2000
	universe    = 200
	zipfS       = 1.5
	keyCount    = 8
	ingestRows  = 4
	// Load and admission settings shared by both serving workloads
	// (cqload's admission settings).
	clients         = 2
	admissionBudget = 8 << 20
	queueDepth      = 16
)

// serveMix replays the light part of cqload's traffic: point lookups,
// the cyclic triangle and the Zipf two-hop join, mostly answered from the
// result cache, and 4-row commits that invalidate it. README.md records
// why star3 and path3 are left to join-heavy.
var serveMix = serveSpec{
	mix: []weighted{
		{"point", 40}, {"triangle", 10}, {"zipf", 10}, {"commit", 10},
	},
	cache:     256,
	memBudget: 64 << 20,
}

// joinHeavy sends only evaluating reads with the result cache off, under
// a memory budget of about half the unbudgeted governed peak (README.md
// records the measurement), so the spill governor evicts and reloads.
var joinHeavy = serveSpec{
	mix: []weighted{
		{"star3", 30}, {"path3", 30}, {"triangle", 20}, {"zipf", 20},
	},
	cache:     0,
	memBudget: 9 << 18, // 2.25 MiB
}

// serveWorkload is one serving stack plus its client and verifier.
type serveWorkload struct {
	spec   serveSpec
	scale  int // edges per relation
	uni    int // node universe
	eng    *cqbound.Engine
	srv    *cqbound.Server
	hs     *http.Server
	served chan struct{}
	h      *tracedHandler
	client *http.Client
	base   string
	gen    *opGen
	ref    *reference
	// scans memoizes response bodies already parsed, by content hash.
	scans *scanCache
	// evaluated remembers, in a traced phase, the direct evaluation time
	// per (kind, epoch): the server evaluates each pair once when its
	// result cache is on, so the tracer does too.
	evalMu    sync.Mutex
	evaluated map[refKey]time.Duration
}

func newServeWorkload(spec serveSpec) *serveWorkload {
	return &serveWorkload{spec: spec, scans: newScanCache(), evaluated: map[refKey]time.Duration{}}
}

type commitOp struct {
	Op    string     `json:"op"`
	Rel   string     `json:"rel"`
	Attrs []string   `json:"attrs,omitempty"`
	Rows  [][]string `json:"rows,omitempty"`
}

func (w *serveWorkload) setup(opts options) (map[string]any, error) {
	w.scale, w.uni = edges, universe
	if opts.smoke {
		w.scale, w.uni = 200, 40
	}
	spillDir := filepath.Join(opts.outDir, "perfbench", "spill")
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return nil, err
	}
	w.eng = cqbound.NewEngine(
		cqbound.WithSharding(1024, 0),
		cqbound.WithMemoryBudget(w.spec.memBudget),
		cqbound.WithSpillDir(spillDir),
	)
	w.srv = cqbound.NewServer(w.eng,
		cqbound.WithAdmissionBudget(admissionBudget),
		cqbound.WithAdmissionQueue(queueDepth),
		cqbound.WithResultCache(w.spec.cache),
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.h = &tracedHandler{next: w.srv}
	w.hs = &http.Server{Handler: w.h}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}

	rng := rand.New(rand.NewSource(datasetSeed))
	db := datagen.EdgeDB(rng, []string{"E", "F", "G"}, w.scale, w.uni)
	zdb := datagen.ZipfEdgeDB(rng, []string{"Z1", "Z2"}, w.scale, w.uni, zipfS)
	w.ref = newReference()
	var ops []commitOp
	for _, d := range []*database.Database{db, zdb} {
		for _, name := range d.Names() {
			r := d.Relation(name)
			rows := make([][]string, 0, r.Size())
			r.Each(func(t relation.Tuple) bool {
				rows = append(rows, t.Strings())
				return true
			})
			w.ref.addBase(name, r.Attrs, rows)
			ops = append(ops, commitOp{Op: "create", Rel: name, Attrs: r.Attrs},
				commitOp{Op: "append", Rel: name, Rows: rows})
		}
	}
	keys := make([][]string, 0, keyCount)
	for i := 0; i < keyCount; i++ {
		keys = append(keys, []string{fmt.Sprintf("u%d", rng.Intn(w.uni))})
	}
	w.ref.addBase("K", []string{"k"}, keys)
	ops = append(ops, commitOp{Op: "create", Rel: "K", Attrs: []string{"k"}},
		commitOp{Op: "append", Rel: "K", Rows: keys})
	epoch, err := w.postCommit(ops, "")
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	w.ref.loaded = epoch

	// Warm-up: each read kind of the mix once, answers verified with the
	// rest.
	for _, m := range w.spec.mix {
		if m.kind == "commit" {
			continue
		}
		if rec := w.read(op{kind: m.kind}, nil); rec.failed {
			return nil, fmt.Errorf("warm-up %s failed", m.kind)
		}
	}
	w.gen = newOpGen(opts.seed, w.spec.mix, w.uni)

	return map[string]any{
		"dataset_seed":       datasetSeed,
		"edges_per_relation": w.scale,
		"universe":           w.uni,
		"zipf_s":             zipfS,
		"keys":               keyCount,
		"loop":               "closed",
		"clients":            clients,
		"result_cache":       w.spec.cache,
		"mem_budget_bytes":   w.spec.memBudget,
		"admission_bytes":    admissionBudget,
		"admission_queue":    queueDepth,
		"shards":             runtime.GOMAXPROCS(0),
	}, nil
}

func (w *serveWorkload) close() {
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.hs != nil {
		_ = w.hs.Close() // the listener error, if any, is of no use here
		<-w.served
	}
	if w.srv != nil {
		w.srv.Close()
	}
	if w.eng != nil {
		if err := w.eng.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: closing engine:", err)
		}
	}
}

// op is one generated operation.
type op struct {
	idx  int
	kind string
	// rows are a commit's new E edges.
	rows [][]string
}

// opGen draws operations from the mix, deterministically for a seed.
// Kinds repeat a fixed cycle of cycleDecks shuffled decks, each deck
// holding every kind in exact proportion (7 operations for serve-mix, 10
// for join-heavy). The cycle is the same on every run, so each run sends
// the same shares with commits in the same places relative to the reads;
// the seed picks where in the cycle a run starts and the committed rows.
type opGen struct {
	mu    sync.Mutex
	rng   *rand.Rand
	cycle []string
	next  int
	pos   int
	uni   int
}

const (
	cycleSeed  = 1
	cycleDecks = 5
)

func newOpGen(seed int64, mix []weighted, uni int) *opGen {
	unit := 100
	for _, m := range mix {
		unit = gcd(unit, m.weight)
	}
	var deck []string
	for _, m := range mix {
		for i := 0; i < m.weight/unit; i++ {
			deck = append(deck, m.kind)
		}
	}
	crng := rand.New(rand.NewSource(cycleSeed))
	var cycle []string
	for d := 0; d < cycleDecks; d++ {
		crng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		cycle = append(cycle, deck...)
	}
	g := &opGen{rng: rand.New(rand.NewSource(seed*7919 + 17)), cycle: cycle, uni: uni}
	g.pos = g.rng.Intn(len(cycle))
	return g
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (g *opGen) draw() op {
	g.mu.Lock()
	defer g.mu.Unlock()
	o := op{idx: g.next, kind: g.cycle[g.pos]}
	g.next++
	g.pos = (g.pos + 1) % len(g.cycle)
	if o.kind == "commit" {
		for i := 0; i < ingestRows; i++ {
			o.rows = append(o.rows, []string{
				fmt.Sprintf("n%d", ingestRows*o.idx+i),
				fmt.Sprintf("u%d", g.rng.Intn(g.uni)),
			})
		}
	}
	return o
}

// counterSnapshot reads every counter family the per-layer metrics use.
type counterSnapshot struct {
	eng   cqbound.EngineStats
	admit struct{ queued, rejected uint64 }
	cache struct{ hits, misses, invalidations uint64 }
}

func (w *serveWorkload) counters() counterSnapshot {
	var c counterSnapshot
	c.eng = w.eng.Stats()
	a := w.srv.AdmissionStats()
	c.admit.queued, c.admit.rejected = a.Queued, a.Rejected
	r := w.srv.ResultCacheStats()
	c.cache.hits, c.cache.misses, c.cache.invalidations = r.Hits, r.Misses, r.Invalidations
	return c
}

func (w *serveWorkload) measure(opts options, tr *tracer) *phase {
	w.h.tr.Store(tr)
	defer w.h.tr.Store(nil)
	before := w.counters()
	var (
		mu  sync.Mutex
		ops []opRecord
		wg  sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(time.Duration(opts.seconds * float64(time.Second)))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []opRecord
			for time.Now().Before(deadline) {
				local = append(local, w.do(w.gen.draw(), tr))
			}
			mu.Lock()
			ops = append(ops, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	p := &phase{ops: ops, wall: time.Since(start)}
	p.counters = w.deltas(before, w.counters())
	return p
}

// deltas turns two counter snapshots into the per-layer counter values.
func (w *serveWorkload) deltas(a, b counterSnapshot) map[string]float64 {
	c := map[string]float64{}
	c["serve.cache_hits"] = float64(b.cache.hits - a.cache.hits)
	c["serve.cache_misses"] = float64(b.cache.misses - a.cache.misses)
	c["serve.cache_invalidations"] = float64(b.cache.invalidations - a.cache.invalidations)
	c["serve.admission_queued"] = float64(b.admit.queued - a.admit.queued)
	c["serve.admission_rejected"] = float64(b.admit.rejected - a.admit.rejected)
	for _, ws := range w.srv.WindowSnapshots() {
		if ws.Window == "1m" {
			c["serve.admit_wait_ms"] = float64(ws.QueueWaitP99Ns) / 1e6
		}
	}
	engineDeltas(c, a.eng, b.eng)
	return c
}

// engineDeltas adds the Engine.Stats() counter deltas between a and b.
func engineDeltas(c map[string]float64, a, b cqbound.EngineStats) {
	c["plan.cache_hits"] = float64(b.CacheHits - a.CacheHits)
	c["plan.cache_misses"] = float64(b.CacheMisses - a.CacheMisses)
	c["shard.sharded_ops"] = float64(b.Shard.ShardedOps - a.Shard.ShardedOps)
	c["shard.fallback_ops"] = float64(b.Shard.FallbackOps - a.Shard.FallbackOps)
	c["shard.reused_rows"] = float64(b.Shard.ReusedRows - a.Shard.ReusedRows)
	c["shard.exchanged_rows"] = float64(b.Shard.ExchangedRows - a.Shard.ExchangedRows)
	c["shard.broadcasts"] = float64(b.Shard.BroadcastOps - a.Shard.BroadcastOps)
	c["shard.skew_splits"] = float64(b.Shard.SkewSplits - a.Shard.SkewSplits)
	c["batch.batches"] = float64(b.Stream.BatchesProduced - a.Stream.BatchesProduced)
	c["batch.rows"] = float64(b.Stream.RowsStreamed - a.Stream.RowsStreamed)
	c["batch.buffered_fallbacks"] = float64(b.Stream.BufferedFallbacks - a.Stream.BufferedFallbacks)
	c["spill.evictions"] = float64(b.Spill.Evictions - a.Spill.Evictions)
	c["spill.reloads"] = float64(b.Spill.ReloadedShards - a.Spill.ReloadedShards)
	c["spill.bytes_on_disk"] = float64(b.Spill.BytesOnDisk)
	c["spill.peak_resident_mib"] = float64(b.Spill.PeakResidentBytes) / (1 << 20)
	c["spill.pin_waits"] = float64(b.Spill.PinWaits - a.Spill.PinWaits)
	c["txn.incremental_memos"] = float64(b.Epoch.IncrementalMemos - a.Epoch.IncrementalMemos)
	c["txn.swept_buffers"] = float64(b.Epoch.SweptBuffers - a.Epoch.SweptBuffers)
}

// do runs one operation and returns its record.
func (w *serveWorkload) do(o op, tr *tracer) opRecord {
	if o.kind == "commit" {
		return w.commit(o, tr)
	}
	return w.read(o, tr)
}

// read sends one /query. Traced, it first calls the read path's layers
// directly on the same epoch, in the handler's order.
func (w *serveWorkload) read(o op, tr *tracer) opRecord {
	start := time.Now()
	rec := opRecord{kind: o.kind}
	text := queries[o.kind]
	reqID := fmt.Sprintf("%s-%d", o.kind, o.idx)
	root, bound := -1, -1.0
	if tr != nil {
		root = tr.start("request", -1, reqID, o.kind)
		bound = w.directRead(tr, root, reqID, o.kind, text)
	}
	req, err := http.NewRequest(http.MethodGet, w.base+"/query?"+url.Values{"q": {text}}.Encode(), nil)
	if err != nil {
		rec.failed = true
		return rec
	}
	req.Header.Set("X-Request-ID", reqID)
	cs := -1
	if tr != nil {
		cs = tr.start("http.client", root, reqID, o.kind)
	}
	body, status, err := w.send(req)
	if tr != nil {
		tr.end(cs)
	}
	rec.latency = time.Since(start)
	if tr != nil {
		tr.end(root)
	}
	if err != nil || status != http.StatusOK {
		rec.failed = true
		return rec
	}
	sc, err := w.scans.scan(body)
	if err != nil {
		w.ref.fail(fmt.Errorf("%s: unreadable answer: %v", o.kind, err))
	} else {
		w.ref.answer(o.kind, sc.epoch, sc.digest)
		if tr != nil {
			tr.annotate(root, map[string]float64{
				"cached": b2f(sc.cached), "rows": float64(sc.digest.rows),
				"epoch": float64(sc.epoch), "bound": bound,
			})
		}
	}
	return rec
}

// directRead calls Parse, Snapshot, PlanInfo and (once per kind and
// epoch when the result cache is on, else always) Evaluate, each under
// its own span, and returns the row bound PlanInfo priced.
func (w *serveWorkload) directRead(tr *tracer, root int, reqID, kind, text string) float64 {
	s := tr.start("cq.parse", root, reqID, kind)
	q, err := cqbound.Parse(text)
	tr.end(s)
	if err != nil {
		w.ref.fail(fmt.Errorf("parse %s: %v", kind, err))
		return -1
	}
	s = tr.start("txn.pin", root, reqID, kind)
	snap := w.eng.Snapshot()
	tr.end(s)
	defer snap.Close()
	key := refKey{kind, snap.Epoch()}
	w.evalMu.Lock()
	evalDur, seen := w.evaluated[key]
	first := !seen
	if first {
		w.evaluated[key] = 0
	}
	w.evalMu.Unlock()

	s = tr.start("plan.info", root, reqID, kind)
	_, bound, _, err := w.eng.PlanInfo(q, snap.DB())
	tr.end(s)
	tr.annotate(s, map[string]float64{"cold": b2f(first)})
	if err != nil {
		w.ref.fail(fmt.Errorf("plan %s: %v", kind, err))
		return -1
	}
	if first || w.spec.cache == 0 {
		s = tr.start("eval", root, reqID, kind)
		t0 := time.Now()
		out, st, err := w.eng.Evaluate(context.Background(), q, snap.DB())
		evalDur = time.Since(t0)
		tr.end(s)
		if err != nil {
			w.ref.fail(fmt.Errorf("evaluate %s: %v", kind, err))
			return bound
		}
		tr.annotate(s, map[string]float64{"rows": float64(out.Size()), "max_intermediate": float64(st.MaxIntermediate)})
		w.evalMu.Lock()
		w.evaluated[key] = evalDur
		w.evalMu.Unlock()
	}
	tr.annotate(root, map[string]float64{"eval_ns": float64(evalDur), "pinned_epoch": float64(snap.Epoch())})
	return bound
}

// commit appends the operation's rows to E through POST /commit. Traced,
// half the rows first go through Engine.Begin/Txn.Commit directly, so
// both commits are real.
func (w *serveWorkload) commit(o op, tr *tracer) opRecord {
	start := time.Now()
	rec := opRecord{kind: "commit"}
	rows := o.rows
	reqID := fmt.Sprintf("commit-%d", o.idx)
	root := -1
	if tr != nil {
		root = tr.start("request", -1, reqID, "commit")
		defer tr.end(root)
		direct := rows[:len(rows)/2]
		rows = rows[len(rows)/2:]
		s := tr.start("txn.commit", root, reqID, "commit")
		tx := w.eng.Begin()
		var err error
		for _, r := range direct {
			if err = tx.Add("E", r...); err != nil {
				break
			}
		}
		var epoch uint64
		if err == nil {
			epoch, err = tx.Commit()
		} else {
			tx.Abort()
		}
		tr.end(s)
		if err != nil {
			rec.failed = true
			return rec
		}
		w.ref.committed(epoch, "E", direct)
	}
	cs := -1
	if tr != nil {
		cs = tr.start("http.client", root, reqID, "commit")
	}
	epoch, err := w.postCommit([]commitOp{{Op: "append", Rel: "E", Rows: rows}}, reqID)
	if tr != nil {
		tr.end(cs)
	}
	rec.latency = time.Since(start)
	if err != nil {
		rec.failed = true
		return rec
	}
	w.ref.committed(epoch, "E", rows)
	return rec
}

// postCommit sends one transaction and returns the epoch it published.
func (w *serveWorkload) postCommit(ops []commitOp, reqID string) (uint64, error) {
	body, err := json.Marshal(map[string]any{"ops": ops})
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest(http.MethodPost, w.base+"/commit", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, status, err := w.send(req)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("POST /commit: status %d: %s", status, resp)
	}
	var out struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		return 0, fmt.Errorf("POST /commit: %w", err)
	}
	return out.Epoch, nil
}

// send performs req and reads the whole body.
func (w *serveWorkload) send(req *http.Request) ([]byte, int, error) {
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if resp.ContentLength > 0 {
		buf.Grow(int(resp.ContentLength))
	}
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		return nil, resp.StatusCode, err
	}
	return buf.Bytes(), resp.StatusCode, nil
}

func (w *serveWorkload) verify() error { return w.ref.verify(queries) }

// tracedHandler wraps the server's ServeHTTP in a span while a tracer is
// installed; the span's parent is the client span of the same request ID.
type tracedHandler struct {
	next http.Handler
	tr   atomic.Pointer[tracer]
}

func (h *tracedHandler) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.next.ServeHTTP(rw, r)
		return
	}
	id := r.Header.Get("X-Request-ID")
	s := tr.start("http.handler", tr.clientSpan(id), id, "")
	h.next.ServeHTTP(rw, r)
	tr.end(s)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
