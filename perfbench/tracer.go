package main

// Spans recorded by the benchmark around its own calls into each layer's
// public functions, kept in memory and written out when the run ends,
// and the per-layer metrics derived from them and from counter deltas.

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one call into a layer: name, interval, causing span and the
// request it belongs to.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Kind   string             `json:"kind,omitempty"`
	Req    string             `json:"req"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attr   map[string]float64 `json:"attr,omitempty"`
}

func (s *span) dur() float64 { return float64(s.End - s.Start) }

// tracer records spans; safe for concurrent use. A parent of -1 marks a
// root span.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	clients map[string]int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), clients: map[string]int{}}
}

func (t *tracer) start(name string, parent int, req, kind string) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Kind: kind, Req: req, Start: now, End: -1})
	if name == "http.client" {
		t.clients[req] = id
	}
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

func (t *tracer) annotate(id int, attrs map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	if s.Attr == nil {
		s.Attr = map[string]float64{}
	}
	for k, v := range attrs {
		s.Attr[k] = v
	}
}

// clientSpan returns the client span of a request ID, or -1.
func (t *tracer) clientSpan(req string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.clients[req]; ok {
		return id
	}
	return -1
}

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s *span, children []*span) float64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), s.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return s.dur() - float64(covered)
}

// unit scales for span durations in nanoseconds.
const (
	us = 1e3
	ms = 1e6
)

// layerMetrics builds every per-layer metric: counters from the untraced
// phase, span-derived times from the traced one. A layer the workload
// does not cross reads 0.
func layerMetrics(plain, traced *phase, tr *tracer) map[string]metric {
	m := map[string]metric{}
	for _, d := range perLayer {
		m[d.name] = metric{0, d.unit}
	}
	set := func(name string, v float64) {
		d, ok := m[name]
		if !ok {
			panic("perfbench: undeclared per-layer metric " + name)
		}
		d.Value = v
		m[name] = d
	}
	c := plain.counters
	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}

	// Counter deltas from the untraced phase.
	for _, name := range []string{
		"serve.cache_invalidations", "serve.admit_wait_ms", "serve.admission_queued",
		"serve.admission_rejected", "shard.sharded_ops", "shard.fallback_ops",
		"shard.exchanged_rows", "shard.broadcasts", "shard.skew_splits",
		"batch.batches", "batch.buffered_fallbacks", "spill.evictions", "spill.reloads",
		"spill.bytes_on_disk", "spill.peak_resident_mib", "spill.pin_waits",
		"txn.incremental_memos", "txn.swept_buffers",
	} {
		set(name, c[name])
	}
	set("serve.cache_hit_ratio", ratio(c["serve.cache_hits"], c["serve.cache_misses"]))
	set("plan.cache_hit_ratio", ratio(c["plan.cache_hits"], c["plan.cache_misses"]))
	set("shard.reused_frac", ratio(c["shard.reused_rows"], c["shard.exchanged_rows"]))
	if c["batch.batches"] > 0 {
		set("batch.rows_per_batch", c["batch.rows"]/c["batch.batches"])
	}
	if c["spill.evictions"] > 0 {
		set("spill.reloads_per_eviction", c["spill.reloads"]/c["spill.evictions"])
	}
	for name, v := range c {
		if _, ok := m[name]; ok && len(name) > 12 && name[:12] == "core.method." {
			set(name, v)
		}
	}
	if base := plain.meanMs(); base > 0 {
		set("bench.trace_overhead_frac", traced.meanMs()/base-1)
	}

	// Span-derived times from the traced phase.
	tr.mu.Lock()
	defer tr.mu.Unlock()
	children := map[int][]*span{}
	byReq := map[string]map[string]*span{}
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.End < 0 {
			continue
		}
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
		if byReq[s.Req] == nil {
			byReq[s.Req] = map[string]*span{}
		}
		byReq[s.Req][s.Name] = s
	}
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	violations := 0.0
	for _, ss := range byReq {
		root := ss["request"]
		if root == nil {
			continue
		}
		k := root.Kind
		if h, c := ss["http.handler"], ss["http.client"]; h != nil && c != nil {
			add("http.handler_ms."+k, h.dur()/ms)
			add("http.transport_ms."+k, selfTime(c, children[c.ID])/ms)
		}
		if s := ss["cq.parse"]; s != nil {
			add("cq.parse_us", s.dur()/us)
		}
		if s := ss["txn.pin"]; s != nil {
			add("txn.pin_us", s.dur()/us)
		}
		if s := ss["txn.commit"]; s != nil {
			add("txn.commit_ms", s.dur()/ms)
		}
		if s := ss["plan.info"]; s != nil && s.Attr["cold"] == 1 {
			add("plan.cold_us."+k, s.dur()/us)
		}
		if s := ss["eval"]; s != nil && k != "analyze" {
			add("eval.ms."+k, s.dur()/ms)
			add("eval.rows_out."+k, s.Attr["rows"])
			add("eval.max_intermediate."+k, s.Attr["max_intermediate"])
		}
		if k != "commit" && k != "analyze" && root.Attr != nil {
			if rows, ok := root.Attr["rows"]; ok {
				bound := root.Attr["bound"]
				if root.Attr["epoch"] == root.Attr["pinned_epoch"] && bound >= 0 {
					if rows > bound {
						violations++
					}
					if rows > 0 {
						add("serve.charge_over_rows."+k, bound/rows)
					}
				}
				h, p, pin := ss["http.handler"], ss["cq.parse"], ss["txn.pin"]
				if h != nil && p != nil && pin != nil {
					res := h.dur() - p.dur() - pin.dur()
					if root.Attr["cached"] == 0 {
						if pl := ss["plan.info"]; pl != nil {
							res -= pl.dur()
						}
						res -= root.Attr["eval_ns"]
					}
					add("render.ms."+k, res/ms)
				}
			}
		}
		for _, st := range []struct{ span, metric string }{
			{"chase", "chase.us"}, {"coloring", "coloring.ms"}, {"entropy", "entropy.ms"},
			{"hornsat", "hornsat.us"}, {"cover", "cover.us"}, {"sat", "sat.us"},
		} {
			if s := ss[st.span]; s != nil {
				scale := us
				if st.metric[len(st.metric)-2:] == "ms" {
					scale = ms
				}
				add(st.metric, s.dur()/scale)
			}
		}
	}
	set("serve.bound_violations", violations)
	for name, xs := range samples {
		if _, ok := m[name]; ok {
			set(name, median(xs))
		}
	}
	return m
}

// layerDef declares one per-layer metric; the list mirrors per_layer in
// BENCHMARK.json.
type layerDef struct{ name, unit string }

var perLayer = func() []layerDef {
	var ds []layerDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			ds = append(ds, layerDef{n, unit})
		}
	}
	for _, k := range append(append([]string{}, readKinds...), "commit") {
		add("ms", "http.handler_ms."+k, "http.transport_ms."+k)
	}
	for _, k := range readKinds {
		add("ms", "render.ms."+k)
	}
	add("us", "cq.parse_us", "txn.pin_us")
	add("ms", "txn.commit_ms")
	add("count", "txn.incremental_memos", "txn.swept_buffers")
	add("ratio", "serve.cache_hit_ratio")
	add("count", "serve.cache_invalidations")
	add("ms", "serve.admit_wait_ms")
	add("count", "serve.admission_queued", "serve.admission_rejected")
	for _, k := range readKinds {
		add("ratio", "serve.charge_over_rows."+k)
	}
	add("count", "serve.bound_violations")
	for _, k := range readKinds {
		add("us", "plan.cold_us."+k)
	}
	add("ratio", "plan.cache_hit_ratio")
	for _, k := range readKinds {
		add("ms", "eval.ms."+k)
		add("rows", "eval.rows_out."+k, "eval.max_intermediate."+k)
	}
	add("count", "shard.sharded_ops", "shard.fallback_ops")
	add("ratio", "shard.reused_frac")
	add("rows", "shard.exchanged_rows")
	add("count", "shard.broadcasts", "shard.skew_splits", "batch.batches")
	add("rows", "batch.rows_per_batch")
	add("count", "batch.buffered_fallbacks", "spill.evictions", "spill.reloads")
	add("ratio", "spill.reloads_per_eviction")
	add("bytes", "spill.bytes_on_disk")
	add("MiB", "spill.peak_resident_mib")
	add("count", "spill.pin_waits")
	add("us", "chase.us")
	add("ms", "coloring.ms", "entropy.ms")
	add("us", "hornsat.us", "cover.us", "sat.us")
	for _, method := range analysisMethods {
		add("count", "core.method."+method)
	}
	add("ratio", "bench.trace_overhead_frac")
	return ds
}()
