package main

// The analyze workload: one library caller runs the paper's analysis on
// a seeded set of distinct random conjunctive queries, each on a cold
// engine cache, then plans and evaluates it on a small random database.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	cqbound "cqbound"
	"cqbound/internal/core"
	"cqbound/internal/database"
	"cqbound/internal/datagen"
	"cqbound/internal/eval"
)

// analysisMethods are the color-number algorithms core.Analyze picks by
// dependency class.
var analysisMethods = []string{"lp-no-fds", "fd-elimination", "entropy-lp"}

// The query set. Variables are capped at 4: the entropy LPs grow as
// 2^|vars|, and at 5 or 6 variables single queries take seconds, so one
// such query would decide a whole run.
var (
	queryParams = datagen.QueryParams{
		MaxVars: 4, MaxAtoms: 5, MaxArity: 3,
		HeadFraction: 0.6, RepeatRelationProb: 0.3,
		SimpleFDProb: 0.15, CompoundFDProb: 0.4,
	}
	dbParams = datagen.DBParams{Tuples: 24, Universe: 6}
)

const (
	querySetSize      = 8000
	smokeQuerySetSize = 40
	warmupQueries     = 20
)

type analyzeWorkload struct {
	qs  []*cqbound.Query
	dbs []*database.Database
	// done records every evaluated operation for verification.
	done []analyzeOp
}

// analyzeOp is one operation's outcome, verified after the run.
type analyzeOp struct {
	idx int
	out digest
	// sExp is s(Q) and cExp is C(chase(Q)) when its bound is tight; NaN
	// when the analysis gives none.
	sExp, cExp float64
}

func (w *analyzeWorkload) setup(opts options) (map[string]any, error) {
	n := querySetSize
	if opts.smoke {
		n = smokeQuerySetSize
	}
	rng := rand.New(rand.NewSource(opts.seed))
	seen := map[string]bool{}
	for len(w.qs) < n {
		q := datagen.RandomQuery(rng, queryParams)
		if seen[q.String()] {
			continue
		}
		seen[q.String()] = true
		w.qs = append(w.qs, q)
		w.dbs = append(w.dbs, datagen.RandomDatabase(rng, q, dbParams))
	}
	eng := cqbound.NewEngine()
	for i := 0; i < warmupQueries && i < n; i++ {
		if _, _, err := w.run(eng, i, nil); err != nil {
			return nil, fmt.Errorf("warm-up query %d: %w", i, err)
		}
	}
	return map[string]any{
		"queries":      n,
		"query_params": queryParams,
		"db_params":    dbParams,
		"callers":      1,
		"loop":         "closed",
	}, nil
}

func (w *analyzeWorkload) close() {}

// run performs operation i on eng: Analyze (a cold cache the first time
// eng sees the query), ExplainDB, Evaluate. Traced, it first calls each
// analysis stage's public function under its own span.
func (w *analyzeWorkload) run(eng *cqbound.Engine, i int, tr *tracer) (*cqbound.Analysis, digest, error) {
	q, db := w.qs[i], w.dbs[i]
	if tr != nil {
		req := fmt.Sprintf("analyze-%d", i)
		root := tr.start("request", -1, req, "analyze")
		defer tr.end(root)
		timed := func(name string, f func()) {
			s := tr.start(name, root, req, "analyze")
			f()
			tr.end(s)
		}
		timed("chase", func() { cqbound.Chase(q) })
		st, err := core.StructureOf(q)
		if err != nil {
			return nil, digest{}, err
		}
		timed("coloring", func() { _, err = core.ColorNumberStage(st, true) })
		if err != nil {
			return nil, digest{}, err
		}
		// The entropy LP refuses queries over its size cap; Analyze then
		// reports no bound, which is not a failure.
		timed("entropy", func() { _, _ = cqbound.SizeBoundExponent(st.Chased) })
		timed("hornsat", func() { cqbound.SizeIncreasePossible(q) })
		timed("cover", func() { _, err = cqbound.FractionalEdgeCover(q) })
		if err != nil {
			return nil, digest{}, err
		}
		timed("sat", func() { cqbound.TwoColoringExists(q) })
	}
	a, err := eng.Analyze(q)
	if err != nil {
		return nil, digest{}, err
	}
	if _, err := eng.ExplainDB(q, db); err != nil {
		return nil, digest{}, err
	}
	out, _, err := eng.Evaluate(context.Background(), q, db)
	if err != nil {
		return nil, digest{}, err
	}
	return a, digestOf(out, nil), nil
}

// measure cycles through the query set until the time is up, with a
// fresh engine (cold caches) for every pass.
func (w *analyzeWorkload) measure(opts options, tr *tracer) *phase {
	p := &phase{counters: map[string]float64{}}
	start := time.Now()
	deadline := start.Add(time.Duration(opts.seconds * float64(time.Second)))
	var eng *cqbound.Engine
	for i := 0; time.Now().Before(deadline); i = (i + 1) % len(w.qs) {
		if i == 0 {
			eng = cqbound.NewEngine()
		}
		t0 := time.Now()
		a, d, err := w.run(eng, i, tr)
		rec := opRecord{kind: "analyze", latency: time.Since(t0)}
		if err != nil {
			rec.failed = true
		} else {
			o := analyzeOp{idx: i, out: d, sExp: math.NaN(), cExp: math.NaN()}
			if a.EntropyUpperBound != nil {
				o.sExp, _ = a.EntropyUpperBound.Float64()
			}
			if a.ColorNumber != nil && a.SizeBoundTight {
				o.cExp, _ = a.ColorNumber.Float64()
			}
			w.done = append(w.done, o)
			p.counters["core.method."+a.ColorNumberMethod]++
		}
		p.ops = append(p.ops, rec)
	}
	p.wall = time.Since(start)
	return p
}

// verify checks every evaluation against Naive, and its size against
// the analysis: |Q(D)| ≤ rmax^s(Q), and ≤ rmax^C when the color-number
// bound is tight.
func (w *analyzeWorkload) verify() error {
	if len(w.done) == 0 {
		return fmt.Errorf("no answers to verify")
	}
	ref := map[int]digest{}
	for _, o := range w.done {
		q, db := w.qs[o.idx], w.dbs[o.idx]
		want, ok := ref[o.idx]
		if !ok {
			out, _, err := eval.Naive(q, db)
			if err != nil {
				return fmt.Errorf("naive on query %d: %w", o.idx, err)
			}
			want = digestOf(out, nil)
			ref[o.idx] = want
		}
		if o.out != want {
			return fmt.Errorf("query %d (%s): Evaluate gives %d rows, Naive %d", o.idx, q, o.out.rows, want.rows)
		}
		rmax, err := db.RMax(q)
		if err != nil {
			return err
		}
		check := func(name string, exp float64) error {
			if lim := math.Pow(float64(rmax), exp); float64(o.out.rows) > lim*(1+1e-9) {
				return fmt.Errorf("query %d (%s): %d rows exceed rmax^%s = %d^%g", o.idx, q, o.out.rows, name, rmax, exp)
			}
			return nil
		}
		if !math.IsNaN(o.sExp) {
			if err := check("s(Q)", o.sExp); err != nil {
				return err
			}
		}
		if !math.IsNaN(o.cExp) {
			if err := check("C", o.cExp); err != nil {
				return err
			}
		}
	}
	return nil
}
