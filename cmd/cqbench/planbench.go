package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"cqbound/internal/coloring"
	"cqbound/internal/construct"
	"cqbound/internal/cq"
	"cqbound/internal/database"
	"cqbound/internal/datagen"
	"cqbound/internal/eval"
	"cqbound/internal/plan"
	"cqbound/internal/relation"
	"cqbound/internal/shard"
)

// The plan benchmark compares the bound-driven planner against each fixed
// strategy on canonical workloads, emitting one JSON document so future
// changes have a machine-readable perf baseline to diff against.

// StrategyRun is one (workload, strategy) measurement.
type StrategyRun struct {
	Strategy        string  `json:"strategy"`
	NsPerOp         int64   `json:"ns_per_op"`
	OutputTuples    int     `json:"output_tuples"`
	MaxIntermediate int     `json:"max_intermediate"`
	Joins           int     `json:"joins"`
	SpeedupVsNaive  float64 `json:"speedup_vs_naive"`
}

// WorkloadResult groups the runs of one query/database pair.
type WorkloadResult struct {
	Name      string        `json:"name"`
	Query     string        `json:"query"`
	Planned   string        `json:"planned_strategy"`
	Rationale string        `json:"rationale"`
	Runs      []StrategyRun `json:"runs"`
	// PlannedOverBest is the planned run's ns/op over the fastest forced
	// strategy's: above 1 the planner picked a slower strategy than it had.
	PlannedOverBest float64 `json:"planned_over_best"`
}

// PlanBenchReport is the top-level JSON document.
type PlanBenchReport struct {
	Workloads []WorkloadResult `json:"workloads"`
}

type workload struct {
	name string
	text string
	db   func() *database.Database
	// skipNaive omits the quadratic-blowup naive strategy: the scaled
	// workloads exist to exercise the sharded operators, and naive's
	// intermediates on them are orders of magnitude larger than every
	// other strategy's total work.
	skipNaive bool
}

// graphDB builds a seeded random edge database via datagen.EdgeDB.
func graphDB(names []string, edges, universe int, seed int64) *database.Database {
	return datagen.EdgeDB(rand.New(rand.NewSource(seed)), names, edges, universe)
}

func planBenchWorkloads() []workload {
	return []workload{
		{
			name: "triangle",
			text: "Q(X,Y,Z) <- E(X,Y), E(Y,Z), E(X,Z).",
			db:   func() *database.Database { return graphDB([]string{"E"}, 400, 60, 1) },
		},
		{
			name: "star-3",
			text: "Q(X,Y,Z,W) <- E(X,Y), E(X,Z), E(X,W).",
			db:   func() *database.Database { return graphDB([]string{"E"}, 200, 40, 2) },
		},
		{
			name: "path-4",
			text: "Q(A,E) <- R(A,B), S(B,C), T(C,D), U(D,E).",
			db:   func() *database.Database { return graphDB([]string{"R", "S", "T", "U"}, 300, 50, 3) },
		},
		{
			name: "4-cycle",
			text: "Q(A,B,C,D) <- E(A,B), E(B,C), E(C,D), E(D,A).",
			db:   func() *database.Database { return graphDB([]string{"E"}, 250, 40, 4) },
		},
		{
			// The Proposition 4.5 worst-case instance of the triangle query:
			// the AGM-tight database where |Q(D)| meets rmax^ρ*.
			name: "agm-worstcase-triangle",
			text: "Q(X,Y,Z) <- R1(X,Y), R2(X,Z), R3(Y,Z).",
			db: func() *database.Database {
				q := cq.MustParse("Q(X,Y,Z) <- R1(X,Y), R2(X,Z), R3(Y,Z).")
				_, col, err := coloring.NumberNoFDs(q)
				if err != nil {
					panic(err)
				}
				db, err := construct.ProductWitness(q, col, 14)
				if err != nil {
					panic(err)
				}
				return db
			},
		},
	}
}

// scaledWorkloads are the 10–50x row-count variants that exercise the
// sharded operators: relations large enough that hash maps and dedup
// tables stop fitting in cache, which is exactly where partitioning pays
// even before parallel fan-out.
func scaledWorkloads() []workload {
	return []workload{
		{
			name:      "triangle-50x",
			text:      "Q(X,Y,Z) <- E(X,Y), E(Y,Z), E(X,Z).",
			db:        func() *database.Database { return graphDB([]string{"E"}, 20000, 1000, 11) },
			skipNaive: true,
		},
		{
			name:      "star-3-10x",
			text:      "Q(X,Y,Z,W) <- E(X,Y), E(X,Z), E(X,W).",
			db:        func() *database.Database { return graphDB([]string{"E"}, 2000, 130, 12) },
			skipNaive: true,
		},
		{
			name:      "path-4-20x",
			text:      "Q(A,E) <- R(A,B), S(B,C), T(C,D), U(D,E).",
			db:        func() *database.Database { return graphDB([]string{"R", "S", "T", "U"}, 6000, 1200, 13) },
			skipNaive: true,
		},
		{
			// Zipf-skewed path: hub nodes absorb a large share of each join
			// column, hashing most matching rows into one shard — the
			// workload the exchange's hot-shard splitting exists for.
			name: "path-4-zipf",
			text: "Q(A,E) <- R(A,B), S(B,C), T(C,D), U(D,E).",
			db: func() *database.Database {
				return datagen.ZipfEdgeDB(rand.New(rand.NewSource(14)), []string{"R", "S", "T", "U"}, 3000, 600, 1.4)
			},
			skipNaive: true,
		},
		{
			// cqload's path3 over its dataset: not free-connex, so a
			// Yannakakis join pass that keeps B past F's subtree builds
			// ~190k rows under G for a 38k-row answer.
			name:      "path3",
			text:      "Q(A,D) <- E(A,B), F(B,C), G(C,D).",
			db:        func() *database.Database { return graphDB([]string{"E", "F", "G"}, 2000, 200, 1) },
			skipNaive: true,
		},
	}
}

// plannerGated are the workloads whose planned strategy -baseline holds to
// within maxPlannedOverBest of the fastest forced strategy: the
// non-free-connex paths the planner sends to Yannakakis.
var plannerGated = map[string]bool{"path3": true, "path-4-zipf": true}

const maxPlannedOverBest = 1.25

// benchShardThreshold is the MinRows threshold the planned-sharded runs
// use: the original small workloads stay below it (demonstrating the
// zero-overhead fallback), the scaled workloads clear it.
const benchShardThreshold = 1024

func runPlanBench(asJSON bool, shards int) *PlanBenchReport {
	ctx := context.Background()
	report := PlanBenchReport{}
	shardOpts := &shard.Options{MinRows: benchShardThreshold, Shards: shards}
	for _, w := range append(planBenchWorkloads(), scaledWorkloads()...) {
		q := cq.MustParse(w.text)
		db := w.db()
		p, err := plan.ChooseForDB(q, db)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cqbench:", err)
			os.Exit(1)
		}
		res := WorkloadResult{Name: w.name, Query: w.text, Planned: p.Strategy.String(), Rationale: p.Rationale}

		type strat struct {
			name string
			run  func() (int, eval.Stats, error)
		}
		var strategies []strat
		if !w.skipNaive {
			strategies = append(strategies, strat{"naive", func() (int, eval.Stats, error) {
				return sized(eval.NaiveCtx(ctx, q, db))
			}})
		}
		strategies = append(strategies,
			strat{"project-early", func() (int, eval.Stats, error) {
				return sized(eval.JoinProjectOrdered(ctx, q, db, plan.OrderAtoms(q, db)))
			}},
			strat{"generic-join", func() (int, eval.Stats, error) {
				return sized(eval.GenericJoinCtx(ctx, q, db))
			}},
		)
		if p.Acyclic {
			strategies = append(strategies, strat{"yannakakis", func() (int, eval.Stats, error) {
				return sized(eval.YannakakisCtx(ctx, q, db))
			}})
		}
		strategies = append(strategies,
			strat{"planned", func() (int, eval.Stats, error) {
				return sized(plan.Execute(ctx, p, q, db))
			}},
			strat{"planned-sharded", func() (int, eval.Stats, error) {
				return sized(plan.ExecuteOpts(ctx, p, q, db, shardOpts))
			}},
		)

		var naiveNs, plannedNs, bestNs int64
		for _, s := range strategies {
			ns, outSize, st, err := timeStrategy(s.run)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cqbench: %s/%s: %v\n", w.name, s.name, err)
				os.Exit(1)
			}
			run := StrategyRun{
				Strategy:        s.name,
				NsPerOp:         ns,
				OutputTuples:    outSize,
				MaxIntermediate: st.MaxIntermediate,
				Joins:           st.Joins,
			}
			switch s.name {
			case "naive":
				naiveNs = ns
			case "planned":
				plannedNs = ns
			}
			if !strings.HasPrefix(s.name, "planned") && (bestNs == 0 || ns < bestNs) {
				bestNs = ns
			}
			if naiveNs > 0 && ns > 0 {
				run.SpeedupVsNaive = float64(naiveNs) / float64(ns)
			}
			res.Runs = append(res.Runs, run)
		}
		if bestNs > 0 {
			res.PlannedOverBest = float64(plannedNs) / float64(bestNs)
		}
		report.Workloads = append(report.Workloads, res)
	}

	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "cqbench:", err)
			os.Exit(1)
		}
		return &report
	}
	for _, w := range report.Workloads {
		fmt.Printf("%s  (planned: %s, %.2fx the best forced strategy)\n", w.Name, w.Planned, w.PlannedOverBest)
		for _, r := range w.Runs {
			fmt.Printf("  %-14s %10d ns/op  out=%-6d maxint=%-6d joins=%-4d speedup=%.2fx\n",
				r.Strategy, r.NsPerOp, r.OutputTuples, r.MaxIntermediate, r.Joins, r.SpeedupVsNaive)
		}
	}
	return &report
}

// checkBaseline compares a fresh planbench report against a recorded one:
// every (workload, strategy) pair present in both must not be slower than
// threshold × its baseline ns/op. Output sizes must match exactly — a
// changed result is a correctness regression, not a perf one. On the
// plannerGated workloads the planned run must also stay within
// maxPlannedOverBest of the fastest forced strategy of the same report.
func checkBaseline(cur *PlanBenchReport, path string, threshold float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base PlanBenchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %v", path, err)
	}
	baseRuns := make(map[string]StrategyRun)
	for _, w := range base.Workloads {
		for _, r := range w.Runs {
			baseRuns[w.Name+"/"+r.Strategy] = r
		}
	}
	var regressions []string
	for _, w := range cur.Workloads {
		for _, r := range w.Runs {
			b, ok := baseRuns[w.Name+"/"+r.Strategy]
			if !ok {
				continue // new workload or strategy: nothing to compare
			}
			if b.OutputTuples != r.OutputTuples {
				regressions = append(regressions, fmt.Sprintf(
					"%s/%s: output %d tuples, baseline %d (correctness)", w.Name, r.Strategy, r.OutputTuples, b.OutputTuples))
				continue
			}
			if b.NsPerOp > 0 && float64(r.NsPerOp) > threshold*float64(b.NsPerOp) {
				regressions = append(regressions, fmt.Sprintf(
					"%s/%s: %d ns/op vs baseline %d ns/op (%.1fx > %.1fx)",
					w.Name, r.Strategy, r.NsPerOp, b.NsPerOp,
					float64(r.NsPerOp)/float64(b.NsPerOp), threshold))
			}
		}
	}
	for _, w := range cur.Workloads {
		if plannerGated[w.Name] && w.PlannedOverBest > maxPlannedOverBest {
			regressions = append(regressions, fmt.Sprintf(
				"%s: planned %s runs %.2fx the best forced strategy (> %.2fx)",
				w.Name, w.Planned, w.PlannedOverBest, maxPlannedOverBest))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("benchmark regression against %s:\n  %s", path, strings.Join(regressions, "\n  "))
	}
	return nil
}

// sized adapts an evaluator result to (output size, stats, error).
func sized(out *relation.Relation, st eval.Stats, err error) (int, eval.Stats, error) {
	if err != nil {
		return 0, st, err
	}
	return out.Size(), st, nil
}

// timeStrategy runs fn repeatedly until it has accumulated enough wall time
// for a stable per-op figure (at least 3 runs or 50ms, whichever is later).
func timeStrategy(fn func() (int, eval.Stats, error)) (nsPerOp int64, outSize int, st eval.Stats, err error) {
	const (
		minRuns = 3
		minWall = 50 * time.Millisecond
	)
	var total time.Duration
	runs := 0
	for runs < minRuns || total < minWall {
		start := time.Now()
		outSize, st, err = fn()
		total += time.Since(start)
		if err != nil {
			return 0, 0, st, err
		}
		runs++
		if runs >= 1000 {
			break
		}
	}
	return total.Nanoseconds() / int64(runs), outSize, st, nil
}
