// Deterministic checks of the Yannakakis join pass's subtree projection:
// each subtree result keeps only head ∪ parent-atom variables, and a
// Boolean subtree (no head variable, nothing shared with its parent) acts
// as a filter. Every case runs under both executors — materialized and
// streamed — at each partition count with a 256-byte spill budget, and is
// checked against Naive.
package eval_test

import (
	"context"
	"fmt"
	"testing"

	"cqbound/internal/cq"
	"cqbound/internal/database"
	"cqbound/internal/eval"
	"cqbound/internal/relation"
	"cqbound/internal/shard"
	"cqbound/internal/spill"
	"cqbound/internal/trace"
)

// projectionRun is one YannakakisExec run of the projection cases.
type projectionRun struct {
	name     string
	streamed bool
	out      *relation.Relation
	st       eval.Stats
	trace    *trace.Trace
}

// runYannakakisBothExecutors evaluates q under the materialized and the
// streamed executor at every partition count, spilled at a 256-byte
// budget and traced, failing on any answer that differs from Naive.
func runYannakakisBothExecutors(t *testing.T, q *cq.Query, db *database.Database) []projectionRun {
	t.Helper()
	ctx := context.Background()
	ref, _, err := eval.NaiveCtx(ctx, q, db)
	if err != nil {
		t.Fatal(err)
	}
	gov := spill.NewGovernor(spillBudgetBytes, t.TempDir())
	defer gov.Close()
	var runs []projectionRun
	for _, p := range shardCounts {
		for _, bs := range []int{0, 7} {
			scope := spill.NewScope()
			tr := trace.NewTracer(q.String())
			opts := &shard.Options{MinRows: 0, Shards: p, SkewFraction: propertySkewFraction,
				BatchSize: bs, Spill: gov, Scope: scope, Trace: tr}
			out, st, err := eval.YannakakisExec(ctx, q, db, opts)
			scope.Close()
			name := fmt.Sprintf("p=%d batch=%d", p, bs)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !relation.Equal(ref, out) {
				t.Fatalf("%s: %d tuples, naive has %d", name, out.Size(), ref.Size())
			}
			runs = append(runs, projectionRun{name, bs > 0, out, st, tr.Finish()})
		}
	}
	return runs
}

// TestYannakakisProjectsSubtreeOntoParent builds the path instance
// E = {(a,bᵢ)}, F = {(bᵢ,c)}, G = {(c,dⱼ)}: joining F's subtree with B
// still attached hands G n rows per c and builds n² rows, while projecting
// it onto head ∪ {C} leaves the single row (a,c).
func TestYannakakisProjectsSubtreeOntoParent(t *testing.T) {
	const n = 40
	q := cq.MustParse("Q(A,D) <- E(A,B), F(B,C), G(C,D).")
	e := relation.New("E", "a", "b")
	f := relation.New("F", "a", "b")
	g := relation.New("G", "a", "b")
	for i := 0; i < n; i++ {
		b := fmt.Sprintf("b%d", i)
		e.Add("a", b)
		f.Add(b, "c")
		g.Add("c", fmt.Sprintf("d%d", i))
	}
	db := database.New()
	db.MustAdd(e)
	db.MustAdd(f)
	db.MustAdd(g)
	for _, r := range runYannakakisBothExecutors(t, q, db) {
		if r.out.Size() != n {
			t.Fatalf("%s: |Q(D)| = %d, want %d", r.name, r.out.Size(), n)
		}
		if !r.streamed {
			if r.st.MaxIntermediate != n {
				t.Errorf("%s: max intermediate %d, want %d", r.name, r.st.MaxIntermediate, n)
			}
			continue
		}
		// Streamed: the one projection in the join pass is F's subtree
		// result onto {A,C}, and it must emit exactly one row.
		var proj []*trace.Span
		for _, stage := range r.trace.Root.Children() {
			if stage.Name() != "join pass" {
				continue
			}
			for _, sp := range stage.Children() {
				if sp.SpanKind() == trace.KindProject {
					proj = append(proj, sp)
				}
			}
		}
		if len(proj) != 1 || proj[0].RowsOut() != 1 {
			for _, sp := range proj {
				t.Logf("%s: %s out=%d", r.name, sp.Name(), sp.RowsOut())
			}
			t.Errorf("%s: want one subtree projection with 1 row out, got %d projections", r.name, len(proj))
		}
	}
}

// TestYannakakisBooleanSubtree covers children that share no variable
// with their parent and hold no head variable: a nonempty one is dropped
// from the parent's join, an empty one empties the answer.
func TestYannakakisBooleanSubtree(t *testing.T) {
	r1 := relation.New("R1", "a")
	r1.Add("1")
	r1.Add("2")
	db := database.New()
	db.MustAdd(r1)
	for _, r := range runYannakakisBothExecutors(t, cq.MustParse("Q(V1) <- R1(V3), R1(V1)."), db) {
		if r.out.Size() != 2 {
			t.Fatalf("%s: |Q(D)| = %d, want 2", r.name, r.out.Size())
		}
	}

	// S ⋈ T is empty although both are not: the {Y,Z,W} subtree hangs
	// under R(X) as a Boolean child and reduces to nothing.
	s := relation.New("S", "a", "b")
	s.Add("1", "2")
	tt := relation.New("T", "a", "b")
	tt.Add("3", "4")
	r := relation.New("R", "a")
	r.Add("x")
	db = database.New()
	db.MustAdd(s)
	db.MustAdd(tt)
	db.MustAdd(r)
	q := cq.MustParse("Q(X) <- S(Y,Z), T(Z,W), R(X).")
	if tree, ok := eval.JoinTree(q); !ok || tree.AtomIndex != 2 {
		t.Fatalf("join tree root %v, want R (atom 2)", tree)
	}
	for _, run := range runYannakakisBothExecutors(t, q, db) {
		if run.out.Size() != 0 || !run.st.EarlyExit {
			t.Fatalf("%s: |Q(D)| = %d, early exit %v; want an empty answer by early exit",
				run.name, run.out.Size(), run.st.EarlyExit)
		}
	}
}
