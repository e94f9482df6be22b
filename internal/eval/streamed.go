package eval

// The streamed (column-batch pipeline) forms of the two exchange-routed
// executors. Both mirror their materialized counterparts' routing
// decisions; the difference is residency: the running intermediate flows as
// a shard.Piped — per-shard pull pipelines holding one batch per stage —
// and relations are built only where an operand must be indexed whole
// (probe sides, semijoin reducers, subtree results) or at the final output.
// Joins' right operands are always base bindings or forced subtree results,
// so pipelines flow on the left throughout, which is exactly the shape
// shard's Piped operators implement.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"cqbound/internal/cq"
	"cqbound/internal/database"
	"cqbound/internal/pool"
	"cqbound/internal/relation"
	"cqbound/internal/shard"
	"cqbound/internal/trace"
)

// joinProjectStreamed is JoinProjectExec under Options.Streaming: the
// join-project fold never materializes an intermediate — scan, probe and
// projection stages chain within each shard, exchanges scatter batches
// between keys, and rows first become a relation again at the head
// projection's sink. Bindings are resolved (and checked for emptiness) up
// front, since an empty binding empties the output regardless of position.
func joinProjectStreamed(ctx context.Context, q *cq.Query, db *database.Database, order []int, opts *shard.Options) (*relation.Relation, Stats, error) {
	var st Stats
	if err := validateAtoms(q, db); err != nil {
		return nil, st, err
	}
	body, err := orderedBody(q, order)
	if err != nil {
		return nil, st, err
	}
	tr := opts.Tracer()
	bs := stageSpan(opts, trace.KindStage, "bindings")
	binds := make([]*relation.Relation, len(body))
	for i, a := range body {
		if binds[i], err = bindingRelation(a, db); err != nil {
			bs.End()
			return nil, st, err
		}
		if binds[i].Size() == 0 {
			bs.End()
			st.EarlyExit = true
			return emptyOutput(q), st, nil
		}
		if tr != nil {
			scanSpan(opts, binds[i].Name, binds[i].Size())
		}
	}
	bs.End()
	needLater := make([]map[cq.Variable]bool, len(body)+1)
	needLater[len(body)] = map[cq.Variable]bool{}
	for i := len(body) - 1; i >= 0; i-- {
		m := make(map[cq.Variable]bool)
		for v := range needLater[i+1] {
			m[v] = true
		}
		for _, v := range body[i].Vars {
			m[v] = true
		}
		needLater[i] = m
	}
	head := q.HeadVarSet()

	var est *estimator
	project := func(pd *shard.Piped, after int) (*shard.Piped, error) {
		var keep []string
		for _, attr := range pd.Attrs() {
			v := cq.Variable(attr)
			if head[v] || needLater[after+1][v] {
				keep = append(keep, attr)
			}
		}
		if len(keep) == len(pd.Attrs()) {
			return pd, nil
		}
		est.projectTo(keep)
		return projectPipedNames(ctx, opts, pd, keep)
	}

	// The pipeline stage covers construction only; the armed operator
	// spans under it close as the sink drains their parts.
	ps := stageSpan(opts, trace.KindStage, "pipeline")
	if tr != nil {
		est = estimatorOf(shard.StreamOf(binds[0]))
	}
	pd := shard.PipedOf(shard.StreamOf(binds[0]), opts)
	if pd, err = project(pd, 0); err != nil {
		ps.End()
		return nil, st, err
	}
	for i := range body[1:] {
		var jsp *trace.Span
		if tr != nil {
			jsp = tr.Op(trace.KindJoin, "⋈ "+binds[i+1].Name)
			jsp.SetEst(est.joinWith(shard.StreamOf(binds[i+1])))
		}
		if pd, err = shard.JoinPipedStream(ctx, opts, pd, binds[i+1], false); err != nil {
			jsp.End()
			ps.End()
			return nil, st, err
		}
		shard.TracePiped(pd, jsp)
		st.Joins++
		if pd, err = project(pd, i+1); err != nil {
			ps.End()
			return nil, st, err
		}
	}
	ps.End()
	out, err := headProjectionPiped(ctx, opts, q, pd)
	if err != nil {
		return nil, st, err
	}
	// Streamed intermediates never materialize; the largest relation the
	// plan built is the output itself.
	st.MaxIntermediate = out.Size()
	return out, st, nil
}

// projectPipedNames is projectNames for pipelines. Under tracing the
// projection span is armed on the returned pipeline (rows and batches
// count as the sink drains); no estimate — a pipeline input has no
// statistics before it runs.
func projectPipedNames(ctx context.Context, opts *shard.Options, pd *shard.Piped, attrs []string) (*shard.Piped, error) {
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		j := slices.Index(pd.Attrs(), a)
		if j < 0 {
			return nil, fmt.Errorf("eval: unknown attribute %q in projection", a)
		}
		idx[i] = j
	}
	var psp *trace.Span
	if tr := opts.Tracer(); tr != nil {
		psp = tr.Op(trace.KindProject, "π "+strings.Join(attrs, ","))
	}
	out, err := shard.ProjectPiped(ctx, opts, pd, idx)
	if err != nil {
		psp.End()
		return nil, err
	}
	return shard.TracePiped(out, psp), nil
}

// headProjectionPiped is headProjectionExec for pipelines: the head
// projection extends the pipeline, and its sink is the first — and only —
// full materialization of the plan. The output is Q(D): it outlives the
// evaluation, so it is never registered with the spill governor.
func headProjectionPiped(ctx context.Context, opts *shard.Options, q *cq.Query, pd *shard.Piped) (*relation.Relation, error) {
	idx := make([]int, len(q.Head.Vars))
	for i, v := range q.Head.Vars {
		j := slices.Index(pd.Attrs(), string(v))
		if j < 0 {
			return nil, fmt.Errorf("eval: head variable %s missing from bindings", v)
		}
		idx[i] = j
	}
	hs := stageSpan(opts, trace.KindStage, "head projection + sink")
	mk := markSpill(opts, hs != nil)
	proj, err := shard.ProjectPiped(ctx, opts, pd, idx)
	if err != nil {
		hs.End()
		return nil, err
	}
	var ssp *trace.Span
	if tr := opts.Tracer(); tr != nil {
		ssp = tr.Op(trace.KindSink, "materialize "+q.Head.Relation)
	}
	// MaterializePiped is the drain: all upstream pipeline work happens
	// inside this call, so the stage's wall time is the plan's execution.
	sunk, err := shard.MaterializePiped(ctx, opts, proj, q.Head.Relation, false)
	if err != nil {
		ssp.End()
		hs.End()
		return nil, err
	}
	setStreamOut(ssp, sunk)
	ssp.End()
	setStreamOut(hs, sunk)
	mk.annotate(hs)
	hs.End()
	return sunk.Rel().Rename(q.Head.Relation, headAttrs(q)...)
}

// yannakakisStreamed is YannakakisExec under Options.Streaming. The
// semijoin passes still produce relations per node — a reducer is probed
// via its index, so it must exist whole — but each reduction itself runs
// as a pipeline (scan → semijoin stages → sink), and every materialized
// reduction is a subset of a base binding. The join pass builds one
// pipeline per node (scan of the reduced binding → probes of the forced
// child subtree results); each child's pipeline ends in its projection onto
// head ∪ the parent atom's variables, so only those projected subtree
// results are forced, and the root's join, the plan's largest
// intermediate, streams unprojected straight into the head projection. A
// Boolean subtree is forced only to test it for emptiness.
func yannakakisStreamed(ctx context.Context, q *cq.Query, db *database.Database, opts *shard.Options) (*relation.Relation, Stats, error) {
	var st Stats
	if err := validateAtoms(q, db); err != nil {
		return nil, st, err
	}
	tree, ok := JoinTree(q)
	if !ok {
		return nil, st, fmt.Errorf("eval: query is not acyclic; use JoinProject or GenericJoin")
	}
	// Each atom's reduction flows between passes as a Stream: a pass that
	// exchanged the binding leaves it partitioned, and the next pass's
	// pipeline picks the partitioning up instead of re-exchanging.
	tr := opts.Tracer()
	bs := stageSpan(opts, trace.KindStage, "bindings")
	reduced := make([]shard.Stream, len(q.Body))
	for i, a := range q.Body {
		b, err := bindingRelation(a, db)
		if err != nil {
			bs.End()
			return nil, st, err
		}
		if b.Size() == 0 {
			bs.End()
			st.EarlyExit = true
			return emptyOutput(q), st, nil
		}
		if tr != nil {
			scanSpan(opts, b.Name, b.Size())
		}
		reduced[i] = shard.StreamOf(b)
	}
	bs.End()
	var stMu sync.Mutex
	countJoin := func(size int) {
		stMu.Lock()
		st.Joins++
		if size > st.MaxIntermediate {
			st.MaxIntermediate = size
		}
		stMu.Unlock()
	}
	// filter pipelines binding i through semijoins against the given
	// reducer atoms and forces the (strictly smaller) result back into a
	// relation, transient under the spill governor. A reducer that has been
	// through a filter of its own is itself transient — its partitionings
	// must die with the evaluation — while an unreduced base binding's
	// partitions persist for reuse.
	filtered := make([]bool, len(q.Body))
	filter := func(i int, reducers []int) error {
		pd := shard.PipedOf(reduced[i], opts)
		for _, ri := range reducers {
			ssp := semijoinSpan(opts, tr, reduced[i], reduced[ri], q.Body[i].Relation, q.Body[ri].Relation)
			var err error
			if pd, err = shard.SemijoinPipedStream(ctx, opts, pd, reduced[ri].Rel(), filtered[ri]); err != nil {
				ssp.End()
				return err
			}
			shard.TracePiped(pd, ssp)
			countJoin(0)
		}
		sunk, err := shard.MaterializePiped(ctx, opts, pd, q.Body[i].Relation+"_sj", true)
		if err != nil {
			return err
		}
		reduced[i] = sunk
		filtered[i] = true
		return nil
	}
	// Bottom-up semijoin: parent ⋉ every child, one pipeline per node.
	var up func(n *JoinTreeNode) error
	up = func(n *JoinTreeNode) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := pool.Run(ctx, 0, len(n.Children), func(i int) error {
			return up(n.Children[i])
		}); err != nil {
			return err
		}
		if len(n.Children) == 0 {
			return nil
		}
		reducers := make([]int, len(n.Children))
		for i, c := range n.Children {
			reducers[i] = c.AtomIndex
		}
		return filter(n.AtomIndex, reducers)
	}
	su := stageSpan(opts, trace.KindStage, "semijoin up")
	mkUp := markSpill(opts, tr != nil)
	if err := up(tree); err != nil {
		su.End()
		return nil, st, err
	}
	mkUp.annotate(su)
	su.End()
	// Top-down semijoin: child ⋉ parent.
	var down func(n *JoinTreeNode) error
	down = func(n *JoinTreeNode) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return pool.Run(ctx, 0, len(n.Children), func(i int) error {
			c := n.Children[i]
			if err := filter(c.AtomIndex, []int{n.AtomIndex}); err != nil {
				return err
			}
			return down(c)
		})
	}
	sd := stageSpan(opts, trace.KindStage, "semijoin down")
	mkDown := markSpill(opts, tr != nil)
	if err := down(tree); err != nil {
		sd.End()
		return nil, st, err
	}
	mkDown.annotate(sd)
	sd.End()
	// Bottom-up join: each node's pipeline probes its children's forced
	// subtree results, each projected onto head ∪ this node's variables
	// (subtreeKeep) inside the child's pipeline, before its sink; only the
	// root's pipeline escapes unforced and unprojected, into the head
	// projection.
	head := q.HeadVarSet()
	var join func(n *JoinTreeNode) (*shard.Piped, error)
	join = func(n *JoinTreeNode) (*shard.Piped, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// subs[i] stays nil for a Boolean subtree that passed its filter.
		subs := make([]*relation.Relation, len(n.Children))
		if err := pool.Run(ctx, 0, len(n.Children), func(i int) error {
			pd, err := join(n.Children[i])
			if err != nil {
				return err
			}
			keep := subtreeKeep(pd.Attrs(), head, q.Body[n.AtomIndex])
			if len(keep) > 0 && len(keep) < len(pd.Attrs()) {
				if pd, err = projectPipedNames(ctx, opts, pd, keep); err != nil {
					return err
				}
			}
			sunk, err := shard.MaterializePiped(ctx, opts, pd, "sub", true)
			if err != nil {
				return err
			}
			sub := sunk.Rel()
			stMu.Lock()
			if sub.Size() > st.MaxIntermediate {
				st.MaxIntermediate = sub.Size()
			}
			stMu.Unlock()
			if len(keep) == 0 {
				if sub.Size() == 0 {
					return errEmptySubtree
				}
				return nil
			}
			subs[i] = sub
			return nil
		}); err != nil {
			return nil, err
		}
		cur := shard.PipedOf(reduced[n.AtomIndex], opts)
		for _, sub := range subs {
			if sub == nil {
				continue
			}
			var jsp *trace.Span
			if tr != nil {
				jsp = tr.Op(trace.KindJoin, "⋈ under "+q.Body[n.AtomIndex].Relation)
				jsp.SetEst(estimateJoin(reduced[n.AtomIndex], shard.StreamOf(sub)))
			}
			var err error
			if cur, err = shard.JoinPipedStream(ctx, opts, cur, sub, true); err != nil {
				jsp.End()
				return nil, err
			}
			shard.TracePiped(cur, jsp)
			countJoin(0)
		}
		return cur, nil
	}
	sj := stageSpan(opts, trace.KindStage, "join pass")
	full, err := join(tree)
	if errors.Is(err, errEmptySubtree) {
		sj.End()
		st.EarlyExit = true
		return emptyOutput(q), st, nil
	}
	if err != nil {
		sj.End()
		return nil, st, err
	}
	sj.End()
	out, err := headProjectionPiped(ctx, opts, q, full)
	if err != nil {
		return nil, st, err
	}
	if out.Size() > st.MaxIntermediate {
		st.MaxIntermediate = out.Size()
	}
	return out, st, nil
}
