package eval

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"cqbound/internal/cq"
	"cqbound/internal/database"
	"cqbound/internal/pool"
	"cqbound/internal/relation"
	"cqbound/internal/shard"
	"cqbound/internal/trace"
)

// This file adds the classical complement to the paper's worst-case bounds:
// α-acyclicity detection via the GYO reduction and Yannakakis' algorithm,
// which evaluates acyclic conjunctive queries with intermediate results
// bounded by input + output for free-connex queries and by input × output
// otherwise. (Acyclic queries are exactly those of
// hypertree-width 1; the treewidth material of Section 5 concerns the same
// structural-sparsity theme on the data side.)

// JoinTreeNode is a node of a join tree: one body atom plus its children.
type JoinTreeNode struct {
	AtomIndex int
	Children  []*JoinTreeNode
}

// JoinTree builds a join tree of the query's body with the GYO (ear
// removal) reduction. It reports ok = false when the query is not
// α-acyclic (e.g. the triangle query).
func JoinTree(q *cq.Query) (*JoinTreeNode, bool) {
	m := len(q.Body)
	alive := make([]bool, m)
	for i := range alive {
		alive[i] = true
	}
	varSets := make([]map[cq.Variable]bool, m)
	for i, a := range q.Body {
		varSets[i] = a.VarSet()
	}
	parent := make([]int, m)
	for i := range parent {
		parent[i] = -1
	}
	removed := make([]int, 0, m)
	countAlive := m
	for countAlive > 1 {
		earFound := false
		for i := 0; i < m && !earFound; i++ {
			if !alive[i] {
				continue
			}
			// i is an ear with witness w if every variable of i that occurs
			// in another alive atom occurs in w.
			for w := 0; w < m; w++ {
				if w == i || !alive[w] {
					continue
				}
				isEar := true
				for v := range varSets[i] {
					if varSets[w][v] {
						continue
					}
					shared := false
					for o := 0; o < m; o++ {
						if o != i && alive[o] && varSets[o][v] {
							shared = true
							break
						}
					}
					if shared {
						isEar = false
						break
					}
				}
				if isEar {
					parent[i] = w
					alive[i] = false
					removed = append(removed, i)
					countAlive--
					earFound = true
					break
				}
			}
		}
		if !earFound {
			return nil, false // GYO stuck: cyclic
		}
	}
	root := -1
	for i := 0; i < m; i++ {
		if alive[i] {
			root = i
			break
		}
	}
	nodes := make([]*JoinTreeNode, m)
	for i := 0; i < m; i++ {
		nodes[i] = &JoinTreeNode{AtomIndex: i}
	}
	for _, i := range removed {
		nodes[parent[i]].Children = append(nodes[parent[i]].Children, nodes[i])
	}
	return nodes[root], true
}

// IsAcyclic reports whether the query's body hypergraph is α-acyclic.
func IsAcyclic(q *cq.Query) bool {
	if len(q.Body) == 0 {
		return true
	}
	_, ok := JoinTree(q)
	return ok
}

// IsFreeConnex reports whether q is free-connex acyclic: α-acyclic, and
// still α-acyclic once its head variables are added as one more hyperedge.
// Full acyclic queries are free-connex; the path Q(A,D) <- E(A,B), F(B,C),
// G(C,D) is not. The split decides what Yannakakis with projected subtrees
// costs: O(|D| + |Q(D)|) for free-connex queries, O(|D|·|Q(D)|) otherwise.
func IsFreeConnex(q *cq.Query) bool {
	if !IsAcyclic(q) {
		return false
	}
	_, ok := JoinTree(&cq.Query{Head: q.Head, Body: append(slices.Clip(q.Body), q.Head)})
	return ok
}

// Yannakakis evaluates an α-acyclic query with Yannakakis' algorithm:
// a bottom-up semijoin pass removes dangling tuples, then a top-down pass
// filters against parents, and a final bottom-up join produces the output,
// projecting each subtree result onto the head variables plus its parent
// atom's variables before the parent joins it. Returns an error for cyclic
// queries.
func Yannakakis(q *cq.Query, db *database.Database) (*relation.Relation, Stats, error) {
	return YannakakisCtx(context.Background(), q, db)
}

// YannakakisCtx is Yannakakis with cancellation (checked between semijoin
// and join steps) and an early exit as soon as any binding relation is
// empty: every atom participates in the final join, so the output is empty.
// A Boolean subtree (see subtreeKeep) that comes out empty exits the same
// way.
//
// Sibling subtrees of the join tree are independent in every pass, so the
// bottom-up and top-down semijoin sweeps and the final join recurse over a
// node's children in parallel on a bounded worker pool; only the fold into
// the parent is sequential. Semijoins probe the child's memoized hash index
// (relation.Semijoin) instead of rescanning it per pass.
func YannakakisCtx(ctx context.Context, q *cq.Query, db *database.Database) (*relation.Relation, Stats, error) {
	return YannakakisExec(ctx, q, db, nil)
}

// YannakakisExec is YannakakisCtx with exchange-routed sharded execution:
// when opts enables sharding, every semijoin of the bottom-up and top-down
// passes — and every join and projection of the final pass — runs
// partition-parallel, and each atom's binding flows between passes as a
// shard.Stream that keeps whatever partitioning the previous pass built.
// Semijoin outputs are subsets of their left input, so a binding
// partitioned once stays partitioned through every later semijoin against
// it (misaligned passes broadcast the other side instead of
// repartitioning); the final joins then reuse those partitions when they
// align. Inputs below opts.MinRows, and parent/child pairs sharing no
// column, fall back to single-shard operators per step. Options carrying a
// BatchSize run the streamed form instead: semijoin reductions and the
// final join as pull-based column-batch pipelines, with only the reduced
// bindings and projected subtree results ever materialized. nil opts is
// exactly YannakakisCtx.
func YannakakisExec(ctx context.Context, q *cq.Query, db *database.Database, opts *shard.Options) (*relation.Relation, Stats, error) {
	if opts.Streaming() {
		return yannakakisStreamed(ctx, q, db, opts)
	}
	var st Stats
	if err := validateAtoms(q, db); err != nil {
		return nil, st, err
	}
	tree, ok := JoinTree(q)
	if !ok {
		return nil, st, fmt.Errorf("eval: query is not acyclic; use JoinProject or GenericJoin")
	}
	tr := opts.Tracer()
	bs := stageSpan(opts, trace.KindStage, "bindings")
	bindings := make([]shard.Stream, len(q.Body))
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
		bindings[i] = shard.StreamOf(b)
	}
	bs.End()
	// Stats are updated from worker goroutines; guard them.
	var stMu sync.Mutex
	countJoin := func(size int) {
		stMu.Lock()
		st.Joins++
		if size > st.MaxIntermediate {
			st.MaxIntermediate = size
		}
		stMu.Unlock()
	}
	// Bottom-up semijoin: parent ⋉ child.
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
		for _, c := range n.Children {
			ssp := semijoinSpan(opts, tr, bindings[n.AtomIndex], bindings[c.AtomIndex], q.Body[n.AtomIndex].Relation, q.Body[c.AtomIndex].Relation)
			// Pinning happens inside the semijoin, below its exchange, so
			// a parked binding reloads shard by shard as the pass touches
			// it instead of being forced whole into memory here.
			reduced, err := shard.SemijoinStream(ctx, opts, bindings[n.AtomIndex], bindings[c.AtomIndex])
			if err != nil {
				ssp.End()
				return err
			}
			setStreamOut(ssp, reduced)
			ssp.End()
			bindings[n.AtomIndex] = reduced
			countJoin(0)
		}
		return nil
	}
	su := stageSpan(opts, trace.KindStage, "semijoin up")
	mk := markSpill(opts, tr != nil)
	if err := up(tree); err != nil {
		su.End()
		return nil, st, err
	}
	mk.annotate(su)
	su.End()
	// Top-down semijoin: child ⋉ parent.
	var down func(n *JoinTreeNode) error
	down = func(n *JoinTreeNode) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return pool.Run(ctx, 0, len(n.Children), func(i int) error {
			c := n.Children[i]
			ssp := semijoinSpan(opts, tr, bindings[c.AtomIndex], bindings[n.AtomIndex], q.Body[c.AtomIndex].Relation, q.Body[n.AtomIndex].Relation)
			reduced, err := shard.SemijoinStream(ctx, opts, bindings[c.AtomIndex], bindings[n.AtomIndex])
			if err != nil {
				ssp.End()
				return err
			}
			setStreamOut(ssp, reduced)
			ssp.End()
			bindings[c.AtomIndex] = reduced
			countJoin(0)
			return down(c)
		})
	}
	sd := stageSpan(opts, trace.KindStage, "semijoin down")
	mk = markSpill(opts, tr != nil)
	if err := down(tree); err != nil {
		sd.End()
		return nil, st, err
	}
	mk.annotate(sd)
	sd.End()
	// Bottom-up join. Each child's subtree result is projected onto head ∪
	// this node's variables before it is joined in (subtreeKeep), so the
	// root's result needs no projection beyond the head projection.
	// Sibling subtrees join in parallel; the fold into the parent is
	// sequential in child order, keeping results deterministic.
	head := q.HeadVarSet()
	var join func(n *JoinTreeNode) (shard.Stream, error)
	join = func(n *JoinTreeNode) (shard.Stream, error) {
		if err := ctx.Err(); err != nil {
			return shard.Stream{}, err
		}
		// subs[i] stays nil for a Boolean subtree that passed its filter.
		subs := make([]*shard.Stream, len(n.Children))
		if err := pool.Run(ctx, 0, len(n.Children), func(i int) error {
			sub, err := join(n.Children[i])
			if err != nil {
				return err
			}
			keep := subtreeKeep(sub.Attrs(), head, q.Body[n.AtomIndex])
			switch {
			case len(keep) == 0:
				if sub.Size() == 0 {
					return errEmptySubtree
				}
				return nil
			case len(keep) < len(sub.Attrs()):
				if sub, err = projectNames(ctx, opts, sub, keep); err != nil {
					return err
				}
			}
			subs[i] = &sub
			return nil
		}); err != nil {
			return shard.Stream{}, err
		}
		cur := bindings[n.AtomIndex]
		for _, sub := range subs {
			if sub == nil {
				continue
			}
			var jsp *trace.Span
			if tr != nil {
				jsp = tr.Op(trace.KindJoin, "⋈ under "+q.Body[n.AtomIndex].Relation)
				jsp.AddIn(cur.Size() + sub.Size())
				jsp.SetEst(estimateJoin(cur, *sub))
			}
			var err error
			cur, err = shard.NaturalJoinStream(ctx, opts, cur, *sub)
			if err != nil {
				jsp.End()
				return shard.Stream{}, err
			}
			setStreamOut(jsp, cur)
			jsp.End()
			countJoin(cur.Size())
		}
		return cur, nil
	}
	sj := stageSpan(opts, trace.KindStage, "join pass")
	mk = markSpill(opts, tr != nil)
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
	setStreamOut(sj, full)
	mk.annotate(sj)
	sj.End()
	out, err := headProjectionExec(ctx, opts, q, full)
	if err != nil {
		return nil, st, err
	}
	if out.Size() > st.MaxIntermediate {
		st.MaxIntermediate = out.Size()
	}
	return out, st, nil
}

// errEmptySubtree stops a join pass whose Boolean subtree (see subtreeKeep)
// came out empty: the whole answer is then empty.
var errEmptySubtree = errors.New("eval: empty Boolean subtree")

// subtreeKeep lists the attributes of a subtree result that the rest of
// the query can still see: head variables and the variables of the
// parent's atom. By the join tree's running-intersection property the
// parent atom is the only place a subtree meets the rest of the query, so
// every other attribute is projected away (deduplicating) before the
// parent joins the subtree. An empty list marks a Boolean subtree — no
// head variable, nothing shared with its parent — which acts only as a
// filter: an empty one empties the answer, a nonempty one is dropped from
// the parent's join.
func subtreeKeep(attrs []string, head map[cq.Variable]bool, parent cq.Atom) []string {
	pv := parent.VarSet()
	var keep []string
	for _, attr := range attrs {
		if v := cq.Variable(attr); head[v] || pv[v] {
			keep = append(keep, attr)
		}
	}
	return keep
}
