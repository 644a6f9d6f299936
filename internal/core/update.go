package core

import (
	"fmt"

	"repro/internal/reroot"
	"repro/internal/tree"
)

// Apply dispatches one update. For InsertVertex the new vertex ID is
// returned; other kinds return -1.
func (dd *DynamicDFS) Apply(u Update) (int, error) {
	switch u.Kind {
	case InsertEdge:
		return -1, dd.InsertEdge(u.U, u.V)
	case DeleteEdge:
		return -1, dd.DeleteEdge(u.U, u.V)
	case InsertVertex:
		return dd.InsertVertex(u.Neighbors)
	case DeleteVertex:
		return -1, dd.DeleteVertex(u.U)
	}
	return -1, fmt.Errorf("core: unknown update kind %d", u.Kind)
}

// InsertEdge handles case (ii) of the reduction (Section 3): if (u,v) is a
// back edge the tree is unchanged; otherwise, with w = LCA(u,v), the child
// subtree of w containing v is rerooted at v and hung from u. The case
// w = pseudo root covers merging two components.
func (dd *DynamicDFS) InsertEdge(u, v int) error {
	dd.lastDelta = nil // re-established by installTree on success
	ng, err := dd.g.InsertEdge(u, v)
	if err != nil {
		return err
	}
	dd.g = ng
	dd.d.PatchInsertEdge(u, v)
	w := dd.l.LCA(u, v)
	if w == u || w == v {
		// Back edge: no restructuring — D just absorbs the edge patch.
		dd.lastStats = reroot.Stats{}
		dd.installTree(dd.t, nil, nil, true)
		return nil
	}
	vPrime := dd.t.ChildToward(w, v)
	e := dd.engine()
	if err := dd.reroot(e, vPrime, v, u); err != nil {
		return fmt.Errorf("core: insert edge (%d,%d): %w", u, v, err)
	}
	return dd.finish(e)
}

// DeleteEdge handles case (i): deleting a back edge leaves the tree
// unchanged; deleting tree edge (parent u, child v) reroots T(v) at the
// inside endpoint of the deepest edge from T(v) to path(u, root of u's
// component), or hangs T(v) under the pseudo root if the component split.
func (dd *DynamicDFS) DeleteEdge(u, v int) error {
	dd.lastDelta = nil // re-established by installTree on success
	// The graph validates the endpoints; only then may the tree be read.
	ng, err := dd.g.DeleteEdge(u, v)
	if err != nil {
		return err
	}
	isTree := dd.t.Parent[v] == u || dd.t.Parent[u] == v
	dd.g = ng
	dd.d.PatchDeleteEdge(u, v)
	if !isTree {
		// Back edge: no restructuring — D just absorbs the edge patch.
		dd.lastStats = reroot.Stats{}
		dd.installTree(dd.t, nil, nil, true)
		return nil
	}
	if dd.t.Parent[u] == v {
		u, v = v, u // orient: u = parent
	}
	e := dd.engine()
	if inside, on, ok := dd.lowestEdgeToPath(v, u, dd.compRoot(u)); ok {
		if err := dd.reroot(e, v, inside, on); err != nil {
			return fmt.Errorf("core: delete edge (%d,%d): %w", u, v, err)
		}
	} else {
		// T(v) became its own component: hang it under the pseudo root
		// unchanged (a DFS tree of the split-off component).
		e.SetParent(v, dd.pseudo)
	}
	return dd.finish(e)
}

// DeleteVertex handles case (iii): every child subtree T(v_i) of the
// deleted vertex u is independently rerooted via its deepest edge to
// path(parent(u), component root), or becomes a new component.
func (dd *DynamicDFS) DeleteVertex(u int) error {
	dd.lastDelta = nil // re-established by installTree on success
	if !dd.g.IsVertex(u) {
		return fmt.Errorf("core: delete of non-vertex %d", u)
	}
	neighbors := dd.g.SortedNeighbors(u)
	ng, err := dd.g.DeleteVertex(u)
	if err != nil {
		return err
	}
	dd.g = ng
	dd.d.PatchDeleteVertex(u, neighbors)
	pu := dd.t.Parent[u]
	children := dd.t.Children(u)
	e := dd.engine()
	e.SetParent(u, tree.None)
	if pu == dd.pseudo {
		// u was a component root: no path above to reattach through.
		for _, vi := range children {
			e.SetParent(vi, dd.pseudo)
		}
		return dd.finish(e)
	}
	// The per-child deepest-edge queries share one path and are independent
	// of each other and of the reroots they feed: one batch.
	answers := dd.lowestEdgesToPath(children, pu, dd.compRoot(pu))
	for i, vi := range children {
		if answers[i].OK {
			if err := dd.reroot(e, vi, answers[i].Hit.U, answers[i].Hit.Z); err != nil {
				return fmt.Errorf("core: delete vertex %d (subtree %d): %w", u, vi, err)
			}
		} else {
			e.SetParent(vi, dd.pseudo)
		}
	}
	return dd.finish(e)
}

// InsertVertex handles case (iv): the new vertex u becomes a child of one
// neighbor v_j; every other neighbor v_i outside path(v_j, root) pulls its
// hanging subtree T(v'_i) to be rerooted at v_i and hung from u. Multiple
// neighbors in the same hanging subtree share one reroot (the extra edges
// become back edges).
func (dd *DynamicDFS) InsertVertex(neighbors []int) (int, error) {
	dd.lastDelta = nil // re-established by installTree on success
	if dd.g.NumVertexSlots()+1 >= dd.pseudo {
		// The next ID would collide with the pseudo root. In fully dynamic
		// mode D is rebuilt per update anyway, so relocate the pseudo root
		// with doubled headroom; in fault tolerant mode D is pinned to the
		// original numbering, so this is an error.
		if !dd.rebuildD {
			return -1, fmt.Errorf("core: vertex headroom exhausted (pseudo %d); preprocess with larger Options.Headroom", dd.pseudo)
		}
		dd.relocatePseudo()
	}
	ng, u, err := dd.g.InsertVertex(neighbors)
	if err != nil {
		return -1, err
	}
	dd.g = ng
	dd.d.PatchInsertVertex(u, neighbors)
	e := dd.engine()
	if len(neighbors) == 0 {
		e.SetParent(u, dd.pseudo)
		return u, dd.finish(e)
	}
	// Arbitrary choice of v_j: the shallowest neighbor, which minimizes the
	// number of hanging subtrees to reroot.
	vj := neighbors[0]
	for _, v := range neighbors[1:] {
		if dd.t.Level(v) < dd.t.Level(vj) {
			vj = v
		}
	}
	e.SetParent(u, vj)
	// Group remaining neighbors by their hanging subtree off path(vj,root).
	seen := make(map[int]bool)
	for _, vi := range neighbors {
		if vi == vj {
			continue
		}
		a := dd.l.LCA(vi, vj)
		if a == vi {
			continue // vi on path(vj, root): (u, vi) is a back edge
		}
		vPrime := dd.t.ChildToward(a, vi)
		if seen[vPrime] {
			continue // same subtree already rerooted; extra edge is a back edge
		}
		seen[vPrime] = true
		if err := dd.reroot(e, vPrime, vi, u); err != nil {
			return -1, fmt.Errorf("core: insert vertex (neighbor %d): %w", vi, err)
		}
	}
	return u, dd.finish(e)
}
