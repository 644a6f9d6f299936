package main

import (
	"fmt"
	"math/rand"

	dfs "repro"
)

// tenant is one generated graph: its ID, vertex count and initial edges.
type tenant struct {
	id    dfs.GraphID
	n     int
	g     *dfs.Graph
	edges []dfs.Edge
}

// genTenants generates count GnpConnected graphs of n vertices and the
// given average degree.
func genTenants(prefix string, count, n int, degree float64, rng *rand.Rand) []tenant {
	// GnpConnected is a random spanning tree (degree 2(n-1)/n) plus G(n,p).
	p := (degree - 2*float64(n-1)/float64(n)) / float64(n-1)
	out := make([]tenant, count)
	for i := range out {
		g := dfs.GnpConnected(n, p, rng)
		out[i] = tenant{id: dfs.GraphID(fmt.Sprintf("%s-%03d", prefix, i)), n: n, g: g, edges: g.Edges()}
	}
	return out
}

func edgeKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// mirror is the generator's own copy of one tenant's edge set: a
// swap-delete edge slice plus its index, so a uniform edge is an O(1) pick
// and a uniform non-edge an O(1) expected pick by rejection sampling.
type mirror struct {
	n        int
	edges    []uint64
	pos      map[uint64]int
	inserted bool // the last update picked was an insertion
}

func newMirror(t tenant) *mirror {
	m := &mirror{n: t.n, edges: make([]uint64, 0, len(t.edges)), pos: make(map[uint64]int, len(t.edges))}
	for _, e := range t.edges {
		m.add(edgeKey(e.U, e.V))
	}
	return m
}

func (m *mirror) add(k uint64) {
	m.pos[k] = len(m.edges)
	m.edges = append(m.edges, k)
}

func (m *mirror) remove(k uint64) {
	i := m.pos[k]
	last := m.edges[len(m.edges)-1]
	m.edges[i] = last
	m.pos[last] = i
	m.edges = m.edges[:len(m.edges)-1]
	delete(m.pos, k)
}

// next picks the next update and applies it to the mirror: in turn the
// insertion of a uniformly random non-edge and the deletion of a uniformly
// random edge, so the stream is exactly half of each kind and the edge
// count stays put. The graphs stay sparse, so rejection sampling finds a
// non-edge within a few draws.
func (m *mirror) next(rng *rand.Rand) dfs.Update {
	m.inserted = !m.inserted
	if len(m.edges) == 0 || m.inserted {
		for {
			u, v := rng.Intn(m.n), rng.Intn(m.n)
			if k := edgeKey(u, v); u != v && !m.has(k) {
				m.add(k)
				return dfs.Update{Kind: dfs.InsertEdge, U: u, V: v}
			}
		}
	}
	k := m.edges[rng.Intn(len(m.edges))]
	m.remove(k)
	return dfs.Update{Kind: dfs.DeleteEdge, U: int(k >> 32), V: int(k & 0xffffffff)}
}

func (m *mirror) has(k uint64) bool {
	_, ok := m.pos[k]
	return ok
}

// item is one update of a multi-tenant stream.
type item struct {
	t int
	u dfs.Update
}

// genStream pre-generates count updates over the tenants, choosing each
// update's tenant with pick.
func genStream(ts []tenant, count int, pick func() int, rng *rand.Rand) []item {
	ms := make([]*mirror, len(ts))
	for i, t := range ts {
		ms[i] = newMirror(t)
	}
	out := make([]item, count)
	for i := range out {
		t := pick()
		out[i] = item{t: t, u: ms[t].next(rng)}
	}
	return out
}

// expectedEdges replays the first issued stream updates onto fresh
// mirrors, independently of the service, and returns each tenant's edge
// set: the state every tenant's final snapshot must hold.
func expectedEdges(ts []tenant, stream []item) []map[uint64]bool {
	out := make([]map[uint64]bool, len(ts))
	for i, t := range ts {
		out[i] = make(map[uint64]bool, len(t.edges))
		for _, e := range t.edges {
			out[i][edgeKey(e.U, e.V)] = true
		}
	}
	for _, it := range stream {
		k := edgeKey(it.u.U, it.u.V)
		if it.u.Kind == dfs.InsertEdge {
			out[it.t][k] = true
		} else {
			delete(out[it.t], k)
		}
	}
	return out
}

// readOp is one pre-generated read: a tenant, two vertices and a small
// ancestor distance.
type readOp struct {
	t, u, v, k int
}

// genReads pre-generates count reads, choosing each read's tenant with
// pick and its vertices uniformly.
func genReads(ts []tenant, count int, pick func() int, rng *rand.Rand) []readOp {
	out := make([]readOp, count)
	for i := range out {
		t := pick()
		n := ts[t].n
		out[i] = readOp{t: t, u: rng.Intn(n), v: rng.Intn(n), k: 1 + rng.Intn(16)}
	}
	return out
}

// uniform picks tenants uniformly.
func uniform(n int, rng *rand.Rand) func() int {
	return func() int { return rng.Intn(n) }
}
