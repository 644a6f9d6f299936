package dstruct

// Query evaluation. A "walk" is the explicit vertex sequence of a path that
// was just attached to the partially built DFS tree T*: walk[0] is the
// attachment end (shallowest in T*), walk[len-1] the deepest. The paper's
// "lowest edge on the path" is the hit with maximum ZPos; "highest" is
// minimum ZPos.
//
// Before any source is searched, the walk is split into maximal runs that
// are monotone ancestor-descendant paths of the *base* tree T (Section
// 5.2's reduction of queries on T*_i paths to queries on T paths). In fully
// dynamic mode the engine's walks are already T-paths, giving O(1) runs; in
// fault tolerant mode a walk decomposes into the O(log^{2(i-1)} n)
// fragments of Theorem 9. The split is an O(|walk|) scan, so it happens
// once per distinct walk of a batch, not once per query: EdgeToWalkBatch
// builds each walk's view (walkEval) up front, a single EdgeToWalk call
// builds its own, and the shards evaluating queries only read the views.
//
// Execution vs accounting: a batch of independent queries is *charged* by
// the caller as one O(log n)-depth EREW step over k total sources (Theorems
// 6 and 8) — this file never touches the machine's counters. What the
// machine provides here is its worker pool: large source sets are sharded
// across workers (each shard keeping a private best Hit and private Stats),
// then reduced under the same order — (extremal ZPos, then smallest U) —
// the serial scan uses, so results are bit-identical to serial evaluation.

// parallelSourceCutoff is the source-set size below which a query is
// evaluated serially; under it the goroutine fan-out costs more than the
// per-source binary searches it parallelizes.
const parallelSourceCutoff = 256

// run is a maximal T-monotone fragment of a walk.
type run struct {
	lo, hi int  // walk index range [lo, hi]
	desc   bool // true if walk[lo] is the T-ancestor (walk descends in T)
	patch  bool // singleton run at a patch vertex (no base numbering)
}

// splitRuns decomposes walk into runs. Exported for tests via SplitRunCount.
func (d *D) splitRuns(walk []int) []run {
	var runs []run
	i := 0
	for i < len(walk) {
		if !d.hasBaseNumbering(walk[i]) {
			runs = append(runs, run{lo: i, hi: i, patch: true})
			i++
			continue
		}
		j := i
		var desc, have bool
		for j+1 < len(walk) && d.hasBaseNumbering(walk[j+1]) {
			a, b := walk[j], walk[j+1]
			var stepDesc bool
			switch {
			case d.T.Parent[b] == a:
				stepDesc = true
			case d.T.Parent[a] == b:
				stepDesc = false
			default:
				goto done
			}
			if have && stepDesc != desc {
				goto done
			}
			desc, have = stepDesc, true
			j++
		}
	done:
		runs = append(runs, run{lo: i, hi: j, desc: desc})
		i = j + 1
	}
	return runs
}

// SplitRunCount returns the number of base-tree fragments the walk
// decomposes into (the paper's fragment count; 1 in fully dynamic mode).
func (d *D) SplitRunCount(walk []int) int { return len(d.splitRuns(walk)) }

func (r run) top(walk []int) int {
	if r.desc {
		return walk[r.lo]
	}
	return walk[r.hi]
}

func (r run) bot(walk []int) int {
	if r.desc {
		return walk[r.hi]
	}
	return walk[r.lo]
}

// zPos maps a tree vertex z known to lie on the run back to its walk index.
func (d *D) zPos(r run, walk []int, z int) int {
	top := r.top(walk)
	depth := d.T.Level(z) - d.T.Level(top)
	if r.desc {
		return r.lo + depth
	}
	return r.hi - depth
}

// walkEval is a walk's evaluation view: its base-tree run decomposition,
// plus a walk-position index once a source-sharded scan has needed one.
// Views are read-only while shards run: a source-sharded scan precomputes
// the index before fanning out (building it lazily inside workers would
// race), its O(|walk|) cost amortized over the large source set that
// triggered sharding. Scans without the index build a goroutine-local one
// lazily, only when a patch edge is actually encountered, so unpatched
// queries pay nothing.
type walkEval struct {
	walk []int
	runs []run
	pos  map[int]int // shared read-only index; nil until a sharded scan needs it
}

func (d *D) newWalkEval(walk []int) *walkEval {
	return &walkEval{walk: walk, runs: d.splitRuns(walk)}
}

// count records one query on the view in st. WalkQueries and RunsSplit
// count queries, not splits, so a batch records what its queries issued
// one by one would.
func (ev *walkEval) count(st *Stats) {
	st.WalkQueries++
	st.RunsSplit += int64(len(ev.runs))
}

// ensureSharedPos precomputes the walk-position index for a sharded
// evaluation. Only inserted-edge patches consume walk positions, so a D
// without them never builds the index.
func (d *D) ensureSharedPos(ev *walkEval) {
	if ev.pos == nil && len(d.inserted) > 0 {
		ev.pos = make(map[int]int, len(ev.walk))
		for i, v := range ev.walk {
			ev.pos[v] = i
		}
	}
}

// posLookup resolves walk positions for patch-edge hits: through the
// view's shared index when present, else through a private map built on
// first use.
type posLookup struct {
	ev    *walkEval
	local map[int]int
}

func (p *posLookup) of(z int) (int, bool) {
	m := p.ev.pos
	if m == nil {
		if p.local == nil {
			p.local = make(map[int]int, len(p.ev.walk))
			for i, v := range p.ev.walk {
				p.local[v] = i
			}
		}
		m = p.local
	}
	i, ok := m[z]
	return i, ok
}

// parallelOver reports whether a scan over k sources should use the worker
// pool.
func (d *D) parallelOver(k int) bool {
	return d.mach != nil && d.mach.Workers() > 1 && k >= parallelSourceCutoff
}

// better reports whether hit a beats hit b under the documented order:
// extremal ZPos first (max when fromEnd, min otherwise), smallest U on ties.
func better(a, b Hit, fromEnd bool) bool {
	if a.ZPos != b.ZPos {
		if fromEnd {
			return a.ZPos > b.ZPos
		}
		return a.ZPos < b.ZPos
	}
	return a.U < b.U
}

// EdgeToWalk finds a graph edge from the source vertex set to the walk.
// If fromEnd, it returns the hit with maximum ZPos (the paper's lowest
// edge); otherwise minimum ZPos (highest edge). Sources must be disjoint
// from the walk. Ties between sources resolve to the smallest U.
//
// st receives the call's search-effort counters; nil discards them. D is
// never mutated, so concurrent calls with distinct accumulators are safe.
func (d *D) EdgeToWalk(sources []int, walk []int, fromEnd bool, st *Stats) (Hit, bool) {
	if len(sources) == 0 || len(walk) == 0 {
		return Hit{}, false
	}
	if st == nil {
		st = new(Stats)
	}
	ev := d.newWalkEval(walk)
	ev.count(st)
	return d.edgeToWalk(sources, fromEnd, ev, st)
}

func (d *D) edgeToWalk(sources []int, fromEnd bool, ev *walkEval, st *Stats) (Hit, bool) {
	if !d.parallelOver(len(sources)) {
		return d.edgeToWalkSerial(sources, fromEnd, ev, st)
	}
	// Shard the source set over the worker pool: each shard reduces to its
	// private best, then the shards are reduced under the same order. The
	// order is total on the reachable hits (a walk's vertices are distinct,
	// so ZPos determines Z), hence the result is independent of the split.
	type shardBest struct {
		h  Hit
		ok bool
	}
	d.ensureSharedPos(ev)
	w := d.mach.Workers()
	bests := make([]shardBest, w)
	stats := make([]Stats, w)
	d.mach.ExecSharded(len(sources), func(s, lo, hi int) {
		h, ok := d.edgeToWalkSerial(sources[lo:hi], fromEnd, ev, &stats[s])
		bests[s] = shardBest{h: h, ok: ok}
	})
	best := Hit{ZPos: -1}
	have := false
	for _, b := range bests {
		if b.ok && (!have || better(b.h, best, fromEnd)) {
			best, have = b.h, true
		}
	}
	for i := range stats {
		st.Add(stats[i])
	}
	return best, have
}

// edgeToWalkSerial is the one-goroutine scan over sources; st receives the
// search-effort counters (a private shard accumulator under parallelism).
func (d *D) edgeToWalkSerial(sources []int, fromEnd bool, ev *walkEval, st *Stats) (Hit, bool) {
	pl := posLookup{ev: ev}
	best := Hit{ZPos: -1}
	have := false
	for _, u := range sources {
		if h, ok := d.bestFromVertex(u, fromEnd, &pl, st); ok {
			if !have || better(h, best, fromEnd) {
				best, have = h, true
			}
		}
	}
	return best, have
}

// EdgeToWalkBySource returns, for each source in order, whether it has any
// edge to the walk, stopping at the first source that does (used by the
// heavy-subtree traversal's "deepest hang point" selection, where the pick
// is by source priority rather than walk position). The returned hit uses
// the source's best walk position under fromEnd. st is the per-call Stats
// accumulator (nil discards).
func (d *D) EdgeToWalkBySource(sources []int, walk []int, fromEnd bool, st *Stats) (Hit, bool) {
	if len(walk) == 0 {
		return Hit{}, false
	}
	if st == nil {
		st = new(Stats)
	}
	ev := d.newWalkEval(walk)
	ev.count(st)
	return d.edgeToWalkBySource(sources, fromEnd, ev, st)
}

func (d *D) edgeToWalkBySource(sources []int, fromEnd bool, ev *walkEval, st *Stats) (Hit, bool) {
	if !d.parallelOver(len(sources)) {
		return d.bySourceSerial(sources, fromEnd, ev, st)
	}
	// Per shard: the first source (lowest index) with a hit; reduce to the
	// lowest-index shard with one. Identical to the serial early-exit scan —
	// every source is evaluated independently — except that later sources
	// are also examined, so Stats records more search effort.
	type shardFirst struct {
		h  Hit
		ok bool
	}
	d.ensureSharedPos(ev)
	w := d.mach.Workers()
	firsts := make([]shardFirst, w)
	stats := make([]Stats, w)
	d.mach.ExecSharded(len(sources), func(s, lo, hi int) {
		h, ok := d.bySourceSerial(sources[lo:hi], fromEnd, ev, &stats[s])
		firsts[s] = shardFirst{h: h, ok: ok}
	})
	for i := range stats {
		st.Add(stats[i])
	}
	for _, f := range firsts {
		if f.ok {
			return f.h, true
		}
	}
	return Hit{}, false
}

// bySourceSerial is the one-goroutine first-hit scan in source order, the
// BySource counterpart of edgeToWalkSerial.
func (d *D) bySourceSerial(sources []int, fromEnd bool, ev *walkEval, st *Stats) (Hit, bool) {
	pl := posLookup{ev: ev}
	for _, u := range sources {
		if h, ok := d.bestFromVertex(u, fromEnd, &pl, st); ok {
			return h, true
		}
	}
	return Hit{}, false
}

// HasEdgeToWalk reports whether any source has an edge to the walk. st is
// the per-call Stats accumulator (nil discards).
func (d *D) HasEdgeToWalk(sources []int, walk []int, st *Stats) bool {
	_, ok := d.EdgeToWalk(sources, walk, true, st)
	return ok
}

// WalkQuery is one query of a batch: the paper's rounds issue many
// independent (source set, walk) queries at once (Theorems 6 and 8).
// BySource selects EdgeToWalkBySource semantics instead of EdgeToWalk.
type WalkQuery struct {
	Sources  []int
	Walk     []int
	FromEnd  bool
	BySource bool
}

// empty reports whether q answers "no hit" without evaluation or counting:
// an empty walk, or EdgeToWalk semantics with no sources.
func (q WalkQuery) empty() bool {
	return len(q.Walk) == 0 || (!q.BySource && len(q.Sources) == 0)
}

// WalkAnswer is the result of one WalkQuery.
type WalkAnswer struct {
	Hit Hit
	OK  bool
}

// walkKey identifies a walk by its backing slice: first-element address
// and length. Walks are not written during a batch, so equal keys mean
// equal vertex sequences; a prefix of the same array differs in length
// and gets its own view.
type walkKey struct {
	first *int
	n     int
}

// batchViews returns the evaluation view of each query's walk, building
// one view per distinct walk; empty queries get nil.
func (d *D) batchViews(qs []WalkQuery) []*walkEval {
	evs := make([]*walkEval, len(qs))
	seen := make(map[walkKey]*walkEval)
	for i, q := range qs {
		if q.empty() {
			continue
		}
		k := walkKey{&q.Walk[0], len(q.Walk)}
		ev := seen[k]
		if ev == nil {
			ev = d.newWalkEval(q.Walk)
			seen[k] = ev
		}
		evs[i] = ev
	}
	return evs
}

// EdgeToWalkBatch answers a batch of independent queries, equivalent to
// issuing them one by one in order. Each distinct walk is split into runs
// once, up front, and its view is shared by every query on it. Batches
// with at least as many queries as workers are then distributed across the
// worker pool (each query evaluated serially within its worker); smaller
// batches — where sharding by query would leave workers idle — run
// query-by-query, each parallelizing over its own source set. Callers
// account the batch's model cost analytically (one O(log n)-depth step);
// this method charges nothing. st is the per-call Stats accumulator (nil
// discards).
func (d *D) EdgeToWalkBatch(qs []WalkQuery, st *Stats) []WalkAnswer {
	out := make([]WalkAnswer, len(qs))
	if len(qs) == 0 {
		return out
	}
	if st == nil {
		st = new(Stats)
	}
	evs := d.batchViews(qs)
	if d.mach == nil || d.mach.Workers() == 1 || len(qs) < d.mach.Workers() {
		for i, q := range qs {
			ev := evs[i]
			if ev == nil {
				continue
			}
			ev.count(st)
			if q.BySource {
				out[i].Hit, out[i].OK = d.edgeToWalkBySource(q.Sources, q.FromEnd, ev, st)
			} else {
				out[i].Hit, out[i].OK = d.edgeToWalk(q.Sources, q.FromEnd, ev, st)
			}
		}
		return out
	}
	w := d.mach.Workers()
	stats := make([]Stats, w)
	d.mach.ExecSharded(len(qs), func(s, lo, hi int) {
		sst := &stats[s]
		for i := lo; i < hi; i++ {
			q, ev := qs[i], evs[i]
			if ev == nil {
				continue
			}
			ev.count(sst)
			if q.BySource {
				out[i].Hit, out[i].OK = d.bySourceSerial(q.Sources, q.FromEnd, ev, sst)
			} else {
				out[i].Hit, out[i].OK = d.edgeToWalkSerial(q.Sources, q.FromEnd, ev, sst)
			}
		}
	})
	for i := range stats {
		st.Add(stats[i])
	}
	return out
}

// bestFromVertex finds u's best hit across all runs of pl's walk plus
// patch edges.
func (d *D) bestFromVertex(u int, fromEnd bool, pl *posLookup, st *Stats) (Hit, bool) {
	walk := pl.ev.walk
	best := Hit{ZPos: -1}
	have := false
	take := func(h Hit) {
		if !have || (fromEnd && h.ZPos > best.ZPos) || (!fromEnd && h.ZPos < best.ZPos) {
			best, have = h, true
		}
	}
	if d.hasBaseNumbering(u) {
		for _, r := range pl.ev.runs {
			if r.patch {
				continue
			}
			if z, ok := d.searchRun(u, r, walk, fromEnd, st); ok {
				take(Hit{U: u, Z: z, ZPos: d.zPos(r, walk, z)})
			}
		}
	}
	// Patch edges from u (inserted after Build): position via the walk index.
	for _, z := range d.inserted[u] {
		st.PatchScans++
		if p, ok := pl.of(z); ok {
			take(Hit{U: u, Z: z, ZPos: p})
		}
	}
	return best, have
}

// searchRun finds u's extremal base-graph neighbor on the run, preferring
// the walk-end side when fromEnd. Returns the neighbor z.
func (d *D) searchRun(u int, r run, walk []int, fromEnd bool, st *Stats) (int, bool) {
	t := d.T
	top, bot := r.top(walk), r.bot(walk)
	// wantTreeHigh: do we want the hit nearest the run's tree-top?
	// fromEnd means "nearest walk[hi]"; for a descending run walk[hi] is the
	// tree-bottom, for an ascending run it is the tree-top.
	wantTreeHigh := fromEnd != r.desc

	switch {
	case t.IsAncestor(top, u):
		// Case A: u below the run's top; its neighbors on the run are
		// exactly its ancestors with key in [key(l), key(top)],
		// l = LCA(u, bot).
		st.Searches++
		l := d.LCA.LCA(u, bot)
		return d.scanRange(u, d.key[l], d.key[top], wantTreeHigh, nil, st)
	case t.IsAncestor(u, top):
		// Case B (multi-update mode only): u is an ancestor of the whole
		// run; candidates are descendants with key in [key(bot),
		// key(top)], filtered to the run's chain.
		st.Searches++
		st.CaseB++
		onRun := func(z int) bool {
			return t.IsAncestor(top, z) && t.IsAncestor(z, bot)
		}
		return d.scanRange(u, d.key[bot], d.key[top], wantTreeHigh, onRun, st)
	default:
		// Incomparable: a base-graph edge would be a cross edge of T —
		// impossible.
		return 0, false
	}
}

// scanRange searches nbr[u] within order-key range [lokey, hikey].
// Entries nearer the tree-top have larger keys, so wantTreeHigh scans from
// the high end. filter (may be nil) restricts to run membership; deleted
// edges are skipped.
func (d *D) scanRange(u, lokey, hikey int, wantTreeHigh bool, filter func(int) bool, st *Stats) (int, bool) {
	row := d.nbr[u]
	lo := lowerBound(row, lokey, d.key) // first index with key >= lokey
	hi := upperBound(row, hikey, d.key) // first index with key > hikey
	if wantTreeHigh {
		for i := hi - 1; i >= lo; i-- {
			st.ScanSteps++
			z := int(row[i])
			if (filter == nil || filter(z)) && !d.edgeDeleted(u, z) {
				return z, true
			}
		}
	} else {
		for i := lo; i < hi; i++ {
			st.ScanSteps++
			z := int(row[i])
			if (filter == nil || filter(z)) && !d.edgeDeleted(u, z) {
				return z, true
			}
		}
	}
	return 0, false
}

func lowerBound(row []int32, k int, key []int) int {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if key[row[mid]] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func upperBound(row []int32, k int, key []int) int {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if key[row[mid]] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
