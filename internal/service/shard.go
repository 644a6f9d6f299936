package service

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pram"
	"repro/internal/snapquery"
	"repro/internal/wal"
)

type taskKind int

const (
	taskCreate taskKind = iota
	taskDrop
	taskBatch // one round of updates: Apply submits one entry, ApplyBatch one task per shard
	taskCheck // run the D/graph/tree sync oracle on the shard loop
	taskFunc  // run an arbitrary closure on the shard loop (migration steps, tests)
)

// maxForwardHops caps how many times a task can be rerouted after racing
// migration flips before it fails instead of bouncing forever.
const maxForwardHops = 16

// task is one mailbox message. Exactly one of the payload fields is set,
// per kind; fut is always non-nil for create/drop/check, and batch entries
// carry their own futures. A one-entry batch task split off a round to be
// forwarded or parked alone also carries its entry's graph in id and its
// future in fut.
type task struct {
	kind     taskKind
	id       GraphID
	g        *graph.Graph // create: initial graph (cloned by the maintainer)
	entries  []batchEntry // batch
	fn       func()       // func (migration protocol steps; tests: wedge or probe the loop)
	fut      *Future
	hops     int       // times forwarded across shards after a migration flip
	enqueued time.Time // stamped by submit; mailbox wait = receive - enqueued
}

type batchEntry struct {
	id  GraphID
	upd core.Update
	fut *Future
}

// graphState is one tenant graph on a shard: the maintainer (touched only
// by the shard goroutine) and the atomically published snapshot (read by
// everyone).
type graphState struct {
	dd   *core.DynamicDFS
	snap atomic.Pointer[Snapshot]

	// meter is the graph's cumulative cost attribution (updates, stage
	// nanos, WAL bytes, index work). Created with the graphState and never
	// nil; the shard loop writes the update-path fields, reader goroutines
	// the index fields, and Metrics/TenantMetrics sample it lock-free.
	meter *obs.TenantMeter

	// Pending tree delta accumulated since the last publish (shard loop
	// only). A batch round applies several updates before publishing once,
	// so the per-update core deltas are unioned here; any update without a
	// usable delta (relocation, error recovery) poisons the round and the
	// next snapshot ships without one.
	pendMoved   []int
	pendRemoved []int
	pendSame    bool
	pendInvalid bool
	pendCount   int

	// Migration freeze state (shard loop only). While migrating is set the
	// graph's tasks are parked in deferred instead of being applied — the
	// maintainer must not advance past the checkpoint the migration pinned.
	// The coordinator replays deferred on the destination after the route
	// flips (or back here on abort), preserving submission order.
	migrating bool
	deferred  []task

	// Round accounting (shard loop only): the entries of the running update
	// round that applied and logged, and the graph's one publish time in
	// that round, which those entries' traces share (see runRound).
	roundOK  int
	roundPub time.Duration
}

// absorb folds one applied update's delta into the pending set.
func (gs *graphState) absorb(d *core.Delta) {
	if gs.pendCount == 0 {
		gs.pendSame = true
	}
	gs.pendCount++
	if d == nil {
		gs.pendInvalid = true
		return
	}
	if !d.SameTree {
		gs.pendSame = false
	}
	gs.pendMoved = append(gs.pendMoved, d.Moved...)
	gs.pendRemoved = append(gs.pendRemoved, d.Removed...)
}

// invalidatePending poisons the pending delta: called when an update was
// rejected, because some rejection paths mutate state the delta cannot
// account for (e.g. the in-place error recovery renumbers the whole tree).
func (gs *graphState) invalidatePending() {
	gs.pendCount++
	gs.pendInvalid = true
}

// shard owns a set of graphs, the goroutine that applies their updates, and
// the pram.Machine whose worker pool and merged depth/work accounting all
// of them share.
type shard struct {
	// svc points back to the owning Service for routing decisions (straggler
	// forwarding after a migration flip, durable route removal on drop). nil
	// in tests that construct bare shards.
	svc     *Service
	idx     int
	mach    *pram.Machine
	mailbox chan task

	// submitMu serializes submissions against Close: senders hold the read
	// lock, Close flips closed and closes the mailbox under the write lock,
	// so no send can race the close.
	submitMu sync.RWMutex
	closed   bool

	// mu guards the graphs map structure (the shard loop writes on
	// create/drop; readers resolve IDs under the read lock).
	mu     sync.RWMutex
	graphs map[GraphID]*graphState

	// qcache retains the derived query indexes (snapquery bundles) of the
	// shard's recently queried snapshot versions. Read-side only: the
	// update loop never touches it except to purge dropped graphs.
	qcache *snapquery.Cache

	updates  atomic.Uint64 // successfully applied updates
	rejected atomic.Uint64 // updates rejected by the maintainer
	started  time.Time

	// queueHWM is the deepest the mailbox has been since the last sampler
	// tick (submitters CAS it up after every send), so queue spikes between
	// ticks are visible; only the sampler reads and resets it, per window,
	// so Metrics callers never consume each other's windows.
	queueHWM atomic.Int64

	// hot ranks the shard's graphs by cumulative apply cost (nanoseconds)
	// with bounded memory; the shard loop is the only Observe caller.
	hot *obs.SpaceSaving

	// series is the shard's sampled counter history (see seriesFields): the
	// background sampler appends one point per tick, Metrics and the
	// history endpoint read it. prevApply/prevWALSync are the sampler's
	// previous cumulative histogram snapshots for windowed percentiles,
	// touched only under the service's sample lock.
	series      *obs.SeriesRing
	prevApply   obs.HistSnapshot
	prevWALSync obs.HistSnapshot

	// Latency distributions of the shard's write path (lock-free; recorded
	// by the shard loop, sampled by Metrics and the debug endpoint):
	// maintainer apply time per update, snapshot publish time per
	// publication, mailbox wait per task, and entries per batch round.
	applyHist   obs.Histogram
	waitHist    obs.Histogram
	publishHist obs.Histogram
	batchHist   obs.Histogram

	// stageNanos accumulates per-stage wall-clock across every applied
	// update, indexed like obs.StageNames; slow retains the slowest-K
	// update traces for inspection.
	stageNanos [5]atomic.Int64
	slow       *obs.SlowRing

	// roundRes and roundTouched are runRound's reusable scratch: the
	// admitted entries, and the index of each touched graph's first one.
	roundRes     []roundEntry
	roundTouched []int

	// migrationsIn/Out count graphs this shard received from / handed to
	// another shard through completed migrations.
	migrationsIn  atomic.Uint64
	migrationsOut atomic.Uint64

	// w is the shard's durability state; nil when the service runs without
	// a write-ahead log. stopped flips when the goroutine exits, so a
	// deadline-bounded shutdown can report which shards are still running.
	w       *shardWAL
	stopped atomic.Bool
}

// submit enqueues t unless the shard is closed. It blocks while the mailbox
// is full (backpressure toward the producer).
func (sh *shard) submit(t task) error {
	sh.submitMu.RLock()
	defer sh.submitMu.RUnlock()
	if sh.closed {
		return ErrClosed
	}
	t.enqueued = time.Now()
	sh.mailbox <- t
	// Raise the sample window's queue high-water mark: a burst that drains
	// before the next sampler tick still leaves its footprint here.
	if d := int64(len(sh.mailbox)); d > sh.queueHWM.Load() {
		for {
			cur := sh.queueHWM.Load()
			if d <= cur || sh.queueHWM.CompareAndSwap(cur, d) {
				break
			}
		}
	}
	return nil
}

// run is the shard's update loop: it drains the mailbox until Close closes
// it, applying every task in submission order. Under WAL the loop is
// bracketed by the recovery prologue (replay the log tail while reads serve
// the checkpoint snapshots) and a closing sync of the log.
func (sh *shard) run(wg *sync.WaitGroup, headroom int) {
	defer wg.Done()
	defer sh.stopped.Store(true)
	if sh.w != nil {
		sh.recoverReplay()
	}
	for t := range sh.mailbox {
		sh.handle(t, headroom)
	}
	// A migration frozen when the service closed leaves parked tasks whose
	// futures nobody will replay: resolve them so their writers never hang.
	sh.mu.RLock()
	for _, gs := range sh.graphs {
		for _, dt := range gs.deferred {
			dt.fut.resolve(-1, nil, ErrClosed)
		}
		gs.deferred = nil
	}
	sh.mu.RUnlock()
	if sh.w != nil {
		sh.w.log.Close()
	}
}

func (sh *shard) lookup(id GraphID) *graphState {
	sh.mu.RLock()
	gs := sh.graphs[id]
	sh.mu.RUnlock()
	return gs
}

// forwardTask reroutes a task that landed here for a graph this shard does
// not hold, when the routing table says another shard owns it — the task
// was submitted against a route that a migration flipped before the
// mailbox drained to it. The forward runs on its own goroutine because a
// shard loop must never block on another shard's (possibly full) mailbox;
// hops caps pathological bouncing under back-to-back migrations. Returns
// false when the task is genuinely for an unknown graph (this shard is the
// routed owner) and the caller should reject it.
func (sh *shard) forwardTask(t task) bool {
	if sh.svc == nil || t.hops >= maxForwardHops {
		return false
	}
	target := sh.svc.shardFor(t.id)
	if target == sh {
		return false
	}
	t.hops++
	go func(t task) {
		if err := target.submit(t); err != nil {
			t.fut.resolve(-1, nil, err)
		}
	}(t)
	return true
}

func (sh *shard) handle(t task, headroom int) {
	switch t.kind {
	case taskCreate:
		if sh.lookup(t.id) != nil {
			t.fut.resolve(-1, nil, fmt.Errorf("service: graph %q: %w", t.id, ErrGraphExists))
			return
		}
		if sh.forwardTask(t) {
			return
		}
		if err := sh.walGate(); err != nil {
			t.fut.resolve(-1, nil, err)
			return
		}
		// Keep the shared machine's model processor budget at the paper's
		// per-instance maximum (m processors) across tenants.
		sh.growProcs(t.g)
		gs := &graphState{meter: &obs.TenantMeter{}, dd: core.New(t.g, core.Options{
			RebuildD: true,
			Headroom: headroom,
			Machine:  sh.mach,
		})}
		if sh.w != nil {
			// A graph exists durably iff its checkpoint does: write the v0
			// checkpoint before acknowledging, so a crash can never have
			// acknowledged a graph that recovery would not restore.
			if err := sh.checkpointGraph(t.id, gs); err != nil {
				t.fut.resolve(-1, nil, fmt.Errorf("service: graph %q: %w", t.id, err))
				return
			}
		}
		snap := sh.publish(t.id, gs)
		sh.mu.Lock()
		sh.graphs[t.id] = gs
		sh.mu.Unlock()
		t.fut.resolve(-1, snap, nil)

	case taskDrop:
		gs := sh.admit(t)
		if gs == nil {
			return
		}
		sh.retire(t.id)
		if sh.svc != nil {
			sh.svc.dropRoute(t.id)
		}
		sh.qcache.DropGraph(string(t.id))
		if w := sh.w; w != nil {
			// Remove the graph durably: delete its checkpoints first, then
			// rotate (re-checkpoint survivors + truncate the log) so its
			// records vanish. A crash between the two steps leaves orphan
			// records that recovery counts and skips; the reverse order
			// could resurrect a dropped graph from checkpoint alone.
			wal.DeleteCheckpoints(w.cfg.Dir, string(t.id))
			if err := sh.checkpointShard(); err != nil {
				t.fut.resolve(-1, gs.snap.Load(), fmt.Errorf("service: graph %q: %w", t.id, err))
				return
			}
		}
		t.fut.resolve(-1, gs.snap.Load(), nil)

	case taskBatch:
		sh.runRound(t)

	case taskCheck:
		if gs := sh.admit(t); gs != nil {
			err := gs.dd.D().CheckSynced(gs.dd.Frozen(), gs.dd.Tree())
			t.fut.resolve(-1, gs.snap.Load(), err)
		}

	case taskFunc:
		t.fn()
		t.fut.resolve(-1, nil, nil)
	}
}

// admit is the one admission step of every graph-addressed task (drop,
// check, each update-round entry). It returns the graph's state when t may
// run now; otherwise t was forwarded, rejected as unknown, parked behind a
// migration freeze, or rejected by the WAL gate with the graph's last
// snapshot, and admit returns nil. Ownership is settled before the gate, so
// a fail-stopped shard still forwards stragglers for graphs it gave away.
func (sh *shard) admit(t task) *graphState {
	gs := sh.lookup(t.id)
	if gs == nil {
		if !sh.forwardTask(t) {
			t.fut.resolve(-1, nil, fmt.Errorf("service: graph %q: %w", t.id, ErrUnknownGraph))
		}
		return nil
	}
	if gs.migrating {
		// The coordinator replays the parked tasks in order once the
		// handoff resolves.
		gs.deferred = append(gs.deferred, t)
		return nil
	}
	if err := sh.walGate(); err != nil {
		t.fut.resolve(-1, gs.snap.Load(), err)
		return nil
	}
	return gs
}

// roundEntry is one admitted entry of an update round, awaiting the
// round's commit and publication.
type roundEntry struct {
	id     GraphID
	gs     *graphState
	fut    *Future
	vertex int
	err    error
	tr     obs.Trace
}

// runRound runs one update round — the only write path for live updates.
// Every entry is admitted and applied in order and appended to the WAL;
// then one group commit covers the round, each touched graph's snapshot is
// published once, and the futures resolve against those round-final
// snapshots (which include their update; later entries of the same round
// may be included too). Apply is a round of one.
func (sh *shard) runRound(t task) {
	sh.batchHist.RecordValue(int64(len(t.entries)))
	// Only the shard goroutine runs rounds, so its scratch is reused.
	res, touched := sh.roundRes[:0], sh.roundTouched[:0]
	applied := 0
	for i := range t.entries {
		en := &t.entries[i]
		// An entry that must chase its graph's new shard or wait out a
		// migration leaves alone, as a round of one.
		gs := sh.admit(task{kind: taskBatch, id: en.id, entries: t.entries[i : i+1 : i+1],
			fut: en.fut, hops: t.hops, enqueued: t.enqueued})
		if gs == nil {
			continue
		}
		res = append(res, roundEntry{id: en.id, gs: gs, fut: en.fut})
		r := &res[len(res)-1]
		r.vertex, r.err = sh.applyTraced(&r.tr, en.id, gs, en.upd, t.enqueued, len(t.entries))
		if r.err != nil {
			sh.rejected.Add(1)
			gs.invalidatePending()
			continue
		}
		r.tr.Seq = sh.updates.Add(1)
		gs.absorb(gs.dd.LastDelta())
		if sh.w != nil {
			if werr := sh.walAppend(en.id, gs, en.upd); werr != nil {
				r.err = fmt.Errorf("service: graph %q: %w", en.id, werr)
				continue
			}
		}
		if gs.roundOK == 0 {
			touched = append(touched, len(res)-1)
		}
		gs.roundOK++
		applied++
	}
	if sh.w != nil && applied > 0 {
		// Group commit: one barrier covers every appended record before any
		// future resolves. On failure nothing publishes — readers must never
		// see an update the log has not made durable — and every
		// otherwise-successful entry resolves with the error. The
		// maintainers have advanced, but no acknowledgment or snapshot
		// exposes it.
		if werr := sh.w.log.Commit(); werr != nil {
			sh.w.fail(werr)
			werr = fmt.Errorf("service: update round: %w", werr)
			for i := range res {
				if res[i].err == nil {
					res[i].err = werr
				}
			}
			for _, i := range touched {
				res[i].gs.roundOK = 0
			}
			touched, applied = touched[:0], 0
		}
	}
	for _, i := range touched {
		p0 := time.Now()
		sh.publish(res[i].id, res[i].gs)
		res[i].gs.roundPub = time.Since(p0)
		sh.publishHist.Record(res[i].gs.roundPub)
	}
	for i := range res {
		r := &res[i]
		snap := r.gs.snap.Load()
		var pub time.Duration
		var version uint64
		if r.err == nil {
			// An even share of the graph's publish time; the last entry takes
			// the rounding remainder, so a round of one carries all of it.
			pub, version = r.gs.roundPub/time.Duration(r.gs.roundOK), snap.Version
			r.gs.roundPub -= pub
			r.gs.roundOK--
		}
		sh.sealTrace(&r.tr, pub, version)
		r.fut.resolve(r.vertex, snap, r.err)
	}
	clear(res)
	sh.roundRes, sh.roundTouched = res[:0], touched[:0]
	if sh.w != nil {
		sh.walRoundEnd(applied)
	}
}

// applyTraced runs one update on gs's maintainer with stage
// instrumentation: it stamps tr with the mailbox wait, threads tr through
// the maintainer (which fills the engine/D-maintenance spans and the
// outcome tags), computes the plan span as the apply remainder, charges the
// update's PRAM depth/work delta, and records the wait/apply histograms.
func (sh *shard) applyTraced(tr *obs.Trace, id GraphID, gs *graphState, u core.Update, enqueued time.Time, batch int) (int, error) {
	recv := time.Now()
	*tr = obs.Trace{
		Graph: string(id),
		Shard: sh.idx,
		Kind:  u.Kind.String(),
		Start: recv,
		Wait:  recv.Sub(enqueued),
		Batch: batch,
	}
	d0, w0 := sh.mach.Depth(), sh.mach.Work()
	gs.dd.SetTrace(tr)
	v, err := gs.dd.Apply(u)
	gs.dd.SetTrace(nil)
	apply := time.Since(recv)
	tr.Depth, tr.Work = sh.mach.Depth()-d0, sh.mach.Work()-w0
	if plan := apply - tr.Engine - tr.DMaint; plan > 0 {
		tr.Plan = plan
	}
	if err != nil {
		tr.Outcome = "rejected"
		tr.Err = err.Error()
	}
	sh.waitHist.Record(tr.Wait)
	sh.applyHist.Record(apply)
	// Charge the update to its tenant (rejected updates included — they did
	// work) and to the shard's hottest-graphs sketch, weighted by apply cost
	// so "hot" means expensive, not merely chatty.
	gs.meter.RecordUpdate(apply, tr.Engine, tr.DMaint, err != nil)
	if apply > 0 {
		sh.hot.Observe(string(id), uint64(apply))
	}
	return v, err
}

// sealTrace finalizes tr (publish span, published version, total), folds
// its stages into the shard's cumulative stage-time breakdown, and offers
// it to the slowest-K ring. Total is defined as the stage sum, so a
// retained trace's stages always account for its whole recorded latency.
func (sh *shard) sealTrace(tr *obs.Trace, publish time.Duration, version uint64) {
	tr.Publish = publish
	tr.Version = version
	tr.Total = tr.StageSum()
	sh.stageNanos[0].Add(int64(tr.Wait))
	sh.stageNanos[1].Add(int64(tr.Plan))
	sh.stageNanos[2].Add(int64(tr.Engine))
	sh.stageNanos[3].Add(int64(tr.DMaint))
	sh.stageNanos[4].Add(int64(tr.Publish))
	sh.slow.Offer(tr)
}

// publish freezes gs's current state into a new immutable snapshot and
// installs it. Both the graph (a persistent copy-on-write version) and the
// tree (persistent; ReuseTree off) are shared zero-copy, so publication is
// O(1) plus O(Δ) for stamping the pending tree delta: a pointer grab per
// structure, one small Snapshot allocation, and a sort of the moved set —
// no per-vertex or per-edge work regardless of graph size.
func (sh *shard) publish(id GraphID, gs *graphState) *Snapshot {
	dd := gs.dd
	prev := gs.snap.Load()
	var delta *Delta
	if prev != nil && gs.pendCount > 0 && !gs.pendInvalid {
		delta = &Delta{
			Parent:     prev.Version,
			ParentTree: prev.Tree,
			Moved:      dedupSorted(gs.pendMoved),
			Removed:    dedupSorted(gs.pendRemoved),
			SameTree:   gs.pendSame,
		}
	}
	gs.pendMoved = gs.pendMoved[:0]
	gs.pendRemoved = gs.pendRemoved[:0]
	gs.pendSame, gs.pendInvalid, gs.pendCount = false, false, 0
	snap := &Snapshot{
		ID:          id,
		Version:     uint64(dd.Updates()),
		Graph:       dd.Frozen(),
		Tree:        dd.Tree(),
		PseudoRoot:  dd.PseudoRoot(),
		Delta:       delta,
		LastStats:   dd.LastStats(),
		QueryStats:  dd.QueryStats(),
		PublishedAt: time.Now(),
	}
	gs.snap.Store(snap)
	return snap
}

// dedupSorted returns a fresh ascending, duplicate-free copy of s (nil when
// empty), so published deltas never alias the reusable pending buffers.
func dedupSorted(s []int) []int {
	if len(s) == 0 {
		return nil
	}
	out := slices.Clone(s)
	slices.Sort(out)
	return slices.Compact(out)
}

// queryHandle resolves snap's version-pinned analytics handle through the
// shard's index cache (shared by all readers of that version), forwarding
// the snapshot's parent delta so a first query on a new version patches the
// parent's indexes when that version is still cached.
func (sh *shard) queryHandle(snap *Snapshot) *snapquery.Handle {
	key := snapquery.Key{Graph: string(snap.ID), Version: snap.Version}
	if d := snap.Delta; d != nil {
		return sh.qcache.HandleDerived(key, snap.Graph, snap.Tree, snap.PseudoRoot,
			snapquery.Key{Graph: string(snap.ID), Version: d.Parent}, d.ParentTree,
			snapquery.Delta{Moved: d.Moved, Removed: d.Removed, SameTree: d.SameTree})
	}
	return sh.qcache.Handle(key, snap.Graph, snap.Tree, snap.PseudoRoot)
}
