package service

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/tree"
)

// migPackage is one graph's frozen state in transit between shards. It is
// built from the maintainer (not the published snapshot: a rejected update's
// error recovery can renumber the tree without publishing, so the snapshot
// may lag the maintainer), and everything in it is immutable or handed over
// wholesale — the persistent graph and tree are shared zero-copy, the meter
// pointer moves so the tenant's cumulative attribution survives the hop.
type migPackage struct {
	g       *graph.Persistent
	t       *tree.Tree
	pseudo  int
	seq     uint64 // maintainer update count at freeze = handoff version
	meter   *obs.TenantMeter
	hotCost uint64 // source sketch's apply-cost estimate, seeds the destination's
	frozeAt time.Time
}

// MigrateGraph moves id's graph live from its current shard to shard dst,
// preserving exactness: no acknowledged update is lost or applied twice, and
// reads keep being served throughout (the source copy answers until the
// routing entry flips, the destination's installed copy after). The protocol:
//
//  1. Freeze on the source loop: checkpoint the graph at its current
//     sequence (mandatory — after the handoff the source's log rotation no
//     longer re-checkpoints this graph, so the checkpoint is what keeps its
//     logged tail coverable), mark it migrating so subsequent tasks park in
//     its deferred queue, and package the maintainer state.
//  2. Install on the destination loop: rebuild the maintainer from the
//     package and publish its snapshot. The copy stays invisible — routing
//     still points at the source.
//  3. Commit: append the RouteRecord to the durable route log (fsync) and
//     flip the copy-on-write routing table. This is the commit point; a
//     crash before it recovers the graph on the source, after it on the
//     destination, never both (recovery consults the logged route).
//  4. Complete on the source loop: retire the source copy and collect the
//     parked tasks, which are then replayed to the destination in order.
//     Cached query indexes follow the graph.
//
// Writers see the handoff as added latency, not errors: the write pause per
// migration (freeze to flip) is recorded in Metrics' MigrationPauseHist.
// Migrations are serialized — at most one graph is in transit at a time.
// Migrating to the shard the graph already lives on is a no-op.
func (s *Service) MigrateGraph(id GraphID, dst int) error {
	if dst < 0 || dst >= len(s.shards) {
		return fmt.Errorf("service: migrate %q: shard %d out of range [0,%d)", id, dst, len(s.shards))
	}
	if s.closed.Load() {
		return ErrClosed
	}
	s.migMu.Lock()
	defer s.migMu.Unlock()
	src := s.shardFor(id)
	dsh := s.shards[dst]
	if src == dsh {
		return nil
	}

	var pkg migPackage
	if err := s.runOn(src, func() error { return src.migFreeze(id, &pkg) }); err != nil {
		s.migFailures.Add(1)
		return fmt.Errorf("service: migrate %q: freeze: %w", id, err)
	}
	if err := s.runOn(dsh, func() error { return dsh.migInstall(id, &pkg) }); err != nil {
		s.abortMigration(src, id)
		s.migFailures.Add(1)
		return fmt.Errorf("service: migrate %q: install: %w", id, err)
	}
	if err := s.commitRoute(id, dsh, pkg.seq); err != nil {
		// The flip never became durable: tear the invisible destination copy
		// back down and resume serving from the source, exactly as if the
		// migration had not been attempted.
		s.runOn(dsh, func() error { dsh.migRemove(id); return nil })
		s.abortMigration(src, id)
		s.migFailures.Add(1)
		return fmt.Errorf("service: migrate %q: commit: %w", id, err)
	}
	pause := time.Since(pkg.frozeAt)

	var deferred []task
	if err := s.runOn(src, func() error { deferred = src.migComplete(id); return nil }); err != nil {
		// Source loop already gone (service closing). The route is flipped
		// and durable; any tasks the source parked resolve ErrClosed in its
		// run() cleanup.
		deferred = nil
	}
	for _, dt := range deferred {
		if err := dsh.submit(dt); err != nil {
			dt.fut.resolve(-1, nil, err)
		}
	}
	src.qcache.MoveGraph(string(id), dsh.qcache)

	s.migrations.Add(1)
	src.migrationsOut.Add(1)
	dsh.migrationsIn.Add(1)
	s.migPauseHist.Record(pause)
	return nil
}

// runOn runs fn on sh's update loop and waits for it. The returned error is
// fn's, or the submission failure when the shard is closed.
func (s *Service) runOn(sh *shard, fn func() error) error {
	var ferr error
	if _, err := call(sh, task{kind: taskFunc, fn: func() { ferr = fn() }}); err != nil {
		return err
	}
	return ferr
}

// abortMigration unfreezes id on src and replays its parked tasks locally,
// restoring the pre-migration world. Best-effort: if the shard is closing,
// run()'s cleanup resolves the parked futures instead.
func (s *Service) abortMigration(src *shard, id GraphID) {
	headroom := s.cfg.Headroom
	s.runOn(src, func() error { src.migAbort(id, headroom); return nil })
}

// migFreeze is migration step 1, on the source shard's loop: checkpoint the
// graph at its current sequence, freeze it (tasks park in deferred from here
// on), and package the maintainer state for the destination.
func (sh *shard) migFreeze(id GraphID, pkg *migPackage) error {
	pkg.frozeAt = time.Now()
	gs := sh.lookup(id)
	if gs == nil {
		return ErrUnknownGraph
	}
	if gs.migrating {
		return errors.New("already migrating")
	}
	if err := sh.walGate(); err != nil {
		return err
	}
	if sh.w != nil {
		// The checkpoint at the handoff sequence is what makes the transfer
		// durable: the source's future rotations re-checkpoint only its own
		// graphs before truncating its log, so without this checkpoint the
		// departed graph's only durable tail could be truncated away.
		if err := sh.checkpointGraph(id, gs); err != nil {
			return err
		}
	}
	gs.migrating = true
	pkg.g = gs.dd.Frozen()
	pkg.t = gs.dd.Tree()
	pkg.pseudo = gs.dd.PseudoRoot()
	pkg.seq = uint64(gs.dd.Updates())
	pkg.meter = gs.meter
	for _, it := range sh.hot.Snapshot() {
		if it.Key == string(id) {
			pkg.hotCost = it.Count
			break
		}
	}
	return nil
}

// migInstall is migration step 2, on the destination shard's loop: rebuild
// the maintainer from the package, publish its snapshot, and register the
// graph. Invisible until the routing entry flips — normal submissions still
// route to the source.
func (sh *shard) migInstall(id GraphID, pkg *migPackage) error {
	if sh.lookup(id) != nil {
		return ErrGraphExists
	}
	if err := sh.walGate(); err != nil {
		return err
	}
	// Keep the shared machine's model processor budget at the per-instance
	// maximum across tenants, as taskCreate does.
	sh.growProcs(pkg.g)
	gs := &graphState{
		meter: pkg.meter,
		dd:    core.NewDynamicRestored(pkg.g, pkg.t, pkg.pseudo, int(pkg.seq), core.Options{Machine: sh.mach}),
	}
	sh.publish(id, gs)
	sh.mu.Lock()
	sh.graphs[id] = gs
	sh.mu.Unlock()
	if pkg.hotCost > 0 {
		// Seed the hottest-graphs sketch with the source's estimate so the
		// graph's heat survives the hop instead of restarting from zero.
		sh.hot.Observe(string(id), pkg.hotCost)
	}
	return nil
}

// migComplete is migration step 4, on the source shard's loop after the
// route flipped: retire the source copy and hand the parked tasks back to
// the coordinator for replay on the destination. Tasks still behind this one
// in the mailbox find no graph and forward themselves via the routing table.
func (sh *shard) migComplete(id GraphID) []task {
	gs := sh.retire(id)
	if gs == nil {
		return nil
	}
	deferred := gs.deferred
	gs.deferred = nil
	gs.migrating = false
	return deferred
}

// migRemove tears down a copy installed by migInstall whose migration failed
// to commit; the source copy is still authoritative.
func (sh *shard) migRemove(id GraphID) {
	if sh.retire(id) != nil {
		sh.qcache.DropGraph(string(id))
	}
}

// retire unregisters id from the shard and its hottest-graphs sketch, and
// returns its state (nil when the shard does not hold it). A departed
// tenant's m no longer divides model depth charges: the machine's processor
// budget is recomputed over the survivors.
func (sh *shard) retire(id GraphID) *graphState {
	sh.mu.Lock()
	gs := sh.graphs[id]
	delete(sh.graphs, id)
	sh.mu.Unlock()
	if gs != nil {
		sh.hot.Remove(string(id))
		sh.recomputeProcs()
	}
	return gs
}

// migAbort unfreezes id after a failed migration and replays its parked
// tasks locally, in order, through the normal handler.
func (sh *shard) migAbort(id GraphID, headroom int) {
	gs := sh.lookup(id)
	if gs == nil || !gs.migrating {
		return
	}
	gs.migrating = false
	deferred := gs.deferred
	gs.deferred = nil
	for _, dt := range deferred {
		sh.handle(dt, headroom)
	}
}

// sizedGraph is what the processor budget reads of a graph, mutable or
// persistent.
type sizedGraph interface {
	NumEdges() int
	NumVertexSlots() int
}

// modelProcs is a graph's per-instance model processor budget: 2m+n+1,
// enough for one processor per adjacency entry, vertex slot and the pseudo
// root.
func modelProcs(g sizedGraph) int { return 2*g.NumEdges() + g.NumVertexSlots() + 1 }

// growProcs raises the shared machine's model processor budget to g's
// per-instance budget when g needs more than the shard's current maximum.
func (sh *shard) growProcs(g sizedGraph) {
	if p := modelProcs(g); p > sh.mach.Procs() {
		sh.mach.SetProcs(p)
	}
}

// recomputeProcs resets the machine's model processor budget to the
// per-instance maximum over the shard's remaining graphs, so model depth
// charges stop being divided by a departed tenant's m. The maintainers are
// only touched by the shard goroutine, so reading their graphs here (on that
// goroutine) is race-free.
func (sh *shard) recomputeProcs() {
	procs := 1
	sh.mu.RLock()
	for _, rest := range sh.graphs {
		procs = max(procs, modelProcs(rest.dd.Frozen()))
	}
	sh.mu.RUnlock()
	sh.mach.SetProcs(procs)
}
