package main

import (
	"fmt"
	"slices"
	"time"

	dfs "repro"
)

// nameUnit is one reported metric's name and unit.
type nameUnit struct{ name, unit string }

// layerUnits lists the per-layer metrics every traced run reports. A layer
// that does no work on a workload reports 0 (no WAL on churn-large, for
// instance). README.md names the end-to-end metric each should move.
var layerUnits = []nameUnit{
	{"service.submit_us", "us"},
	{"service.publish_us", "us"},
	{"service.mailbox_wait_p50_ms", "ms"},
	{"service.mailbox_wait_p99_ms", "ms"},
	{"service.queue_hwm", "count"},
	{"service.snapshot_lookup_ns", "ns"},
	{"service.stage_share.wait", "ratio"},
	{"service.stage_share.plan", "ratio"},
	{"service.stage_share.engine", "ratio"},
	{"service.stage_share.dmaint", "ratio"},
	{"service.stage_share.publish", "ratio"},
	{"core.update_ms", "ms"},
	{"core.engine_ms", "ms"},
	{"core.dmaint_ms", "ms"},
	{"core.moved_per_update", "count"},
	{"dstruct.edge_to_walk_ms", "ms"},
	{"dstruct.walk_queries_per_update", "count"},
	{"dstruct.runs_per_query", "count"},
	{"dstruct.searches_per_update", "count"},
	{"dstruct.scan_steps_per_update", "count"},
	{"dstruct.incremental_ratio", "ratio"},
	{"reroot.rounds_per_update", "count"},
	{"reroot.traversals_per_update", "count"},
	{"pram.depth_per_update", "count"},
	{"pram.work_per_update", "count"},
	{"wal.append_us", "us"},
	{"wal.sync_ms", "ms"},
	{"wal.appends_per_sync", "count"},
	{"wal.bytes_per_update", "bytes"},
	{"wal.checkpoints", "count"},
	{"snapquery.hit_ratio", "ratio"},
	{"snapquery.resolve_us", "us"},
	{"snapquery.build_ms", "ms"},
	{"snapquery.builds_per_query", "count"},
	{"snapquery.patch_ms", "ms"},
	{"snapquery.patch_share", "ratio"},
	{"snapquery.evictions_per_s", "1/s"},
	{"gen.inputs_s", "s"},
	{"gen.lag_p99_ms", "ms"},
	{"trace.overhead", "ratio"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// serviceLayers derives the service, WAL and snapquery layer metrics from
// the Metrics() delta across the timed window, the benchmark's own spans,
// and the deepest mailbox high-water mark polled during the window.
func serviceLayers(o *outcome, m0, m1 dfs.ServiceMetrics, window time.Duration, tr *tracer, hwm int, queries int) {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	l := o.layers
	l["service.submit_us"] = quantile(tr.durations("Service.Apply"), 50, time.Microsecond)
	l["service.publish_us"] = float64(m1.PublishHist.Delta(m0.PublishHist).Quantile(0.5)) / 1e3
	wait := m1.MailboxWaitHist.Delta(m0.MailboxWaitHist)
	l["service.mailbox_wait_p50_ms"] = ms(wait.Quantile(0.5))
	l["service.mailbox_wait_p99_ms"] = ms(wait.Quantile(0.99))
	l["service.queue_hwm"] = float64(hwm)
	l["service.snapshot_lookup_ns"] = quantile(tr.durations("Service.Snapshot"), 50, time.Nanosecond)
	st := dfs.StageTimes{
		Wait:    m1.Stages.Wait - m0.Stages.Wait,
		Plan:    m1.Stages.Plan - m0.Stages.Plan,
		Engine:  m1.Stages.Engine - m0.Stages.Engine,
		DMaint:  m1.Stages.DMaint - m0.Stages.DMaint,
		Publish: m1.Stages.Publish - m0.Stages.Publish,
	}
	total := float64(st.Total())
	l["service.stage_share.wait"] = ratio(float64(st.Wait), total)
	l["service.stage_share.plan"] = ratio(float64(st.Plan), total)
	l["service.stage_share.engine"] = ratio(float64(st.Engine), total)
	l["service.stage_share.dmaint"] = ratio(float64(st.DMaint), total)
	l["service.stage_share.publish"] = ratio(float64(st.Publish), total)

	appends := float64(m1.WALAppends - m0.WALAppends)
	updates := float64(m1.Updates - m0.Updates)
	l["wal.append_us"] = float64(m1.WALAppendHist.Delta(m0.WALAppendHist).Quantile(0.5)) / 1e3
	l["wal.sync_ms"] = ms(m1.WALSyncHist.Delta(m0.WALSyncHist).Quantile(0.5))
	l["wal.appends_per_sync"] = ratio(appends, float64(m1.WALSyncs-m0.WALSyncs))
	l["wal.bytes_per_update"] = ratio(float64(m1.WALAppendBytes-m0.WALAppendBytes), updates)
	l["wal.checkpoints"] = float64(m1.WALCheckpoints - m0.WALCheckpoints)

	hits := float64(m1.IndexCacheHits - m0.IndexCacheHits)
	misses := float64(m1.IndexCacheMisses - m0.IndexCacheMisses)
	builds := float64(m1.IndexBuilds - m0.IndexBuilds)
	patches := float64(m1.IndexPatches - m0.IndexPatches)
	l["snapquery.hit_ratio"] = ratio(hits, hits+misses)
	l["snapquery.resolve_us"] = quantile(tr.durations("Service.Query"), 50, time.Microsecond)
	l["snapquery.build_ms"] = ratio(ms(int64(m1.IndexBuildTime-m0.IndexBuildTime)), builds)
	l["snapquery.builds_per_query"] = ratio(builds, float64(queries))
	l["snapquery.patch_ms"] = ratio(ms(int64(m1.IndexPatchTime-m0.IndexPatchTime)), patches)
	l["snapquery.patch_share"] = ratio(patches, patches+builds)
	l["snapquery.evictions_per_s"] = float64(m1.IndexCacheEvictions-m0.IndexCacheEvictions) / window.Seconds()
}

// replayPlan says how to replay a workload's applied stream on standalone
// maintainers: the model counts cover exactly the first fixed updates (so
// they repeat across runs with the same seed), and D's EdgeToWalk is
// probed on tenant 0 before the updates at probeAt.
type replayPlan struct {
	fixed   int
	probeAt []int
}

// replay applies stream[:max(applied, plan.fixed)] to one standalone
// maintainer per tenant, built with the serving layer's options, with a
// trace attached to every update. It fills the core, dstruct, reroot and
// pram layer metrics and checks the replay's state after the applied
// prefix: every tenant's tree verifies, its D is in sync, and it is the
// tree the service published.
func replay(o *outcome, e *env, stream []item, applied int, plan replayPlan) error {
	mts := make([]*dfs.Maintainer, len(e.ts))
	for i, t := range e.ts {
		mts[i] = dfs.NewMaintainerWith(t.g, dfs.Options{RebuildD: true, Headroom: 64})
	}
	var (
		upd, engine, dmaint time.Duration
		moved               int
		walkQ, runs, search int64
		scans               int64
		rounds, travs       int
		depth, work         int64
		inc, reb            int64
		probes              []time.Duration
	)
	end := max(applied, plan.fixed)
	if end > len(stream) {
		return fmt.Errorf("replay needs %d updates, stream has %d", end, len(stream))
	}
	for i, it := range stream[:end] {
		if i == applied {
			if err := checkReplay(e, mts); err != nil {
				return err
			}
		}
		for _, at := range plan.probeAt {
			if at == i {
				probes = append(probes, probeEdgeToWalk(mts[0])...)
			}
		}
		m := mts[it.t]
		var tr dfs.UpdateTrace
		m.SetTrace(&tr)
		q0 := m.QueryStats()
		d0, w0 := m.Machine().Depth(), m.Machine().Work()
		i0, r0 := m.D().MaintenanceCounts()
		s := time.Now()
		_, err := m.Apply(it.u)
		dt := time.Since(s)
		m.SetTrace(nil)
		if err != nil {
			return fmt.Errorf("replay update %d on tenant %d: %w", i, it.t, err)
		}
		if i >= plan.fixed {
			continue
		}
		q1 := m.QueryStats()
		i1, r1 := m.D().MaintenanceCounts()
		upd += dt
		engine += tr.Engine
		dmaint += tr.DMaint
		moved += tr.Moved
		st := m.LastStats()
		rounds += st.Rounds
		travs += st.TotalTraversal
		depth += m.Machine().Depth() - d0
		work += m.Machine().Work() - w0
		inc += i1 - i0
		reb += r1 - r0
		walkQ += q1.WalkQueries - q0.WalkQueries
		runs += q1.RunsSplit - q0.RunsSplit
		search += q1.Searches - q0.Searches
		scans += q1.ScanSteps - q0.ScanSteps
	}
	if applied >= end {
		if err := checkReplay(e, mts); err != nil {
			return err
		}
	}
	n := float64(plan.fixed)
	l := o.layers
	l["core.update_ms"] = float64(upd) / 1e6 / n
	l["core.engine_ms"] = float64(engine) / 1e6 / n
	l["core.dmaint_ms"] = float64(dmaint) / 1e6 / n
	l["core.moved_per_update"] = float64(moved) / n
	l["dstruct.edge_to_walk_ms"] = quantile(probes, 50, time.Millisecond)
	l["dstruct.walk_queries_per_update"] = float64(walkQ) / n
	l["dstruct.runs_per_query"] = ratio(float64(runs), float64(walkQ))
	l["dstruct.searches_per_update"] = float64(search) / n
	l["dstruct.scan_steps_per_update"] = float64(scans) / n
	l["dstruct.incremental_ratio"] = ratio(float64(inc), float64(inc+reb))
	l["reroot.rounds_per_update"] = float64(rounds) / n
	l["reroot.traversals_per_update"] = float64(travs) / n
	l["pram.depth_per_update"] = float64(depth) / n
	l["pram.work_per_update"] = float64(work) / n
	return nil
}

// checkReplay compares the replayed maintainers with the service's final
// snapshots.
func checkReplay(e *env, mts []*dfs.Maintainer) error {
	for i, m := range mts {
		id := e.ts[i].id
		if err := dfs.Verify(m.Graph(), m.Tree(), m.PseudoRoot()); err != nil {
			return fmt.Errorf("replay %s: %w", id, err)
		}
		if err := m.D().CheckSynced(m.Graph(), m.Tree()); err != nil {
			return fmt.Errorf("replay %s: %w", id, err)
		}
		snap, err := e.svc.Snapshot(id)
		if err != nil {
			return err
		}
		if snap.PseudoRoot != m.PseudoRoot() || !slices.Equal(snap.Tree.Parent, m.Tree().Parent) {
			return fmt.Errorf("replay %s: replayed tree differs from the service's published tree", id)
		}
	}
	return nil
}

// probeEdgeToWalk times D.EdgeToWalk over m's deepest root path (from the
// deepest vertex up to its component root) with every off-path vertex as
// a source, three times.
func probeEdgeToWalk(m *dfs.Maintainer) []time.Duration {
	t, pseudo := m.Tree(), m.PseudoRoot()
	deepest := -1
	for v := 0; v < t.N(); v++ {
		if v != pseudo && t.Present(v) && (deepest < 0 || t.Level(v) > t.Level(deepest)) {
			deepest = v
		}
	}
	if deepest < 0 {
		return nil
	}
	walk := t.PathUp(deepest, t.AncestorAtLevel(deepest, 1))
	on := make(map[int]bool, len(walk))
	for _, v := range walk {
		on[v] = true
	}
	var sources []int
	for v := 0; v < t.N(); v++ {
		if v != pseudo && t.Present(v) && !on[v] {
			sources = append(sources, v)
		}
	}
	var out []time.Duration
	for r := 0; r < 3; r++ {
		var st dfs.QueryStats
		s := time.Now()
		m.D().EdgeToWalk(sources, walk, false, &st)
		out = append(out, time.Since(s))
	}
	return out
}
