package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	dfs "repro"
)

// tenantsWAL is tenants-write's WAL: every update is appended to its
// shard's log, the log is fsynced at most once a second rather than once
// per mailbox round (group commit), and graphs are checkpointed only when
// created. Fsyncs and checkpoints run inline in the shard loop, and on a
// shared disk their latency varies two- to threefold from minute to
// minute. With group commit, ten seeds spread update latency and capacity
// by 22-40% of their medians; with an fsync every 100 ms and the default
// checkpoint every 4096 updates per shard (a rotation writing and fsyncing
// 32 checkpoints every 1.6 s of the capacity phase), capacity still spread
// by 22-34%. wal.sync_ms and wal.checkpoints report the I/O that runs.
var tenantsWAL = &dfs.WALConfig{Policy: dfs.WALSyncInterval, SyncInterval: time.Second, CheckpointEvery: 1 << 30}

// setupReps is how many times a workload sets up its service; setup_s is
// the median. A set-up of tenants-write is mostly its 128 checkpoint
// fsyncs, whose latency on a shared disk changes from second to second;
// with 7 set-ups, ten seeds spread setup_s by up to 42% of its median.
const setupReps = 41

// window is one workload's timed window: the service metrics and heap
// sampler around it, and the readers that ran in it.
type window struct {
	p     params
	e     *env
	o     *outcome
	m0    dfs.ServiceMetrics
	hs    *heapSampler
	start time.Time
}

func beginWindow(p params, e *env, o *outcome) *window {
	runtime.GC()
	w := &window{p: p, e: e, o: o, m0: e.svc.Metrics()}
	var svc *dfs.Service
	if p.tr != nil {
		svc = e.svc
	}
	w.hs = startHeapSampler(svc)
	w.start = time.Now()
	return w
}

// end closes the window: it reports the readers' latencies and rates, the
// heap peak and the generator lag, checks the service's final state
// against the issued stream, and in a traced pass derives the per-layer
// metrics and replays the stream.
func (w *window) end(lags []time.Duration, stream []item, issued int, plan replayPlan, rs ...*reader) {
	elapsed := time.Since(w.start)
	peak, hwm := w.hs.finish()
	m1 := w.e.svc.Metrics()
	o := w.o
	o.e2e["mem_peak_mb"] = peak
	o.notes["mem_peak_mb"] = "peak live+unswept heap objects"

	var snaps, queries series
	var samples []querySample
	for _, r := range rs {
		snaps.lat = append(snaps.lat, r.snaps.lat...)
		queries.lat = append(queries.lat, r.queries.lat...)
		lags = append(lags, r.lags...)
		samples = append(samples, r.samples...)
		o.failed += r.failed
		if len(r.errs) > 0 {
			fmt.Printf("# read failures, first: %v\n", r.errs[0])
		}
		r.b.flush()
	}
	o.attempted += int64(len(snaps.lat) + len(queries.lat))
	o.latencyMetrics("read", "us", time.Microsecond, &snaps)
	o.latencyMetrics("query", "us", time.Microsecond, &queries)
	o.busyRateMetric("queries_per_s", &queries)
	o.layers["gen.lag_p99_ms"] = quantile(lags, 99, time.Millisecond)

	if o.gateErr = gate(w.e, stream[:issued], samples); o.gateErr != nil || w.p.tr == nil {
		return
	}
	serviceLayers(o, w.m0, m1, elapsed, w.p.tr, hwm, len(queries.lat))
	o.gateErr = replay(o, w.e, stream, issued, plan)
}

// churnLarge is the paper's own path: one large sparse graph under random
// edge churn, driven by one closed-loop client, with a light paced reader
// beside it.
//
// The graph has 10 000 vertices, not 20 000: a fifth of the updates reroot
// a subtree of thousands of vertices and take most of the update time, so
// updates_per_s is the mean over the few hundred of them a run sees. With
// n = 20 000 a 45 s run saw about 180, and ten seeds spread updates_per_s
// by 19% of its median; halving n doubles the count.
func churnLarge(p params) (*outcome, error) {
	const (
		n          = 10000
		queryEvery = 4 // the writer runs an analytics read after every 4th update
	)
	o := newOutcome()
	g0 := time.Now()
	rng := rand.New(rand.NewSource(p.seed))
	ts := genTenants("churn", 1, n, 3, rng)
	one := func() int { return 0 }
	stream := genStream(ts, int(200*p.window.Seconds())+200, one, rng)
	reads := genReads(ts, 4096, one, rng)
	o.layers["gen.inputs_s"] = time.Since(g0).Seconds()

	e, err := setup(p, o, setupReps, dfs.ServiceConfig{Shards: 1, Workers: p.procs}, nil, ts)
	if err != nil {
		return nil, err
	}
	defer e.close()

	w := beginWindow(p, e, o)
	until := w.start.Add(p.window)
	r := newReader(e.svc, ts, p.tr.buf(), 1, 0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.paced(5*time.Millisecond, until, func(i int) { r.snapshotRead(reads[i%len(reads)]) })
	}()

	// The writer's own analytics reads land on the version its last update
	// published, so each one builds that version's indexes. Issued from the
	// closed loop, they never contend with an update in flight; a paced
	// reader's would, and their latency would depend on where in an update
	// they landed.
	b := p.tr.buf()
	q := newReader(e.svc, ts, b, 2, 16)
	var upd series
	last, err := e.svc.Snapshot(ts[0].id)
	if err != nil {
		return nil, err
	}
	reshaped := 0 // updates that changed the DFS tree
	i := 0
	for ; i < len(stream) && time.Now().Before(until); i++ {
		if changesTree(last, stream[i].u) {
			reshaped++
		}
		s := time.Now()
		f, err := e.svc.Apply(ts[0].id, stream[i].u)
		var sent time.Time
		if b != nil {
			sent = time.Now()
		}
		var snap *dfs.GraphSnapshot
		if err == nil {
			_, snap, err = f.Wait()
		}
		d := time.Now()
		if err != nil {
			o.failed++
			fmt.Printf("# update %d failed: %v\n", i, err)
			continue
		}
		last = snap
		upd.add(d.Sub(s))
		if b != nil {
			req := b.id()
			b.add(req, 0, req, "update", s, d)
			b.child(req, req, "Service.Apply", s, sent)
			b.child(req, req, "Future.resolve", sent, d)
		}
		if i%queryEvery == queryEvery-1 {
			q.analyticsRead(reads[(i/queryEvery)%len(reads)])
		}
	}
	wg.Wait()
	b.flush()
	o.attempted += int64(i)
	o.latencyMetrics("update", "ms", time.Millisecond, &upd)
	o.notes["update_p50_ms"] += fmt.Sprintf(", %.1f%% changed the tree", 100*float64(reshaped)/float64(max(i, 1)))
	o.busyRateMetric("updates_per_s", &upd)
	w.end(nil, stream, i, replayPlan{fixed: 60, probeAt: []int{0, 20, 40}}, r, q)
	return o, nil
}

// changesTree reports whether u changes snap's DFS tree: every insertion
// but that of a back edge, and every deletion of a tree edge. The updates
// that leave the tree as it is take tens of microseconds, the others
// milliseconds; update_p50_ms is stable only while the second kind are
// clearly more than half, which the note beside it shows.
func changesTree(snap *dfs.GraphSnapshot, u dfs.Update) bool {
	if u.Kind == dfs.InsertEdge {
		// IsAncestor fails only for a vertex outside the graph, and the
		// generator draws every vertex from the graph.
		up, _ := snap.IsAncestor(u.U, u.V)
		down, _ := snap.IsAncestor(u.V, u.U)
		return !up && !down
	}
	p := snap.Tree.Parent
	return p[u.U] == u.V || p[u.V] == u.U
}

// tenantsWrite is many small tenants behind a WAL: phase 1 is an open loop
// at a fixed offered rate beside a paced reader, phase 2 a pipelined
// closed loop that measures capacity. Phase 2 gets 60% of the window: its
// rate is the noisier figure, while phase 1 collects tens of thousands of
// latencies either way.
func tenantsWrite(p params) (*outcome, error) {
	const (
		tenants, n = 64, 512
		rate       = 1000 // phase 1 offered updates per second
		inFlight   = 64   // phase 2 pipeline depth
	)
	o := newOutcome()
	g0 := time.Now()
	rng := rand.New(rand.NewSource(p.seed))
	ts := genTenants("tw", tenants, n, 4, rng)
	phase1 := time.Duration(0.4 * float64(p.window))
	n1 := int(rate * phase1.Seconds())
	// The stream outlasts phase 2 at any capacity seen, and the replay's
	// fixed prefix however short the window.
	plan := replayPlan{fixed: 2000, probeAt: []int{0, 500, 1000, 1500}}
	stream := genStream(ts, max(n1+int(10000*(p.window-phase1).Seconds())+1000, plan.fixed), uniform(tenants, rng), rng)
	reads := genReads(ts, 8192, uniform(tenants, rng), rng)
	o.layers["gen.inputs_s"] = time.Since(g0).Seconds()

	e, err := setup(p, o, setupReps, dfs.ServiceConfig{Shards: p.procs}, tenantsWAL, ts)
	if err != nil {
		return nil, err
	}
	defer e.close()

	w := beginWindow(p, e, o)
	until1 := w.start.Add(phase1)
	r := newReader(e.svc, ts, p.tr.buf(), 16, 256)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.paced(500*time.Microsecond, until1, func(i int) {
			if op := reads[i%len(reads)]; i%20 == 19 {
				r.analyticsRead(op)
			} else {
				r.snapshotRead(op)
			}
		})
	}()
	recs := openLoop(e.svc, ts, stream[:n1], time.Second/rate, until1)
	wg.Wait()
	b := p.tr.buf()
	lat, lags, failed, firstErr := summarizeSent(recs, b)
	o.attempted += int64(len(recs))
	o.failed += failed
	if firstErr != nil {
		fmt.Printf("# update failures, first: %v\n", firstErr)
	}
	o.latencyMetrics("update", "ms", time.Millisecond, &lat)

	done, elapsed, failed2 := pipelined(e.svc, ts, stream[len(recs):], inFlight, w.start.Add(p.window), b)
	b.flush()
	issued := len(recs) + len(done.lat) + int(failed2)
	o.attempted += int64(len(done.lat)) + failed2
	o.failed += failed2
	o.e2e["updates_per_s"] = float64(len(done.lat)) / elapsed.Seconds()
	o.notes["updates_per_s"] = fmt.Sprintf("%d updates in %.3fs", len(done.lat), elapsed.Seconds())
	w.end(lags, stream, issued, plan, r)
	return o, nil
}

// pipelined applies stream in order from one client keeping depth updates
// in flight until the deadline, then drains. It returns the completed
// updates (submit to observed resolution, in submission order), the time
// from start to the last completion, and the failures.
func pipelined(svc *dfs.Service, ts []tenant, stream []item, depth int, until time.Time, b *spanBuf) (series, time.Duration, int64) {
	type pending struct {
		f    *dfs.UpdateFuture
		s, e time.Time
	}
	var q []pending
	var done series
	start := time.Now()
	failed := int64(0)
	wait := func() {
		pd := q[0]
		q = q[1:]
		_, _, err := pd.f.Wait()
		if err != nil {
			failed++
			return
		}
		d := time.Now()
		done.add(d.Sub(pd.s))
		if b != nil {
			req := b.id()
			b.add(req, 0, req, "update", pd.s, d)
			b.child(req, req, "Service.Apply", pd.s, pd.e)
			b.child(req, req, "Future.wait", pd.e, d)
		}
	}
	for i := 0; i < len(stream) && time.Now().Before(until); i++ {
		if len(q) == depth {
			wait()
		}
		it := stream[i]
		s := time.Now()
		f, err := svc.Apply(ts[it.t].id, it.u)
		if err != nil {
			failed++
			continue
		}
		q = append(q, pending{f: f, s: s, e: time.Now()})
	}
	for len(q) > 0 {
		wait()
	}
	return done, time.Since(start), failed
}
