package main

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"time"

	dfs "repro"
)

// env is one opened service holding the workload's tenants.
type env struct {
	svc     *dfs.Service
	ts      []tenant
	walDirs []string // every set-up's WAL directory, removed by close
}

func (e *env) close() error {
	err := e.svc.Close()
	for _, d := range e.walDirs {
		if rerr := os.RemoveAll(d); err == nil {
			err = rerr
		}
	}
	return err
}

// setup opens the service and creates every tenant, reps times over, and
// keeps the last service. Each repetition starts from a collected heap,
// creates the tenants from up to p.procs clients and, when wal is not
// nil, logs to a fresh directory with wal's policy. It stores setup_s, the
// median time from OpenService until every CreateGraph was acknowledged.
//
// The WAL directories of the discarded services are removed only when the
// kept service closes, after the timed window: removing one is file-system
// metadata work that a later repetition's checkpoint fsyncs, or the
// window's WAL fsyncs, would otherwise have to commit.
func setup(p params, o *outcome, reps int, cfg dfs.ServiceConfig, wal *dfs.WALConfig, ts []tenant) (*env, error) {
	b := p.tr.buf()
	defer b.flush()
	var times []time.Duration
	var e *env
	var dirs []string
	defer func() {
		if e == nil {
			for _, d := range dirs {
				os.RemoveAll(d)
			}
		}
	}()
	for r := 0; r < reps; r++ {
		if e != nil {
			err := e.svc.Close()
			e = nil
			if err != nil {
				return nil, fmt.Errorf("close service: %w", err)
			}
		}
		c := cfg
		if wal != nil {
			dir, err := os.MkdirTemp(p.workdir, "wal-")
			if err != nil {
				return nil, err
			}
			dirs = append(dirs, dir)
			wc := *wal
			wc.Dir = dir
			c.WAL = &wc
		}
		runtime.GC()
		start := time.Now()
		svc, err := dfs.OpenService(c)
		if err != nil {
			return nil, fmt.Errorf("open service: %w", err)
		}
		req := b.id()
		b.child(req, req, "OpenService", start, time.Now())
		if err := createAll(p, svc, ts, req); err != nil {
			svc.Close()
			return nil, err
		}
		end := time.Now()
		b.add(req, 0, req, "setup", start, end)
		times = append(times, end.Sub(start))
		e = &env{svc: svc, ts: ts, walDirs: dirs}
	}
	times = sorted(times)
	o.e2e["setup_s"] = times[len(times)/2].Seconds()
	o.notes["setup_s"] = fmt.Sprintf("median of %d set-ups, %.4f to %.4f", reps, times[0].Seconds(), times[len(times)-1].Seconds())
	return e, nil
}

// createAll creates every tenant on svc from up to p.procs client
// goroutines, tenant i from client i mod p.procs, and returns once each
// CreateGraph was acknowledged.
func createAll(p params, svc *dfs.Service, ts []tenant, req uint64) error {
	clients := min(p.procs, len(ts))
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := p.tr.buf()
			defer b.flush()
			for i := c; i < len(ts); i += clients {
				s := time.Now()
				if _, err := svc.CreateGraph(ts[i].id, ts[i].g); err != nil {
					errs[c] = fmt.Errorf("create %s: %w", ts[i].id, err)
					return
				}
				b.child(req, req, "Service.CreateGraph", s, time.Now())
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// answer is the result of one analytics read.
type answer struct {
	LCA, Kth int
	Agg      dfs.SubtreeAgg
	Path     []int
	SameBCC  bool
}

// analytics runs one analytics read on h: LCA, KthAncestor, SubtreeAgg,
// TreePath (to the LCA, or to u itself when u and v are disconnected) and
// SameBiconnectedComponent. With a span buffer it records a span per call.
func analytics(h *dfs.QueryHandle, op readOp, b *spanBuf, req uint64) (answer, error) {
	var a answer
	var err error
	last := time.Time{}
	if b != nil {
		last = time.Now()
	}
	mark := func(name string) {
		if b != nil {
			now := time.Now()
			b.child(req, req, name, last, now)
			last = now
		}
	}
	if a.LCA, err = h.LCA(op.u, op.v); err != nil {
		return a, err
	}
	mark("QueryHandle.LCA")
	if a.Kth, err = h.KthAncestor(op.u, op.k); err != nil {
		return a, err
	}
	mark("QueryHandle.KthAncestor")
	if a.Agg, err = h.SubtreeAgg(op.u); err != nil {
		return a, err
	}
	mark("QueryHandle.SubtreeAgg")
	to := a.LCA
	if to < 0 {
		to = op.u
	}
	if a.Path, err = h.TreePath(op.u, to); err != nil {
		return a, err
	}
	mark("QueryHandle.TreePath")
	a.SameBCC, err = h.SameBiconnectedComponent(op.u, op.v)
	mark("QueryHandle.SameBiconnectedComponent")
	return a, err
}

// querySample is one analytics read kept for the correctness gate: the
// frozen snapshot it was answered from, the read, and the answer.
type querySample struct {
	g      dfs.Adjacency
	t      *dfs.Tree
	pseudo int
	op     readOp
	got    answer
}

// reader issues snapshot and analytics reads against the service and
// records their latencies. One reader belongs to one goroutine.
type reader struct {
	svc     *dfs.Service
	ts      []tenant
	b       *spanBuf
	snaps   series          // snapshot reads
	queries series          // analytics reads
	lags    []time.Duration // paced readers: how late each read started
	samples []querySample
	keep    int // keep every keep-th analytics read for the gate ...
	maxKeep int // ... up to maxKeep of them
	failed  int64
	errs    []error
}

func newReader(svc *dfs.Service, ts []tenant, b *spanBuf, keep, maxKeep int) *reader {
	return &reader{svc: svc, ts: ts, b: b, keep: keep, maxKeep: maxKeep}
}

func (r *reader) fail(err error) {
	r.failed++
	if len(r.errs) < 4 {
		r.errs = append(r.errs, err)
	}
}

// snapshotRead is Service.Snapshot followed by IsAncestor(u, v) and by
// Path from u up to its ancestor k levels higher. Every read makes the
// same three calls, so its latency has one mode.
func (r *reader) snapshotRead(op readOp) {
	id := r.ts[op.t].id
	start := time.Now()
	snap, err := r.svc.Snapshot(id)
	var looked, asked time.Time
	if r.b != nil {
		looked = time.Now()
	}
	var path []int
	var up int
	if err == nil {
		_, err = snap.IsAncestor(op.u, op.v)
		if r.b != nil {
			asked = time.Now()
		}
		if err == nil {
			t := snap.Tree
			up = t.AncestorAtLevel(op.u, max(1, t.Level(op.u)-op.k))
			path, err = snap.Path(op.u, up)
		}
	}
	end := time.Now()
	r.snaps.add(end.Sub(start))
	if r.b != nil {
		req := r.b.id()
		r.b.add(req, 0, req, "read", start, end)
		r.b.child(req, req, "Service.Snapshot", start, looked)
		r.b.child(req, req, "Snapshot.IsAncestor", looked, asked)
		r.b.child(req, req, "Snapshot.Path", asked, end)
	}
	if err != nil {
		r.fail(fmt.Errorf("snapshot read %s: %w", id, err))
		return
	}
	// A tree path climbs parent links from u and ends at up.
	ok := len(path) > 0 && path[0] == op.u && path[len(path)-1] == up
	for j := 1; ok && j < len(path); j++ {
		ok = snap.Tree.Parent[path[j-1]] == path[j]
	}
	if !ok {
		r.fail(fmt.Errorf("snapshot read %s: Path(%d,%d) = %v is not a tree path", id, op.u, up, path))
	}
}

// analyticsRead is Service.Query followed by the five handle calls.
func (r *reader) analyticsRead(op readOp) {
	id := r.ts[op.t].id
	start := time.Now()
	h, err := r.svc.Query(id)
	var req uint64
	if r.b != nil {
		req = r.b.id()
		r.b.child(req, req, "Service.Query", start, time.Now())
	}
	var a answer
	if err == nil {
		a, err = analytics(h, op, r.b, req)
	}
	end := time.Now()
	r.queries.add(end.Sub(start))
	r.b.add(req, 0, req, "query", start, end)
	if err != nil {
		r.fail(fmt.Errorf("analytics read %s: %w", id, err))
		return
	}
	if n := len(r.queries.lat); n%r.keep == 0 && len(r.samples) < r.maxKeep {
		r.samples = append(r.samples, querySample{g: h.Graph(), t: h.Tree(), pseudo: h.PseudoRoot(), op: op, got: a})
	}
}

// paced calls read(i) for i = 0, 1, ... at a fixed interval until the
// deadline. Read i is due interval·i after the start; a read runs as soon
// as it is due, so a late reader catches up, and each read is timed from
// when it was sent (its lateness is recorded separately).
func (r *reader) paced(interval time.Duration, until time.Time, read func(i int)) {
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(until) {
			return
		}
		time.Sleep(time.Until(due))
		r.lags = append(r.lags, time.Since(due))
		read(i)
	}
}

// sentUpdate is one update's journey through an open-loop sender.
type sentUpdate struct {
	due, start, end, done time.Time // end: Apply returned; done: Future resolved
	err                   error
}

// openLoop issues stream one Apply at a time on a fixed schedule: update
// j is due interval·j after the start, and every due update is issued
// before the sender sleeps. It stops at the deadline or when the stream
// runs out and returns one record per issued update, after every issued
// Future has resolved. A goroutine per pending Future observes its
// resolution, so each update is timed from when it was due, not from when
// the sender got to it.
func openLoop(svc *dfs.Service, ts []tenant, stream []item, interval time.Duration, until time.Time) []sentUpdate {
	recs := make([]sentUpdate, len(stream))
	var wg sync.WaitGroup
	start := time.Now()
	next := 0
	for ; next < len(stream); next++ {
		due := start.Add(time.Duration(next) * interval)
		if !due.Before(until) {
			break
		}
		time.Sleep(time.Until(due))
		it := stream[next]
		s := time.Now()
		f, err := svc.Apply(ts[it.t].id, it.u)
		recs[next] = sentUpdate{due: due, start: s, end: time.Now(), err: err}
		if err != nil {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-f.Done()
			recs[i].done = time.Now()
			_, _, recs[i].err = f.Wait()
		}(next)
	}
	wg.Wait()
	return recs[:next]
}

// summarizeSent folds open-loop records into latencies (due → resolved),
// sender lags (due → sent), spans and failures.
func summarizeSent(recs []sentUpdate, b *spanBuf) (lat series, lag []time.Duration, failed int64, firstErr error) {
	for _, r := range recs {
		if r.err != nil {
			failed++
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		lat.add(r.done.Sub(r.due))
		lag = append(lag, r.start.Sub(r.due))
		if b != nil {
			req := b.id()
			b.add(req, 0, req, "update", r.due, r.done)
			b.child(req, req, "gen.lag", r.due, r.start)
			b.child(req, req, "Service.Apply", r.start, r.end)
			b.child(req, req, "Future.resolve", r.end, r.done)
		}
	}
	return
}

// gate checks the service's final state: every tenant's snapshot passes
// Verify and CheckSynced, holds exactly the edge set the generator's
// mirror reaches after the issued prefix, and carries Version equal to the
// number of updates issued to it. Every kept analytics answer must equal
// an uncached NewSnapshotQuery's answer over the same snapshot.
func gate(e *env, issued []item, samples []querySample) error {
	want := expectedEdges(e.ts, issued)
	count := make([]int, len(e.ts))
	for _, it := range issued {
		count[it.t]++
	}
	for i, t := range e.ts {
		snap, err := e.svc.Snapshot(t.id)
		if err != nil {
			return err
		}
		if snap.Version != uint64(count[i]) {
			return fmt.Errorf("%s: version %d after %d issued updates", t.id, snap.Version, count[i])
		}
		if err := snap.Verify(); err != nil {
			return fmt.Errorf("%s: %w", t.id, err)
		}
		if err := e.svc.CheckSynced(t.id); err != nil {
			return fmt.Errorf("%s: %w", t.id, err)
		}
		edges := snap.Graph.Edges()
		if len(edges) != len(want[i]) {
			return fmt.Errorf("%s: %d edges, generator mirror has %d", t.id, len(edges), len(want[i]))
		}
		for _, ed := range edges {
			if !want[i][edgeKey(ed.U, ed.V)] {
				return fmt.Errorf("%s: edge %v not in the generator mirror", t.id, ed)
			}
		}
	}
	for _, s := range samples {
		want, err := analytics(dfs.NewSnapshotQuery(s.g, s.t, s.pseudo), s.op, nil, 0)
		if err != nil {
			return fmt.Errorf("oracle query %+v: %w", s.op, err)
		}
		if !reflect.DeepEqual(want, s.got) {
			return fmt.Errorf("analytics read %+v = %+v, uncached oracle says %+v", s.op, s.got, want)
		}
	}
	return nil
}
