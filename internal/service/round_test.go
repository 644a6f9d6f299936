package service

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// newInserts returns k distinct edge insertions absent from g.
func newInserts(g *graph.Graph, k int, rng *rand.Rand) []core.Update {
	var out []core.Update
	seen := map[[2]int]bool{}
	for len(out) < k {
		e, ok := graph.RandomEdgeNotIn(g, rng)
		if !ok || seen[[2]int{e.U, e.V}] || seen[[2]int{e.V, e.U}] {
			continue
		}
		seen[[2]int{e.U, e.V}] = true
		out = append(out, core.Update{Kind: core.InsertEdge, U: e.U, V: e.V})
	}
	return out
}

// applyOne submits u for id through Apply or through a one-item ApplyBatch
// and waits for the result.
func applyOne(t *testing.T, s *Service, batch bool, id GraphID, u core.Update) (*Snapshot, error) {
	t.Helper()
	var fut *Future
	var err error
	if batch {
		var futs []*Future
		futs, err = s.ApplyBatch([]BatchItem{{Graph: id, Update: u}})
		if err == nil {
			fut = futs[0]
		}
	} else {
		fut, err = s.Apply(id, u)
	}
	if err != nil {
		t.Fatalf("submit to %q: %v", id, err)
	}
	_, snap, err := fut.Wait()
	return snap, err
}

// TestApplyBatchFailStopParity pins that Apply and ApplyBatch admit updates
// identically on a fail-stopped shard: a known graph's update is rejected
// with the fail-stop error and the graph's last snapshot (never a nil one),
// and an unknown graph is ErrUnknownGraph — ownership is settled before the
// WAL gate on both paths.
func TestApplyBatchFailStopParity(t *testing.T) {
	s, err := Open(Config{Shards: 1, WAL: &WALConfig{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(41))
	g := graph.GnpConnected(24, 0.2, rng)
	created := mustCreate(t, s, "g", g)
	u := newInserts(g, 1, rng)[0]

	injected := errors.New("injected log failure")
	sh := s.shards[0]
	s.runOn(sh, func() error { sh.w.fail(injected); return nil })

	for _, batch := range []bool{false, true} {
		snap, err := applyOne(t, s, batch, "g", u)
		if !errors.Is(err, injected) {
			t.Fatalf("batch=%v: known graph on a fail-stopped shard: err %v, want the fail-stop", batch, err)
		}
		if snap == nil || snap.Version != created.Version {
			t.Fatalf("batch=%v: known graph rejected with snapshot %v, want its last (version %d)", batch, snap, created.Version)
		}
		if snap, err := applyOne(t, s, batch, "missing", u); !errors.Is(err, ErrUnknownGraph) || snap != nil {
			t.Fatalf("batch=%v: unknown graph: (%v, %v), want (nil, ErrUnknownGraph)", batch, snap, err)
		}
	}
}

// TestFailStoppedShardForwardsStragglers pins that a fail-stopped shard
// still forwards a straggler round entry for a graph it has migrated away:
// the entry belongs to a healthy shard now, so it applies there.
func TestFailStoppedShardForwardsStragglers(t *testing.T) {
	s, err := Open(Config{Shards: 2, WAL: &WALConfig{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(43))
	id := idOnShard(0, 2, "straggler")
	g := graph.GnpConnected(24, 0.2, rng)
	mustCreate(t, s, id, g)
	if err := s.MigrateGraph(id, 1); err != nil {
		t.Fatal(err)
	}
	src := s.shards[0]
	s.runOn(src, func() error { src.w.fail(errors.New("injected log failure")); return nil })

	// A round submitted against the pre-migration route lands on the source.
	fut := newFuture()
	u := newInserts(g, 1, rng)[0]
	if err := src.submit(task{kind: taskBatch, entries: []batchEntry{{id: id, upd: u, fut: fut}}}); err != nil {
		t.Fatal(err)
	}
	_, snap, err := fut.Wait()
	if err != nil {
		t.Fatalf("straggler on a fail-stopped source: %v, want it forwarded and applied", err)
	}
	if snap == nil || !snap.Graph.HasEdge(u.U, u.V) {
		t.Fatalf("straggler's snapshot %v lacks its edge", snap)
	}
}

// TestRoundTracesSharePublish pins that every successful entry of a round
// carries its share of its graph's one publish: the shares are positive,
// sum to the round's publish time, and the stage breakdown grows by exactly
// that time; a plain Apply, a round of one, carries the whole span.
func TestRoundTracesSharePublish(t *testing.T) {
	s := New(Config{Shards: 1, SlowTraces: 16})
	defer s.Close()
	rng := rand.New(rand.NewSource(47))
	g := graph.GnpConnected(40, 3.0/40, rng)
	mustCreate(t, s, "g", g)
	ups := newInserts(g, 5, rng)

	tracesOf := func(batch int) []time.Duration {
		var out []time.Duration
		for _, tr := range s.SlowTraces() {
			if tr.Batch == batch {
				out = append(out, tr.Publish)
			}
		}
		return out
	}
	// round runs submit and returns the publish time it recorded, checking
	// that it published exactly once.
	round := func(submit func() []*Future) (publish, stages time.Duration) {
		t.Helper()
		before := s.Metrics()
		for _, f := range submit() {
			if _, _, err := f.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		after := s.Metrics()
		if n := after.PublishHist.Count - before.PublishHist.Count; n != 1 {
			t.Fatalf("round published %d times, want 1", n)
		}
		return time.Duration(after.PublishHist.Sum - before.PublishHist.Sum),
			after.Stages.Publish - before.Stages.Publish
	}

	var items []BatchItem
	for _, u := range ups[:4] {
		items = append(items, BatchItem{Graph: "g", Update: u})
	}
	pub, staged := round(func() []*Future {
		futs, err := s.ApplyBatch(items)
		if err != nil {
			t.Fatal(err)
		}
		return futs
	})
	spans := tracesOf(4)
	if len(spans) != 4 {
		t.Fatalf("%d batch traces retained, want 4", len(spans))
	}
	var sum time.Duration
	for i, d := range spans {
		if d <= 0 {
			t.Fatalf("batch trace %d carries publish span %v, want > 0", i, d)
		}
		sum += d
	}
	// Within rounding: at most 1ns per entry.
	if diff := (sum - pub).Abs(); diff > time.Duration(len(spans)) {
		t.Fatalf("batch publish spans sum to %v, round published in %v", sum, pub)
	}
	if diff := (staged - pub).Abs(); diff > time.Duration(len(spans)) {
		t.Fatalf("stage breakdown grew by %v publish, round published in %v", staged, pub)
	}

	pub, staged = round(func() []*Future {
		f, err := s.Apply("g", ups[4])
		if err != nil {
			t.Fatal(err)
		}
		return []*Future{f}
	})
	if spans := tracesOf(1); len(spans) != 1 || spans[0] != pub || staged != pub {
		t.Fatalf("Apply trace publish spans %v, stage growth %v; want one span of the whole %v", spans, staged, pub)
	}
}
