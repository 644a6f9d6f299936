package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	dfs "repro"
)

// tailLadder is the percentile ladder a tail metric is chosen from: the
// highest entry with at least ten samples beyond it.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// rank returns the nearest-rank index of percentile p in n sorted samples.
func rank(p float64, n int) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// quantile returns the nearest-rank p-th percentile of ds, in unit.
func quantile(ds []time.Duration, p float64, unit time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := sorted(ds)
	return float64(s[rank(p, len(s))]) / float64(unit)
}

func sorted(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// A registered p90 is the median over chunks of about chunkSize
// consecutive samples of each chunk's p90. On a shared host, a whole run's
// high percentiles mostly measure how often other tenants of the machine
// stalled it; a median over chunks is set by the program, and one
// disturbance moves one chunk, not the result. The whole-run tail, by the
// ladder rule, is printed beside it.
const chunkSize = 100

// series is one kind of operation's latencies in a timed phase, in the
// order the operations completed.
type series struct {
	lat []time.Duration
}

func (s *series) add(d time.Duration) { s.lat = append(s.lat, d) }

// chunks cuts the latencies, in the order they were recorded, into
// len/chunkSize chunks of equal sample count (at least one).
func (s *series) chunks() [][]time.Duration {
	k := max(len(s.lat)/chunkSize, 1)
	out := make([][]time.Duration, k)
	for j := range out {
		out[j] = s.lat[j*len(s.lat)/k : (j+1)*len(s.lat)/k]
	}
	return out
}

// tail returns the highest ladder percentile of ds with at least ten
// samples beyond it, its value in unit, and the count beyond it.
func tail(ds []time.Duration, unit time.Duration) (p, v float64, beyond int) {
	if len(ds) == 0 {
		return 0, 0, 0
	}
	s := sorted(ds)
	n := len(s)
	for _, p = range tailLadder {
		i := rank(p, n)
		if beyond = n - 1 - i; beyond >= 10 || p == 50 {
			return p, float64(s[i]) / float64(unit), beyond
		}
	}
	return
}

// latencyMetrics stores <prefix>_p50_<unit>, the median of every sample;
// <prefix>_p90_<unit>, the median over the samples' chunks of each chunk's
// p90; and <prefix>_tail_<unit>, the whole series' tail by the ladder
// rule, with its percentile and sample counts as the note.
func (o *outcome) latencyMetrics(prefix, unitName string, unit time.Duration, s *series) {
	p50, p90, tl := prefix+"_p50_"+unitName, prefix+"_p90_"+unitName, prefix+"_tail_"+unitName
	o.e2e[p50] = quantile(s.lat, 50, unit)
	o.notes[p50] = fmt.Sprintf("n=%d", len(s.lat))
	chunks := s.chunks()
	var vals []float64
	for _, c := range chunks {
		vals = append(vals, quantile(c, 90, unit))
	}
	o.e2e[p90] = median(vals)
	o.notes[p90] = fmt.Sprintf("median over %d chunk(s) of %d samples (n=%d)", len(chunks), len(chunks[0]), len(s.lat))
	p, v, beyond := tail(s.lat, unit)
	o.e2e[tl] = v
	o.notes[tl] = fmt.Sprintf("p%g, %d samples beyond it (n=%d)", p, beyond, len(s.lat))
}

// busyRateMetric stores name as the operations completed per second of
// their summed latencies, over the whole phase. For a client with one
// operation in flight, that is the rate over the time the operations
// took, leaving out whatever else the client did between them. It is not
// a median over time slices: per-operation costs are heavy-tailed, and a
// slice holds too few of the heavy ones to agree with the next slice.
func (o *outcome) busyRateMetric(name string, s *series) {
	var busy time.Duration
	for _, d := range s.lat {
		busy += d
	}
	if busy > 0 {
		o.e2e[name] = float64(len(s.lat)) / busy.Seconds()
	}
	o.notes[name] = fmt.Sprintf("%d operations in %.3fs of their own latency", len(s.lat), busy.Seconds())
}

// heapSampler polls the Go heap every few milliseconds during a timed
// window and keeps its peak. Given a service, it also polls the service's
// metrics twice a second and keeps the deepest mailbox high-water mark.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
	hwm  int
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler(svc *dfs.Service) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		last := time.Now()
		for {
			metrics.Read(sample)
			h.peak = max(h.peak, sample[0].Value.Uint64())
			if svc != nil && time.Since(last) >= 500*time.Millisecond {
				last = time.Now()
				h.pollQueue(svc)
			}
			select {
			case <-h.stop:
				if svc != nil {
					h.pollQueue(svc)
				}
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) pollQueue(svc *dfs.Service) {
	for _, sh := range svc.Metrics().Shards {
		h.hwm = max(h.hwm, sh.QueueHighWater)
	}
}

// finish stops the sampler and returns the peak heap in MB and the
// deepest mailbox high-water mark seen.
func (h *heapSampler) finish() (float64, int) {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20), h.hwm
}

// span is one timed call made by the benchmark: its name, start and end
// (nanoseconds since the tracer started), the span that caused it, and the
// request all spans of one operation share.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends.
// Each goroutine records into its own spanBuf, merged by flush.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanBuf is one goroutine's span buffer. Methods on a nil spanBuf do
// nothing, so untraced code paths pass nil.
type spanBuf struct {
	tr    *tracer
	spans []span
}

func (tr *tracer) buf() *spanBuf {
	if tr == nil {
		return nil
	}
	return &spanBuf{tr: tr}
}

// id allocates a span ID.
func (b *spanBuf) id() uint64 {
	if b == nil {
		return 0
	}
	return b.tr.ids.Add(1)
}

// add records a span with a preallocated ID.
func (b *spanBuf) add(id, parent, req uint64, name string, start, end time.Time) {
	if b == nil {
		return
	}
	b.spans = append(b.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(b.tr.t0)), End: int64(end.Sub(b.tr.t0))})
}

// child records a span under parent.
func (b *spanBuf) child(parent, req uint64, name string, start, end time.Time) {
	b.add(b.id(), parent, req, name, start, end)
}

func (b *spanBuf) flush() {
	if b == nil {
		return
	}
	b.tr.mu.Lock()
	b.tr.spans = append(b.tr.spans, b.spans...)
	b.tr.mu.Unlock()
	b.spans = nil
}

// durations returns the durations of every flushed span named name.
func (tr *tracer) durations(name string) []time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []time.Duration
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

func (tr *tracer) count() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.spans)
}

// write stores the spans as JSON lines, ordered by start time.
func (tr *tracer) write(path string) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	sort.Slice(tr.spans, func(i, j int) bool { return tr.spans[i].Start < tr.spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
