// Command perfbench is the repository benchmark. It drives dfs.Service
// through its public API on named workloads, checks every output against
// an independent oracle, and prints either the end-to-end metrics (an
// untraced run) or the per-layer metrics (a traced run). The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload churn-large --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 0
//
// Every input is generated from --seed before the clock starts. A failed
// correctness gate prints "correct": false and exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// params configures one timed pass of a workload.
type params struct {
	seed    int64
	window  time.Duration // the timed window
	workdir string        // scratch space (WAL directories, trace files)
	procs   int           // GOMAXPROCS: shard count, worker width, client bound
	tr      *tracer       // nil in an untraced pass
}

// outcome is what one pass of a workload measured and checked.
type outcome struct {
	e2e       map[string]float64
	layers    map[string]float64
	notes     map[string]string // how each metric was taken: percentile, sample and chunk counts
	attempted int64
	failed    int64
	gateErr   error // first correctness mismatch, nil when every check passed
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, notes: map[string]string{}}
}

// workload is one named benchmark workload.
type workload struct {
	name string
	run  func(p params) (*outcome, error)
	// headline is the end-to-end latency whose traced/untraced relative
	// difference is reported as trace.overhead.
	headline string
	// tracedShare is the fraction of --seconds each of the two passes of a
	// traced run gets (the rest goes to the standalone replay).
	tracedShare float64
}

var workloads = []workload{
	{name: "churn-large", run: churnLarge, headline: "update_p50_ms", tracedShare: 0.35},
	{name: "tenants-write", run: tenantsWrite, headline: "update_p50_ms", tracedShare: 0.4},
}

// e2eUnits lists the end-to-end metrics every untraced run reports.
var e2eUnits = []nameUnit{
	{"setup_s", "s"},
	{"update_p50_ms", "ms"},
	{"updates_per_s", "1/s"},
	{"read_p50_us", "us"},
	{"read_p90_us", "us"},
	{"query_p50_us", "us"},
	{"mem_peak_mb", "MB"},
}

// printedOnly lists end-to-end metrics every untraced run prints but does
// not report in its result line. On a shared 2-core host their spread over
// seeds exceeded the largest bound a metric may have: 47-70% of the median
// for tenants-write's update p90, 20-130% for whole-run tails, 38% for
// churn-large's query p90 (about 250 reads, whose index builds slow down
// as the tree changes). queries_per_s, one client's analytics reads per
// second of their own latency, only restates the query latencies.
var printedOnly = []nameUnit{
	{"update_p90_ms", "ms"},
	{"update_tail_ms", "ms"},
	{"read_tail_us", "us"},
	{"query_p90_us", "us"},
	{"query_tail_us", "us"},
	{"queries_per_s", "1/s"},
}

func main() {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "timed window per run, in seconds")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	workdir := flag.String("workdir", ".bench_build", "scratch directory for WAL and trace files")
	flag.Parse()
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	var run []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			run = append(run, w)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want churn-large, tenants-write or all)\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	window := time.Duration(*seconds * float64(time.Second))
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range run {
		res, err := runWorkload(w, *seed, window, *traceFlag == 1, *workdir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(run) > 1 {
				k = w.name + "/" + k
			}
			total.Metrics[k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !total.Correct {
		os.Exit(1)
	}
}

// runWorkload runs one workload untraced, or — for a traced run — once
// untraced and once traced on the same inputs, and returns its result.
func runWorkload(w workload, seed int64, window time.Duration, traced bool, workdir string) (result, error) {
	p := params{seed: seed, window: window, workdir: workdir, procs: runtime.GOMAXPROCS(0)}
	fmt.Printf("# %s seed=%d window=%s GOMAXPROCS=%d trace=%v\n", w.name, seed, window, p.procs, traced)
	if !traced {
		o, err := w.run(p)
		if err != nil {
			return result{}, err
		}
		printOutcome(o.e2e, o.notes, e2eUnits)
		fmt.Println("# printed only:")
		printOutcome(o.e2e, o.notes, printedOnly)
		return finish(o, e2eMetrics(o)), nil
	}

	p.window = time.Duration(float64(window) * w.tracedShare)
	base, err := w.run(p)
	if err != nil {
		return result{}, err
	}
	if base.gateErr != nil {
		return finish(base, nil), nil
	}
	p.tr = newTracer()
	o, err := w.run(p)
	if err != nil {
		return result{}, err
	}
	if b := base.e2e[w.headline]; b != 0 {
		o.layers["trace.overhead"] = (o.e2e[w.headline] - b) / b
	}
	o.attempted += base.attempted
	o.failed += base.failed
	path := fmt.Sprintf("%s/trace-%s-seed%d.jsonl", workdir, w.name, seed)
	if err := p.tr.write(path); err != nil {
		return result{}, err
	}
	fmt.Printf("# %d spans written to %s\n", p.tr.count(), path)
	printOutcome(o.layers, nil, layerUnits)
	return finish(o, layerMetrics(o)), nil
}

func finish(o *outcome, ms map[string]metric) result {
	if o.gateErr != nil {
		fmt.Printf("# CORRECTNESS GATE FAILED: %v\n", o.gateErr)
	}
	ratio := 0.0
	if o.attempted > 0 {
		ratio = float64(o.failed) / float64(o.attempted)
	}
	fmt.Printf("  %-34s %14.6f   (%d of %d operations)\n", "op_fail_ratio", ratio, o.failed, o.attempted)
	if ms == nil {
		ms = map[string]metric{}
	}
	return result{Correct: o.gateErr == nil, Attempted: max(o.attempted, 1), Failed: o.failed, Metrics: ms}
}

func e2eMetrics(o *outcome) map[string]metric {
	ms := make(map[string]metric, len(e2eUnits))
	for _, e := range e2eUnits {
		ms[e.name] = metric{Value: o.e2e[e.name], Unit: e.unit}
	}
	return ms
}

func layerMetrics(o *outcome) map[string]metric {
	ms := make(map[string]metric, len(layerUnits))
	for _, l := range layerUnits {
		ms[l.name] = metric{Value: o.layers[l.name], Unit: l.unit}
	}
	return ms
}

// printOutcome prints one human-readable line per metric: name, value,
// unit, and the metric's note (how it was taken).
func printOutcome(vals map[string]float64, notes map[string]string, list []nameUnit) {
	for _, m := range list {
		fmt.Printf("  %-34s %14.6f %-6s %s\n", m.name, vals[m.name], m.unit, notes[m.name])
	}
}
