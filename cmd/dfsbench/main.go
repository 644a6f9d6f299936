// Command dfsbench prints the repository's experiment tables E1–E7, one
// table per theorem-level claim of the paper. Each experiment prints a
// self-contained table; -exp all runs the full set. The repository
// benchmark, which measures the serving stack end to end, is perfbench,
// described in perfbench/README.md.
//
// Usage:
//
//	dfsbench -exp e1            # fully dynamic update cost vs baselines
//	dfsbench -exp all -seed 42  # everything, fixed seed
package main

import (
	"flag"
	"fmt"
	"os"
)

var experiments = []struct {
	name string
	desc string
	run  func(seed int64)
}{
	{"e1", "Thm 13: fully dynamic update — parallel depth vs sequential vs static", runE1},
	{"e2", "Thm 14: fault tolerant batches — depth and fragment growth with k", runE2},
	{"e3", "Thm 15: semi-streaming — passes per update and resident memory", runE3},
	{"e4", "Thm 16: distributed CONGEST(n/D) — rounds and messages vs diameter", runE4},
	{"e5", "Thm 8: data structure D — build cost, size, query depth", runE5},
	{"e6", "§7: work per update — parallel O(m) vs sequential Õ(n), crossover", runE6},
	{"e7", "§4 ablation: traversal mix, phase/stage maxima, round distribution", runE7},
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (e1..e7 or all)")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()

	ran := false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		fmt.Printf("================================================================\n")
		fmt.Printf("%s — %s\n", e.name, e.desc)
		fmt.Printf("================================================================\n")
		e.run(*seed)
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; available:\n", *exp)
		for _, e := range experiments {
			fmt.Fprintf(os.Stderr, "  %s  %s\n", e.name, e.desc)
		}
		os.Exit(2)
	}
}

func log2i(n int) int {
	l := 0
	for p := 1; p < n; p <<= 1 {
		l++
	}
	return l
}

func cube(x int) int { return x * x * x }
