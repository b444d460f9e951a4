// Command gridbench is the repository benchmark. It runs one named
// workload against the simulated grid stack, from a workload seed, as a
// closed loop of two virtual clients, checks every output, and prints
// the result as one JSON object on the last line of standard output.
//
//	go run . --workload san-pingpong --seed 1 --seconds 10 --trace 0
//
// Two clocks are reported. Host metrics (ops_per_s, host_cpu_ms_per_op,
// alloc_mb_per_op, max_rss_mb, setup_s) measure what the simulator costs
// to run; virtual metrics (v_*) measure the modelled grid and repeat
// exactly for a fixed seed.
//
// A run plays a fixed number of instances, each generated from the seed
// with its own testbed and operation stream. One round plays one
// instance: it builds a fresh testbed, warms it up (timed as setup) and
// plays the operation stream (the timed phase). Rounds cycle through
// the instances until --seconds of host time have passed, so host
// metrics are medians over rounds, while a repeated instance must
// reproduce its first round's virtual results exactly: a mismatch marks
// the run incorrect.
//
// With --trace 1 each round of the first half of the instances is
// played twice, untraced and traced (CPU profile, telemetry spans,
// benchmark spans), and the per-layer metrics are printed instead of
// the end-to-end ones. Artifacts go to --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "workload seed: every input is generated from it")
	seconds := flag.Float64("seconds", 10, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	out := flag.String("out", "gridbench/out", "directory for traced-run artifacts")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "gridbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed, budget, filepath.Join(*out, fmt.Sprintf("%s-seed%d", w.name, *seed)))
	} else {
		res, err = runPlain(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
