// Command padico-bench runs the bench scenario registry
// (internal/bench.Scenarios): the paper's evaluation (§5: Figure 3,
// Table 1, the MadIO/PadicoTM overheads, the VTHD WAN streams, VRP)
// and every later workload, printing each scenario's table.
//
// Usage:
//
//	padico-bench [-run name[,name...]|all] [-out DIR]
//	padico-bench -list
//
// -run defaults to all. A scenario that owns a BENCH_<PR>.json sidecar
// rewrites it in the working directory; scenarios with file artifacts
// (trace.json; series.json, dash.html, metrics.prom) write them into
// -out DIR, and skip them when -out is empty. -list prints every
// scenario with its one-line description and exits.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"padico/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and streams made explicit; it
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("padico-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("run", "all", "comma-separated scenario names, or all")
	list := fs.Bool("list", false, "list every scenario with a one-line description and exit")
	out := fs.String("out", "", "directory for scenario file artifacts (empty: do not write them)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, s := range bench.Scenarios {
			side := ""
			if s.Sidecar != nil {
				side = " (" + s.Sidecar.File() + ")"
			}
			fmt.Fprintf(stdout, "  %-10s %s%s\n", s.Name, s.Desc, side)
		}
		return 0
	}
	scens, err := bench.Select(*names)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	for _, s := range scens {
		res := s.Run()
		fmt.Fprintf(stdout, "=== %s: %s ===\n", s.Name, s.Desc)
		res.WriteText(stdout)
		if s.Sidecar != nil {
			doc, err := bench.SidecarJSON(s, res.Table)
			if err == nil {
				err = os.WriteFile(s.Sidecar.File(), doc, 0o644)
			}
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s\n", s.Sidecar.File())
		}
		for _, a := range res.Artifacts {
			if *out == "" {
				continue
			}
			path := filepath.Join(*out, a.Name)
			if err := os.WriteFile(path, a.Data, 0o644); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s\n", path)
		}
		fmt.Fprintln(stdout)
	}
	return 0
}
