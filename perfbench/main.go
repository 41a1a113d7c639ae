// Command perfbench is the repository's benchmark. It drives the ATOM
// pipeline through the public functions of each internal package and
// measures the paper's two costs, end to end and layer by layer: the time
// to instrument the 20-program suite (Figure 5) and the slowdown of the
// instrumented programs (Figure 6).
//
// run.sh builds it from the checkout and runs it from the checkout's root:
//
//	bash perfbench/run.sh --workload instrument --seed 1 --seconds 20 --trace 0
//
// The workloads are instrument, run_dense and run_sparse (see bench.go).
// Load comes from one closed loop: a single client instruments or runs
// one program at a time. The last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics, which are
// the end-to-end metrics, or with --trace 1 the per-layer metrics of a
// traced run. Timings are taken on the process's CPU clock (see cpuNow)
// and reported as they would read on a reference host (see speed.go).
// Every run writes a result file (and, traced, its spans) under -out and
// prints the Figure 5 and 6 tables rendered from that file. Two more
// modes read result files:
//
//	perfbench -tables FILE   print the tables of a result file
//	perfbench -compare A B   print two runs side by side; exit 1 when
//	                         their deterministic fields differ
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "instrument, run_dense or run_sparse")
	seed := fs.Int64("seed", 1, "decides the order of programs and tools")
	seconds := fs.Float64("seconds", 20, "how long the measured loop runs")
	trace := fs.Int("trace", 0, "1: the traced run, reporting per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for result and span files")
	tables := fs.String("tables", "", "print the tables of this result file and exit")
	compare := fs.Bool("compare", false, "compare the two result files given as arguments and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *tables != "":
		r, err := loadResult(*tables)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		printTables(stdout, r)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare takes two result files")
			return 2
		}
		return compareResults(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload instrument|run_dense|run_sparse, --seconds > 0 and --trace 0|1")
		return 2
	}

	b := newBench(*name, wl, *seed, *trace == 1, stderr)
	if err := b.run(time.Duration(*seconds * float64(time.Second))); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	path, err := b.save(*out, b.result(*seconds))
	if err == nil {
		var r *result
		// The tables and the result line are rendered from the file, so
		// they show exactly what it holds.
		if r, err = loadResult(path); err == nil {
			printTables(stdout, r)
			err = writeLine(stdout, r)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}
