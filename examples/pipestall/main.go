// Pipestall: the paper's pipe tool over several suite programs.
//
// The tool performs static dual-issue pipeline scheduling of every basic
// block at instrumentation time (which is why Figure 5 shows pipe as the
// slowest tool to *instrument* with) and accumulates modeled cycles at
// run time, yielding a CPI estimate per workload.
//
//	go run ./examples/pipestall
package main

import (
	"fmt"
	"os"
	"strings"

	"atom"
	"atom/internal/spec"
)

func main() {
	tool, err := atom.ToolByName("pipe")
	check(err)

	fmt.Printf("%-10s %14s %14s %12s %8s\n", "program", "instructions", "cycles", "stalls", "cpi")
	for _, name := range []string{"eqntott", "fpppp", "su2cor", "queens", "spice", "doduc"} {
		exe, err := spec.Build(name)
		check(err)
		res, err := atom.Instrument(exe, tool, atom.Options{})
		check(err)
		p, _ := spec.ByName(name)
		out, err := atom.RunProgram(res.Exe, atom.RunConfig{
			Stdin: p.Stdin, FS: p.FS,
			MaxInstr: 2_000_000_000,
		})
		check(err)
		rep := string(out.Files["pipe.out"])
		fmt.Printf("%-10s %14s %14s %12s %8s\n", name,
			field(rep, "dynamic instructions"), field(rep, "modeled cycles"),
			field(rep, "stall cycles"), cpi(field(rep, "cpi")))
	}
	fmt.Println("\n(fpppp's long straight-line blocks schedule densely; divide-heavy")
	fmt.Println("doduc stalls on the multiplier/latency chain, as its profile intends)")
}

func field(report, label string) string {
	for _, ln := range strings.Split(report, "\n") {
		if strings.HasPrefix(ln, label+":") {
			return strings.TrimSpace(strings.TrimPrefix(ln, label+":"))
		}
	}
	return "?"
}

func cpi(v string) string {
	// "1234/1000" -> "1.234"
	parts := strings.Split(v, "/")
	if len(parts) != 2 || len(parts[0]) < 1 {
		return v
	}
	n := parts[0]
	for len(n) < 4 {
		n = "0" + n
	}
	return n[:len(n)-3] + "." + n[len(n)-3:]
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipestall:", err)
		os.Exit(1)
	}
}
