package main

// The default form: instrument one or more programs with a tool,
// `atom prog.x -t tool -o prog.atom`.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"atom/internal/aout"
	"atom/internal/build"
	"atom/internal/core"
	"atom/internal/obs"
	"atom/internal/rtl"
)

// instrumentFlags are the default form's own flags.
type instrumentFlags struct {
	out                              string
	jobs                             int
	stats, layout, verbose, progress bool
}

func cmdInstrument(args []string) int {
	fs, p := newPipeline("atom", usage)
	var f instrumentFlags
	fs.StringVar(&f.out, "o", "", "output executable (single input only; default: input with .atom extension, or a.atom)")
	fs.IntVar(&f.jobs, "j", 1, "instrument up to N input programs in parallel (0 = GOMAXPROCS)")
	fs.BoolVar(&f.stats, "stats", false, "print instrumentation and cache statistics")
	fs.BoolVar(&f.layout, "layout", false, "print the instrumented executable's memory layout (Figure 4)")
	fs.BoolVar(&f.verbose, "v", false, "print an \"in -> out\" line per program of a multi-program batch")
	fs.BoolVar(&f.progress, "progress", false, "live status line on stderr for multi-program instrument batches")
	inputs, err := parse(fs, args, 1, -1)
	if err != nil {
		return parseStatus(err)
	}
	if p.tool == "" {
		fs.Usage()
		return 2
	}
	if len(inputs) > 1 && f.out != "" {
		return fail(fmt.Errorf("-o is only valid with a single input program (outputs are named <input>.atom)"))
	}
	tool, opts, err := p.resolve()
	if err != nil {
		return fail(err)
	}
	return p.observe(func(ctx *obs.Ctx) int { return instrumentAll(ctx, inputs, tool, opts, f) })
}

// instrumentAll instruments every input and writes its output. Read
// errors, output collisions and instrumentation errors fail soft: each is
// reported against its input and the rest of the batch goes on.
func instrumentAll(ctx *obs.Ctx, inputs []string, tool core.Tool, opts core.Options, f instrumentFlags) int {
	// Read every input before instrumenting any, then instrument the
	// readable subset and fold results and errors back into input order.
	outs, errs := claimOutputs(inputs, f.out)
	apps := make([]*aout.File, len(inputs))
	var (
		good      []*aout.File
		goodIdx   []int
		goodNames []string
	)
	for i, path := range inputs {
		if errs[i] != nil {
			continue
		}
		if apps[i], errs[i] = aout.ReadFile(path); errs[i] == nil {
			good = append(good, apps[i])
			goodIdx = append(goodIdx, i)
			goodNames = append(goodNames, path)
		}
	}
	results := make([]*core.Result, len(inputs))
	if len(good) > 0 {
		// Per-program completion counters show on /metrics as the batch
		// runs, so a live reader watches progress without the -progress
		// status line.
		var done atomic.Int64
		total := len(good)
		progressLine := f.progress && len(inputs) > 1
		onDone := func(k int, err error) {
			n := done.Add(1)
			if err != nil {
				ctx.Count("atom.batch.failed", 1)
			} else {
				ctx.Count("atom.batch.done", 1)
			}
			if progressLine {
				fmt.Fprintf(os.Stderr, "\ratom: instrumented %d/%d", n, total)
			}
		}
		if progressLine {
			defer fmt.Fprintln(os.Stderr)
		}
		res, rerrs := core.InstrumentManyNamed(ctx, good, goodNames, tool, opts, f.jobs, onDone)
		for k, i := range goodIdx {
			results[i] = res[k]
			if rerrs[k] != nil {
				errs[i] = fmt.Errorf("%s: %w", tool.Name, rerrs[k])
			}
		}
	}

	failed := 0
	for i, res := range results {
		err := errs[i]
		if err == nil {
			_, sp := ctx.Start("atom.write", obs.String("file", outs[i]))
			err = res.Exe.WriteFile(outs[i])
			sp.End()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "atom: %s: %v\n", inputs[i], err)
			failed++
			continue
		}
		if len(inputs) > 1 && f.verbose {
			fmt.Fprintf(os.Stderr, "atom: %s -> %s\n", inputs[i], outs[i])
		}
		if f.layout {
			printLayout(apps[i], res)
		}
		if f.stats {
			if len(inputs) > 1 {
				fmt.Printf("%s:\n", inputs[i])
			}
			printResultStats(res)
		}
	}
	if f.stats {
		printCacheStats()
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "atom: %d of %d programs failed\n", failed, len(inputs))
		return 1
	}
	return 0
}

// claimOutputs names each input's output (see outputName) and fails
// every input whose output an earlier input of the same invocation
// already claimed, so no output of a batch silently overwrites another.
func claimOutputs(inputs []string, explicit string) ([]string, []error) {
	outs := make([]string, len(inputs))
	errs := make([]error, len(inputs))
	owner := map[string]string{}
	for i, in := range inputs {
		outs[i] = outputName(in, explicit, ".atom")
		key := filepath.Clean(outs[i])
		if prev, ok := owner[key]; ok {
			errs[i] = fmt.Errorf("output %s is already claimed by %s", outs[i], prev)
			continue
		}
		owner[key] = in
	}
	return outs, errs
}

// printResultStats renders one instrumented program's -stats block: the
// call sites split into inlined, direct and wrapper calls, the code
// inserted, and the image sizes.
func printResultStats(res *core.Result) {
	s := res.Stats
	fmt.Printf("call sites instrumented: %d\n", s.Calls)
	fmt.Printf("call sites inlined:      %d\n", s.InlinedSites)
	fmt.Printf("call sites direct:       %d\n", s.DirectSites)
	fmt.Printf("call sites via wrapper:  %d\n", s.Calls-s.InlinedSites-s.DirectSites)
	fmt.Printf("instructions inserted:   %d\n", s.InsertedInsts)
	fmt.Printf("application text:        %d -> %d bytes\n", s.OrigText, s.InstrText)
	fmt.Printf("analysis image:          %d text + %d data bytes\n", s.AnalysisText, s.AnalysisData)
	if res.HeapOffset != 0 {
		fmt.Printf("analysis heap offset:    %#x\n", res.HeapOffset)
	}
}

// printCacheStats renders the two artifact caches (and, when a
// -cache-dir store is configured, the store itself) for -stats.
func printCacheStats() {
	ic, oc := core.ImageCacheStats(), rtl.ObjectCacheStats()
	fmt.Printf("image cache:             %d hits, %d disk hits, %d misses, %d builds\n", ic.Hits, ic.DiskHits, ic.Misses, ic.Builds)
	fmt.Printf("object cache:            %d hits, %d disk hits, %d misses, %d builds\n", oc.Hits, oc.DiskHits, oc.Misses, oc.Builds)
	if s := build.ActiveStore(); s != nil {
		st := s.Stats()
		fmt.Printf("disk store:              %d hits, %d misses, %d puts, %d corrupt\n",
			st.Hits, st.Misses, st.Puts, st.Corrupt)
	}
}

// printLayout renders the paper's Figure 4: the memory organization of
// the instrumented executable against the uninstrumented one.
func printLayout(app *aout.File, res *core.Result) {
	s := res.Stats
	heap := res.Exe.BssAddr + res.Exe.Bss
	fmt.Printf("memory layout (Figure 4):\n")
	fmt.Printf("  %#10x  stack base (grows down)            [unchanged]\n", app.TextAddr)
	fmt.Printf("  %#10x  instrumented program text  %7d B  [was %d B]\n", app.TextAddr, s.InstrText, s.OrigText)
	fmt.Printf("  %#10x  analysis text              %7d B\n", s.AnalysisTextAddr, s.AnalysisText)
	fmt.Printf("  %#10x  analysis data (bss zeroed) %7d B\n", s.AnalysisDataAddr, s.AnalysisData)
	fmt.Printf("  %#10x  program data               %7d B  [address unchanged]\n", res.Exe.DataAddr, len(res.Exe.Data))
	fmt.Printf("  %#10x  program bss                %7d B  [address unchanged]\n", res.Exe.BssAddr, res.Exe.Bss)
	fmt.Printf("  %#10x  heap base (grows up)                [unchanged]\n", heap)
	if res.HeapOffset != 0 {
		fmt.Printf("  %#10x  analysis heap zone (+%#x)\n", heap+res.HeapOffset, res.HeapOffset)
	}
}
