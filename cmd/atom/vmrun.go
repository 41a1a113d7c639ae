package main

// atom run: execute a program on the VM, instrumenting it first when -t
// is given, with the sampling profiler attached on request.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"atom/internal/aout"
	"atom/internal/core"
	"atom/internal/obs"
	"atom/internal/prof"
	"atom/internal/vm"
)

// runConfig carries atom run's parameters.
type runConfig struct {
	input         string
	progArgs      []string
	stdin         []byte // served to the program on fd 0
	fsDir         string // files served to the program; its writes land here
	tool          core.Tool
	opts          core.Options
	outPath       string
	profilePath   string
	profilePeriod uint64
	profileFormat string
	stats         bool
}

func cmdRun(args []string, stdin []byte) int {
	fs, p := newPipeline("atom run", "usage: atom run [-t tool [-o prog.atom]] [-fs dir] [-profile file [-profile-period N] [-profile-format flat|folded]] prog.x [args...]")
	rc := runConfig{stdin: stdin}
	fs.StringVar(&rc.outPath, "o", "", "also write the instrumented executable to this file (needs -t)")
	fs.StringVar(&rc.fsDir, "fs", ".", "directory whose regular files are served to the program; the files it writes go back there")
	fs.StringVar(&rc.profilePath, "profile", "", "sample the run and write the profile to this file")
	fs.Uint64Var(&rc.profilePeriod, "profile-period", 10000, "sampling period in retired instructions")
	fs.StringVar(&rc.profileFormat, "profile-format", "flat", "profile report format: flat | folded")
	fs.BoolVar(&rc.stats, "stats", false, "print execution statistics to stderr")
	// Everything after the program name is its argv, so parsing stops
	// there.
	if err := fs.Parse(args); err != nil {
		return parseStatus(err)
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return 2
	}
	if rc.outPath != "" && p.tool == "" {
		return fail(fmt.Errorf("-o writes the instrumented program; it needs -t"))
	}
	if rc.profileFormat != "flat" && rc.profileFormat != "folded" {
		return fail(fmt.Errorf("bad -profile-format %q (flat or folded)", rc.profileFormat))
	}
	var err error
	if rc.tool, rc.opts, err = p.resolve(); err != nil {
		return fail(err)
	}
	rc.input, rc.progArgs = fs.Arg(0), fs.Args()[1:]
	return p.observe(func(ctx *obs.Ctx) int { return runUnderVM(ctx, rc) })
}

// runUnderVM executes one program on the VM — instrumenting it first
// when a tool was selected — with the sampling profiler attached when
// requested. The files the program wrote and the profile are written
// even when the program faults mid-run, so a crashing workload still
// yields its outputs and observability artifacts.
func runUnderVM(ctx *obs.Ctx, rc runConfig) int {
	app, err := aout.ReadFile(rc.input)
	if err != nil {
		return fail(err)
	}
	files, err := readFS(rc.fsDir)
	if err != nil {
		return fail(err)
	}

	exe := app
	cfg := vm.Config{
		Arg0:  rc.input,
		Args:  rc.progArgs,
		Stdin: rc.stdin,
		FS:    files,
		Obs:   ctx,
	}
	var pcMap func(uint64) (uint64, bool)
	procs := prof.ProcsFromSymbols(app.Symbols)
	if rc.tool.Name != "" {
		res, err := core.InstrumentCtx(ctx, app, rc.tool, rc.opts)
		if err != nil {
			return fail(fmt.Errorf("%s: %s: %w", rc.input, rc.tool.Name, err))
		}
		exe = res.Exe
		pcMap = res.PCMap.OldAddr
		procs = res.PCMap.OrigProcs()
		if rc.outPath != "" {
			if err := res.Exe.WriteFile(rc.outPath); err != nil {
				return fail(err)
			}
		}
	}

	var profiler *prof.Profiler
	if rc.profilePath != "" {
		profiler = prof.New(prof.Options{
			Period: rc.profilePeriod,
			Procs:  procs,
			MapPC:  pcMap,
			Obs:    ctx,
		})
		profiler.Attach(&cfg)
	}

	m, err := vm.New(exe, cfg)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", rc.input, err))
	}
	exitCode, runErr := m.Run()
	os.Stdout.Write(m.Stdout)
	os.Stderr.Write(m.Stderr)

	status := exitCode
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "atom: %s: %v\n", rc.input, runErr)
		status = 1
	}
	for _, path := range m.Paths() {
		if err := writeBack(rc.fsDir, path, m.FSOut[path]); err != nil {
			fmt.Fprintf(os.Stderr, "atom: %s: %v\n", rc.input, err)
			status = 1
		}
	}
	if rc.stats {
		fmt.Fprintf(os.Stderr, "icount=%d loads=%d stores=%d unaligned=%d syscalls=%d\n",
			m.Icount, m.Loads, m.Stores, m.Unaligned, m.Syscalls)
	}

	if profiler != nil {
		profiler.Flush()
		if err := writeProfile(profiler, rc.profilePath, rc.profileFormat); err != nil {
			fmt.Fprintln(os.Stderr, "atom:", err)
			if status == 0 {
				status = 1
			}
		}
	}
	return status
}

// readFS reads the regular files of dir, keyed by name, for the program
// to open.
func readFS(dir string) (map[string][]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			return nil, err
		}
	}
	return files, nil
}

// writeBack writes a file the program wrote into dir. Only a local path
// (filepath.IsLocal) is written: one that is absolute or climbs out of
// dir is refused, so a run writes nothing outside its directory.
func writeBack(dir, path string, data []byte) error {
	if !filepath.IsLocal(path) {
		return fmt.Errorf("refusing to write %q outside %s", path, dir)
	}
	return os.WriteFile(filepath.Join(dir, path), data, 0o644)
}

// writeProfile renders the profiler's report in the selected format.
func writeProfile(p *prof.Profiler, path, format string) error {
	return createWith(path, func(w io.Writer) error {
		if format == "folded" {
			return p.WriteFolded(w)
		}
		return p.WriteFlat(w)
	})
}
