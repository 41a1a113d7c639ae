// Command arun executes a linked program on the Alpha-subset VM. Files in
// -fs are visible to the program; files it writes are copied back there.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"atom/internal/aout"
	"atom/internal/vm"
)

func main() {
	var (
		fsDir    = flag.String("fs", "", "directory served as the program's filesystem (outputs written back)")
		maxInstr = flag.Uint64("max", 0, "instruction budget (0 = default)")
		stats    = flag.Bool("stats", false, "print execution statistics to stderr")
		trace    = flag.Bool("trace", false, "print every retired instruction to stderr (very slow)")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: arun [-fs dir] prog.x [args...]")
		os.Exit(2)
	}
	exe, err := aout.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	cfg := vm.Config{
		Arg0:     flag.Arg(0),
		Args:     flag.Args()[1:],
		MaxInstr: *maxInstr,
		FS:       map[string][]byte{},
	}
	if *trace {
		cfg.Trace = os.Stderr
	}
	if *fsDir != "" {
		entries, err := os.ReadDir(*fsDir)
		if err != nil {
			fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			data, err := os.ReadFile(filepath.Join(*fsDir, e.Name()))
			if err != nil {
				fatal(err)
			}
			cfg.FS[e.Name()] = data
		}
	}
	stdin, _ := os.ReadFile("/dev/stdin")
	cfg.Stdin = stdin

	m, err := vm.New(exe, cfg)
	if err != nil {
		fatal(err)
	}
	code, err := m.Run()
	os.Stdout.Write(m.Stdout)
	os.Stderr.Write(m.Stderr)
	if err != nil {
		fatal(err)
	}
	for _, path := range m.Paths() {
		dst := path
		if *fsDir != "" {
			dst = filepath.Join(*fsDir, filepath.Base(path))
		}
		if werr := os.WriteFile(dst, m.FSOut[path], 0o644); werr != nil {
			fatal(werr)
		}
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "icount=%d loads=%d stores=%d unaligned=%d\n",
			m.Icount, m.Loads, m.Stores, m.Unaligned)
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "arun:", err)
	os.Exit(1)
}
