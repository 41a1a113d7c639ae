// Command atomvet is the repo's custom vet tool: project-specific
// checks no general-purpose linter knows about.
//
//	os.Getenv("ATOM_CACHE_DIR") outside cmd/atom   — the library must not
//	    read the cache directory from the environment; the CLI turns the
//	    variable into an explicit -cache-dir and everything below takes a
//	    parameter.
//	*obs.Ctx anywhere but parameter position 0     — the stage context
//	    always leads an exported signature (BuildCtx(ctx, exe), ...).
//	func X(...) { return XCtx(nil, ...) }           — a nil-context twin:
//	    each stage has one exported entry point, and a caller without a
//	    context passes nil to it.
//
// It speaks the cmd/go vettool protocol, so CI runs it as
//
//	go build -o atomvet ./cmd/atomvet
//	go vet -vettool=$(pwd)/atomvet ./...
//
// and it also runs standalone over directories for quick local use:
//
//	go run ./cmd/atomvet .
//
// The protocol (mirroring golang.org/x/tools' unitchecker, which this
// repo deliberately does not depend on): cmd/go first invokes the tool
// with -V=full to fingerprint it and -flags to learn its flags, then
// once per package with the path to a JSON config file as the sole
// argument. The tool analyzes the listed Go files, writes the (empty —
// these checks export no facts) .vetx fact file the config names, and
// reports findings on stderr with a non-zero exit.
package main

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	// Protocol handshakes come first and exit immediately.
	if len(args) == 1 {
		switch {
		case args[0] == "-flags":
			// No tool-specific flags: an empty JSON flag list.
			fmt.Println("[]")
			return 0
		case strings.HasPrefix(args[0], "-V"):
			// The output is cmd/go's cache fingerprint for the tool;
			// any stable line naming the binary works.
			fmt.Printf("%s version atomvet-1 sum none\n", os.Args[0])
			return 0
		}
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return runUnit(args[0])
	}
	return runDirs(args)
}

// vetConfig is the subset of cmd/go's vet.cfg JSON the tool needs.
type vetConfig struct {
	ImportPath string
	GoFiles    []string
	VetxOnly   bool
	VetxOutput string
}

// runUnit handles one `go vet` package unit.
func runUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "atomvet:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "atomvet: %s: %v\n", cfgPath, err)
		return 1
	}
	// The fact file must exist for cmd/go to cache the result, even
	// though these checks produce no facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "atomvet:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		// Dependency pass: facts only, no diagnostics wanted.
		return 0
	}
	found := 0
	fset := token.NewFileSet()
	for _, file := range cfg.GoFiles {
		diags, err := checkSource(fset, file, cfg.ImportPath, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "atomvet:", err)
			return 1
		}
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
			found++
		}
	}
	if found > 0 {
		return 2
	}
	return 0
}

// runDirs is the standalone mode: recursively check every .go file
// under each directory (default "."), deriving import paths from the
// position relative to the module root.
func runDirs(dirs []string) int {
	if len(dirs) == 0 {
		dirs = []string{"."}
	}
	found := 0
	fset := token.NewFileSet()
	for _, root := range dirs {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			rel := filepath.ToSlash(filepath.Dir(path))
			diags, err := checkSource(fset, path, importPathForDir(rel), nil)
			if err != nil {
				return err
			}
			for _, dg := range diags {
				fmt.Println(dg)
				found++
			}
			return nil
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "atomvet:", err)
			return 1
		}
	}
	if found > 0 {
		return 1
	}
	return 0
}
