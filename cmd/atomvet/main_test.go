package main

import (
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func check(t *testing.T, importPath, src string) []diag {
	t.Helper()
	diags, err := checkSource(token.NewFileSet(), "x.go", importPath, src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return diags
}

func wantDiag(t *testing.T, diags []diag, substr string) {
	t.Helper()
	for _, d := range diags {
		if strings.Contains(d.String(), substr) {
			return
		}
	}
	t.Errorf("no diagnostic containing %q; have %v", substr, diags)
}

func TestCacheEnvOutsideCmdAtom(t *testing.T) {
	src := `package build
import "os"
func dir() string { return os.Getenv("ATOM_CACHE_DIR") }
func dir2() (string, bool) { return os.LookupEnv("ATOM_CACHE_DIR") }
`
	diags := check(t, "atom/internal/build", src)
	if len(diags) != 2 {
		t.Fatalf("want 2 diagnostics, got %v", diags)
	}
	wantDiag(t, diags, `os.Getenv("ATOM_CACHE_DIR") outside atom/cmd/atom`)
	wantDiag(t, diags, `os.LookupEnv("ATOM_CACHE_DIR") outside atom/cmd/atom`)

	// The CLI itself is the sanctioned reader.
	if diags := check(t, "atom/cmd/atom", src); len(diags) != 0 {
		t.Errorf("cmd/atom flagged for its own env read: %v", diags)
	}
	// Other variables are not this check's business.
	other := `package build
import "os"
func home() string { return os.Getenv("HOME") }
`
	if diags := check(t, "atom/internal/build", other); len(diags) != 0 {
		t.Errorf("unrelated env read flagged: %v", diags)
	}
}

func TestCtxParameterPosition(t *testing.T) {
	src := `package core
import "atom/internal/obs"
func LiftCtx(ctx *obs.Ctx, n int) {}          // good: position 0
func Bad(n int, ctx *obs.Ctx) {}              // bad: position 1
func BadShared(a, b int, ctx *obs.Ctx) {}     // bad: position 2
func unexported(n int, ctx *obs.Ctx) {}       // unexported: not checked
func NoCtx(a, b string) {}
`
	diags := check(t, "atom/internal/core", src)
	if len(diags) != 2 {
		t.Fatalf("want 2 diagnostics, got %v", diags)
	}
	wantDiag(t, diags, "exported function Bad takes *obs.Ctx at parameter position 1")
	wantDiag(t, diags, "exported function BadShared takes *obs.Ctx at parameter position 2")

	// Inside package obs the type is spelled *Ctx.
	obsSrc := `package obs
func Good(c *Ctx, n int) {}
func Bad(n int, c *Ctx) {}
`
	diags = check(t, "atom/internal/obs", obsSrc)
	if len(diags) != 1 {
		t.Fatalf("obs package: want 1 diagnostic, got %v", diags)
	}
	wantDiag(t, diags, "exported function Bad takes *obs.Ctx at parameter position 1")
}

// TestCtxTwin: an exported function or method whose whole body returns
// its own package's NameCtx(nil, ...) is flagged; facades into another
// package and differently named callees are not.
func TestCtxTwin(t *testing.T) {
	for _, tc := range []struct {
		name, src, want string
	}{
		{"function", `func Build(exe *aout.File) (*Program, error) { return BuildCtx(nil, exe) }`,
			"exported Build only returns BuildCtx(nil, ...)"},
		{"method", `func (l *Layout) Verify() []Diag { return l.VerifyCtx(nil) }`,
			"exported Verify only returns VerifyCtx(nil, ...)"},
		{"generic", `func Memo[T any](c *Cache, k Key) (T, error) { return MemoCtx(nil, c, k) }`,
			"exported Memo only returns MemoCtx(nil, ...)"},
		{"cross-package facade", `func Instrument(app *Executable) (*Result, error) { return core.InstrumentCtx(nil, app) }`, ""},
		{"other name", `func BuildProgram(name, src string) (*aout.File, error) { return BuildProgramMultiCtx(nil, map[string]string{name: src}) }`, ""},
		{"non-nil context", `func Build(exe *aout.File) (*Program, error) { return BuildCtx(defaultCtx, exe) }`, ""},
		{"more than a return", `func Build(exe *aout.File) (*Program, error) { check(exe); return BuildCtx(nil, exe) }`, ""},
		{"method through another value", `func (l *Layout) Verify() []Diag { return l.prog.VerifyCtx(nil) }`, ""},
		{"unexported", `func build(exe *aout.File) (*Program, error) { return buildCtx(nil, exe) }`, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			diags := check(t, "atom/internal/om", "package om\n"+tc.src+"\n")
			if tc.want == "" {
				if len(diags) != 0 {
					t.Errorf("flagged: %v", diags)
				}
				return
			}
			if len(diags) != 1 {
				t.Fatalf("want 1 diagnostic, got %v", diags)
			}
			wantDiag(t, diags, tc.want)
		})
	}
}

// TestStandaloneDriver seeds a violating file in a temp tree and runs
// the directory walker over it.
func TestStandaloneDriver(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "internal", "build")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package build
import "os"
func dir() string { return os.Getenv("ATOM_CACHE_DIR") }
`
	if err := os.WriteFile(filepath.Join(sub, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := runDirs([]string{dir}); code != 1 {
		t.Errorf("runDirs over a violating tree: exit %d, want 1", code)
	}
	if err := os.WriteFile(filepath.Join(sub, "bad.go"), []byte("package build\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := runDirs([]string{dir}); code != 0 {
		t.Errorf("runDirs over a clean tree: exit %d, want 0", code)
	}
}

// TestUnitProtocol exercises the vet.cfg path: the fact file is
// written even when the unit is clean, and a violating unit exits 2.
func TestUnitProtocol(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.go")
	if err := os.WriteFile(good, []byte("package build\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.go")
	src := `package build
import "os"
func dir() string { return os.Getenv("ATOM_CACHE_DIR") }
`
	if err := os.WriteFile(bad, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	writeCfg := func(name string, files []string, vetxOnly bool) (cfgPath, vetx string) {
		t.Helper()
		vetx = filepath.Join(dir, name+".vetx")
		cfg, err := json.Marshal(vetConfig{
			ImportPath: "atom/internal/build",
			GoFiles:    files,
			VetxOnly:   vetxOnly,
			VetxOutput: vetx,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfgPath = filepath.Join(dir, name+".cfg")
		if err := os.WriteFile(cfgPath, cfg, 0o644); err != nil {
			t.Fatal(err)
		}
		return cfgPath, vetx
	}

	cfg, vetx := writeCfg("good", []string{good}, false)
	if code := run([]string{cfg}); code != 0 {
		t.Errorf("clean unit: exit %d, want 0", code)
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("fact file not written for clean unit: %v", err)
	}

	cfg, _ = writeCfg("bad", []string{bad}, false)
	if code := run([]string{cfg}); code != 2 {
		t.Errorf("violating unit: exit %d, want 2", code)
	}

	// VetxOnly units produce facts, never diagnostics.
	cfg, vetx = writeCfg("dep", []string{bad}, true)
	if code := run([]string{cfg}); code != 0 {
		t.Errorf("vetx-only unit: exit %d, want 0", code)
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("fact file not written for vetx-only unit: %v", err)
	}
}
