package atom_test

// Integration tests through the public facade: the full pipeline a
// downstream user runs, plus cross-tool consistency checks over the
// workload suite.

import (
	"bytes"
	"strings"
	"testing"

	"atom"
	"atom/internal/alpha"
	"atom/internal/core"
	"atom/internal/spec"
)

func TestFacadePipeline(t *testing.T) {
	app, err := atom.BuildProgram(map[string]string{"app.c": `
#include <stdio.h>
int main() {
	long i;
	long s = 0;
	for (i = 0; i < 200; i++) s += i & 7;
	printf("s=%d\n", s);
	return 0;
}
`})
	if err != nil {
		t.Fatal(err)
	}
	base, err := atom.RunProgram(app, atom.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if string(base.Stdout) != "s=700\n" || base.ExitCode != 0 {
		t.Fatalf("baseline: %q exit %d", base.Stdout, base.ExitCode)
	}

	for _, name := range atom.ToolNames() {
		tool, err := atom.ToolByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := atom.Instrument(app, tool, atom.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out, err := atom.RunProgram(res.Exe, atom.RunConfig{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(out.Stdout) != string(base.Stdout) {
			t.Errorf("%s perturbed stdout: %q", name, out.Stdout)
		}
		if _, ok := out.Files[name+".out"]; !ok {
			t.Errorf("%s: report missing", name)
		}
	}
}

// TestBuildToolImageThenApply: the paper's two steps, BuildToolImage
// once and then Apply, write the same bytes as Instrument for every
// built-in tool.
func TestBuildToolImageThenApply(t *testing.T) {
	app, err := spec.BuildCtx(nil, "queens")
	if err != nil {
		t.Fatal(err)
	}
	for _, tool := range atom.Tools() {
		t.Run(tool.Name, func(t *testing.T) {
			want, err := atom.Instrument(app, tool, atom.Options{})
			if err != nil {
				t.Fatalf("Instrument: %v", err)
			}
			ti, err := atom.BuildToolImage(tool, atom.Options{})
			if err != nil {
				t.Fatalf("BuildToolImage: %v", err)
			}
			got, err := atom.Apply(app, ti, atom.Options{})
			if err != nil {
				t.Fatalf("Apply: %v", err)
			}
			if !bytes.Equal(got.Exe.Encode(), want.Exe.Encode()) {
				t.Fatal("BuildToolImage + Apply differs from Instrument")
			}
		})
	}
}

func TestToolByNameUnknown(t *testing.T) {
	if _, err := atom.ToolByName("nonesuch"); err == nil {
		t.Error("ToolByName(nonesuch) succeeded")
	}
	if got := len(atom.Tools()); got != 11 {
		t.Errorf("Tools() = %d, want 11", got)
	}
}

// TestMultiFileApplication links a program from several MiniC sources.
func TestMultiFileApplication(t *testing.T) {
	app, err := atom.BuildProgram(map[string]string{
		"main.c": `
#include <stdio.h>
extern long triple(long v);
extern long offset;
int main() { printf("%d\n", triple(7) + offset); return 0; }
`,
		"lib.c": `
long offset = 4;
long triple(long v) { return 3 * v; }
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := atom.RunProgram(app, atom.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if string(out.Stdout) != "25\n" {
		t.Errorf("stdout = %q", out.Stdout)
	}
}

// TestCrossToolConsistency instruments one suite program with dyninst,
// prof and pipe and cross-checks their instruction accounting.
func TestCrossToolConsistency(t *testing.T) {
	exe, err := spec.BuildCtx(nil, "queens")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]string{}
	for _, name := range []string{"dyninst", "pipe"} {
		tool, _ := atom.ToolByName(name)
		res, err := atom.Instrument(exe, tool, atom.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out, err := atom.RunProgram(res.Exe, atom.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		report := string(out.Files[name+".out"])
		for _, ln := range strings.Split(report, "\n") {
			if strings.HasPrefix(ln, "dynamic instructions:") {
				counts[name] = strings.TrimSpace(strings.TrimPrefix(ln, "dynamic instructions:"))
			}
		}
	}
	if counts["dyninst"] == "" || counts["dyninst"] != counts["pipe"] {
		t.Errorf("tools disagree on dynamic instructions: %v", counts)
	}
}

// TestCustomToolWithRegV exercises the facade path for a user-authored
// tool using register values and both save modes.
func TestCustomToolWithRegV(t *testing.T) {
	app, err := atom.BuildProgram(map[string]string{"app.c": `
long work(long a, long b) { return a * b + 1; }
int main() {
	long i;
	long s = 0;
	for (i = 0; i < 20; i++) s += work(i, i + 1);
	return s & 0x7f;
}
`})
	if err != nil {
		t.Fatal(err)
	}
	tool := atom.Tool{
		Name: "argsum",
		Analysis: map[string]string{"a.c": `
#include <stdio.h>
long sum;
void SeeCall(long a, long b) { sum += a + b; }
void Done(void) { printf("argsum=%d\n", sum); }
`},
		Instrument: func(q *atom.Instrumentation) error {
			if err := q.AddCallProto("SeeCall(REGV, REGV)"); err != nil {
				return err
			}
			if err := q.AddCallProto("Done()"); err != nil {
				return err
			}
			for p := q.GetFirstProc(); p != nil; p = q.GetNextProc(p) {
				if q.ProcName(p) == "work" {
					if err := q.AddCallProc(p, atom.ProcBefore, "SeeCall",
						core.RegV(alpha.A0), core.RegV(alpha.A1)); err != nil {
						return err
					}
				}
			}
			return q.AddCallProgram(atom.ProgramAfter, "Done")
		},
	}
	// sum over i=0..19 of (i + i+1) = 2*(190) + 20 = 400.
	for _, mode := range []core.SaveMode{atom.SaveWrapper, atom.SaveInAnalysis} {
		res, err := atom.Instrument(app, tool, atom.Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		out, err := atom.RunProgram(res.Exe, atom.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(out.Stdout), "argsum=400\n") {
			t.Errorf("mode %v: stdout = %q, want argsum=400", mode, out.Stdout)
		}
	}
}
