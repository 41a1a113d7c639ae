package core_test

import (
	"fmt"
	"strings"
	"testing"

	"atom/internal/aout"
	"atom/internal/core"
	"atom/internal/rtl"
	"atom/internal/vm"
)

// branchCountTool is the paper's Section 3 example: count how many times
// each conditional branch is taken and not taken, writing the results to
// a file. The analysis routines are a direct port of Figure 3; the
// instrumentation routine is a direct port of Figure 2.
func branchCountTool() core.Tool {
	return core.Tool{
		Name: "branchcount",
		Analysis: map[string]string{
			"anal.c": `
#include <stdio.h>
#include <stdlib.h>

FILE *file;

struct BranchInfo {
	long taken;
	long notTaken;
};
struct BranchInfo *bstats;

void OpenFile(long n) {
	bstats = (struct BranchInfo *) malloc(n * sizeof(struct BranchInfo));
	file = fopen("btaken.out", "w");
	fprintf(file, "PC\tTaken\tNot Taken\n");
}

void CondBranch(long n, long taken) {
	if (taken) bstats[n].taken++;
	else bstats[n].notTaken++;
}

void PrintBranch(long n, long pc) {
	fprintf(file, "0x%lx\t%d\t%d\n", pc, bstats[n].taken, bstats[n].notTaken);
}

void CloseFile(void) {
	fclose(file);
}
`,
		},
		Instrument: func(q *core.Instrumentation) error {
			if err := q.AddCallProto("OpenFile(int)"); err != nil {
				return err
			}
			if err := q.AddCallProto("CondBranch(int, VALUE)"); err != nil {
				return err
			}
			if err := q.AddCallProto("PrintBranch(int, long)"); err != nil {
				return err
			}
			if err := q.AddCallProto("CloseFile()"); err != nil {
				return err
			}
			nbranch := 0
			for p := q.GetFirstProc(); p != nil; p = q.GetNextProc(p) {
				for b := q.GetFirstBlock(p); b != nil; b = q.GetNextBlock(b) {
					inst := q.GetLastInst(b)
					if q.IsInstType(inst, core.InstTypeCondBr) {
						if err := q.AddCallInst(inst, core.InstBefore, "CondBranch", nbranch, core.BrCondValue); err != nil {
							return err
						}
						if err := q.AddCallProgram(core.ProgramAfter, "PrintBranch", nbranch, int64(q.InstPC(inst))); err != nil {
							return err
						}
						nbranch++
					}
				}
			}
			if err := q.AddCallProgram(core.ProgramBefore, "OpenFile", nbranch); err != nil {
				return err
			}
			return q.AddCallProgram(core.ProgramAfter, "CloseFile")
		},
	}
}

func buildApp(t *testing.T, src string) *aout.File {
	t.Helper()
	exe, err := rtl.BuildProgram("app.c", src)
	if err != nil {
		t.Fatalf("build app: %v", err)
	}
	return exe
}

func runExe(t *testing.T, exe *aout.File, cfg vm.Config) *vm.Machine {
	t.Helper()
	m, err := vm.New(exe, cfg)
	if err != nil {
		t.Fatalf("vm: %v", err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("run: %v (stdout=%q stderr=%q)", err, m.Stdout, m.Stderr)
	}
	return m
}

const loopApp = `
#include <stdio.h>
int main() {
	long i;
	long s = 0;
	for (i = 0; i < 10; i++) s += i;
	printf("s=%d\n", s);
	return 0;
}
`

func TestPaperBranchExample(t *testing.T) {
	app := buildApp(t, loopApp)
	ref := runExe(t, app, vm.Config{})

	res, err := core.InstrumentCtx(nil, app, branchCountTool(), core.Options{})
	if err != nil {
		t.Fatalf("Instrument: %v", err)
	}
	m := runExe(t, res.Exe, vm.Config{})

	// The application's own behavior is unperturbed.
	if string(m.Stdout) != string(ref.Stdout) {
		t.Errorf("stdout changed: %q vs %q", m.Stdout, ref.Stdout)
	}

	out, ok := m.FSOut["btaken.out"]
	if !ok {
		t.Fatalf("btaken.out not written; files = %v", m.Paths())
	}
	text := string(out)
	if !strings.HasPrefix(text, "PC\tTaken\tNot Taken\n") {
		t.Fatalf("missing header: %q", text)
	}
	lines := strings.Split(strings.TrimSpace(text), "\n")[1:]
	if len(lines) < 10 {
		t.Fatalf("only %d branch records", len(lines))
	}
	// The for-loop back-edge branch in main must show 10 taken / 1 not
	// (or 9/1 depending on loop shape): find a line with taken+not == 10
	// or 11 and taken >= 9. More robustly: totals must be plausible and
	// at least one branch fired exactly 11 times (i<10 evaluated 11x).
	found := false
	for _, ln := range lines {
		var pc string
		var taken, not int
		if _, err := fmt.Sscanf(ln, "%s\t%d\t%d", &pc, &taken, &not); err != nil {
			t.Fatalf("bad line %q: %v", ln, err)
		}
		if taken+not == 11 {
			found = true
		}
	}
	if !found {
		t.Errorf("no branch executed exactly 11 times (the loop condition should):\n%s", text)
	}
}

func TestBranchToolBothSaveModes(t *testing.T) {
	app := buildApp(t, loopApp)
	var outs []string
	var counts []uint64
	for _, opts := range []core.Options{
		{Mode: core.SaveWrapper},
		{Mode: core.SaveInAnalysis},
		{Mode: core.SaveWrapper, NoRegSummary: true},
	} {
		res, err := core.InstrumentCtx(nil, app, branchCountTool(), opts)
		if err != nil {
			t.Fatalf("Instrument(%+v): %v", opts, err)
		}
		m := runExe(t, res.Exe, vm.Config{})
		outs = append(outs, string(m.FSOut["btaken.out"]))
		counts = append(counts, m.Icount)
	}
	if outs[0] != outs[1] || outs[0] != outs[2] {
		t.Errorf("save modes disagree:\n--- wrapper ---\n%s\n--- in-analysis ---\n%s\n--- no-summary ---\n%s", outs[0], outs[1], outs[2])
	}
	// SaveInAnalysis calls directly (no wrapper hop) => fewer dynamic
	// instructions than wrapper mode; no-summary saves more registers =>
	// more instructions than the summary-based wrapper mode.
	if !(counts[1] < counts[0]) {
		t.Errorf("in-analysis mode (%d) not cheaper than wrapper mode (%d)", counts[1], counts[0])
	}
	if !(counts[2] > counts[0]) {
		t.Errorf("no-summary (%d) not costlier than summary (%d)", counts[2], counts[0])
	}
}
