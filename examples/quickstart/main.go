// Quickstart: the paper's Section 3 example, end to end.
//
// It builds a small application, defines the branch-counting tool of
// Figures 2 and 3 — instrumentation routine in Go against the ATOM API,
// analysis routines in MiniC, ported nearly verbatim from the paper —
// instruments the application, runs it, and prints btaken.out.
//
//	go run ./examples/quickstart
package main

import (
	"flag"
	"fmt"
	"os"

	"atom"
	"atom/internal/core"
)

const application = `
#include <stdio.h>

long collatz(long n) {
	long steps = 0;
	while (n != 1) {
		if (n & 1) n = 3 * n + 1;
		else n = n / 2;
		steps++;
	}
	return steps;
}

int main() {
	long longest = 0;
	long which = 0;
	long n;
	for (n = 1; n <= 60; n++) {
		long s = collatz(n);
		if (s > longest) { longest = s; which = n; }
	}
	printf("longest collatz chain under 60: n=%d steps=%d\n", which, longest);
	return 0;
}
`

// analysisRoutines is Figure 3 of the paper, in MiniC.
const analysisRoutines = `
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
	fprintf(file, "0x%x\t%d\t%d\n", pc, bstats[n].taken, bstats[n].notTaken);
}

void CloseFile(void) {
	fclose(file);
}
`

func main() {
	noInline := flag.Bool("noinline", false, "disable the analysis-routine inliner")
	flag.Parse()

	// Step 0: build the application ("user application" + "standard
	// linker" boxes of Figure 1).
	app, err := atom.BuildProgram(map[string]string{"app.c": application})
	check(err)

	// The tool: Figure 2's instrumentation routine plus Figure 3's
	// analysis routines.
	tool := atom.Tool{
		Name:     "btaken",
		Analysis: map[string]string{"anal.c": analysisRoutines},
		Instrument: func(q *atom.Instrumentation) error {
			for _, proto := range []string{
				"OpenFile(int)", "CondBranch(int, VALUE)",
				"PrintBranch(int, long)", "CloseFile()",
			} {
				if err := q.AddCallProto(proto); err != nil {
					return err
				}
			}
			nbranch := 0
			for p := q.GetFirstProc(); p != nil; p = q.GetNextProc(p) {
				for b := q.GetFirstBlock(p); b != nil; b = q.GetNextBlock(b) {
					inst := q.GetLastInst(b)
					if q.IsInstType(inst, core.InstTypeCondBr) {
						if err := q.AddCallInst(inst, atom.InstBefore, "CondBranch",
							nbranch, atom.BrCondValue); err != nil {
							return err
						}
						if err := q.AddCallProgram(atom.ProgramAfter, "PrintBranch",
							nbranch, int64(q.InstPC(inst))); err != nil {
							return err
						}
						nbranch++
					}
				}
			}
			if err := q.AddCallProgram(atom.ProgramBefore, "OpenFile", nbranch); err != nil {
				return err
			}
			return q.AddCallProgram(atom.ProgramAfter, "CloseFile")
		},
	}

	// Step 1+2 of Figure 1: build the custom tool and apply it.
	res, err := atom.Instrument(app, tool, atom.Options{NoInline: *noInline})
	check(err)
	fmt.Printf("instrumented: %d call sites, text %d -> %d bytes\n\n",
		res.Stats.Calls, res.Stats.OrigText, res.Stats.InstrText)

	// Run the instrumented program: branch statistics fall out as a side
	// effect of normal execution — no traces, no postprocessing.
	out, err := atom.RunProgram(res.Exe, atom.RunConfig{})
	check(err)
	fmt.Printf("application output (unperturbed):\n%s\n", out.Stdout)
	fmt.Printf("analysis output (btaken.out):\n%s", out.Files["btaken.out"])
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}
