package atom_test

import (
	"fmt"
	"log"

	"atom"
)

// Example builds a tiny application, instruments it with a one-procedure
// counting tool, and reads the analysis result — the complete ATOM
// pipeline in a dozen lines.
func Example() {
	app, err := atom.BuildProgram(map[string]string{"app.c": `
int work(int n) { return n * 2; }
int main() {
	long i;
	long s = 0;
	for (i = 0; i < 5; i++) s += work(i);
	return s;
}
`})
	if err != nil {
		log.Fatal(err)
	}
	tool := atom.Tool{
		Name: "count",
		Analysis: map[string]string{"count.c": `
#include <stdio.h>
long calls;
void Count(void) { calls++; }
void Done(void) { printf("work called %d times\n", calls); }
`},
		Instrument: func(q *atom.Instrumentation) error {
			if err := q.AddCallProto("Count()"); err != nil {
				return err
			}
			if err := q.AddCallProto("Done()"); err != nil {
				return err
			}
			for p := q.GetFirstProc(); p != nil; p = q.GetNextProc(p) {
				if q.ProcName(p) == "work" {
					if err := q.AddCallProc(p, atom.ProcBefore, "Count"); err != nil {
						return err
					}
				}
			}
			return q.AddCallProgram(atom.ProgramAfter, "Done")
		},
	}
	res, err := atom.Instrument(app, tool, atom.Options{})
	if err != nil {
		log.Fatal(err)
	}
	out, err := atom.RunProgram(res.Exe, atom.RunConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s", out.Stdout)
	fmt.Printf("exit %d\n", out.ExitCode)
	// Output:
	// work called 5 times
	// exit 20
}
