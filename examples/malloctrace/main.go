// Malloctrace: a custom allocation-tracing tool demonstrating the two
// dynamic-memory schemes of Section 4.
//
// The tool records every application malloc in a linked list — so the
// *analysis itself* allocates memory on every event. With the default
// linked-sbrk scheme those allocations interleave with the application's
// and shift its heap addresses; with the partitioned scheme
// (Options.HeapOffset) the application's heap addresses are identical to
// the uninstrumented run. This is exactly the case the paper's second
// scheme exists for: "tools that allocate dynamic memory and also
// require heap addresses to be same as in the uninstrumented version".
//
//	go run ./examples/malloctrace
package main

import (
	"fmt"
	"os"

	"atom"
	"atom/internal/alpha"
	"atom/internal/core"
)

const workload = `
#include <stdio.h>
#include <stdlib.h>
int main() {
	long i;
	char *first = malloc(24);
	char *p = first;
	for (i = 1; i <= 300; i++) {
		p = malloc((i * 37) % 4000 + 1);
		if ((i % 3) == 0) free(p);
	}
	printf("first=%p last=%p\n", first, p);
	return 0;
}
`

// The analysis allocates a record per event (the interesting part) and
// prints a histogram at exit.
const analysis = `
#include <stdio.h>
#include <stdlib.h>

struct rec {
	long size;
	struct rec *next;
};
struct rec *head;
long events;

void TraceMalloc(long size) {
	struct rec *r = (struct rec *) malloc(sizeof(struct rec));
	r->size = size;
	r->next = head;
	head = r;
	events++;
}

void TraceDone(void) {
	FILE *f = fopen("mtrace.out", "w");
	long buckets[16];
	long i;
	for (i = 0; i < 16; i++) buckets[i] = 0;
	struct rec *r = head;
	long total = 0;
	while (r) {
		long b = 0;
		long cap = 16;
		while (r->size > cap && b < 15) { cap = cap * 2; b++; }
		buckets[b]++;
		total += r->size;
		r = r->next;
	}
	fprintf(f, "events: %d\n", events);
	fprintf(f, "bytes: %d\n", total);
	long cap = 16;
	for (i = 0; i < 16; i++) {
		if (buckets[i]) fprintf(f, "<=%d\t%d\n", cap, buckets[i]);
		cap = cap * 2;
	}
	fclose(f);
}
`

func tracingTool() atom.Tool {
	return atom.Tool{
		Name:     "mtrace",
		Analysis: map[string]string{"mtrace.c": analysis},
		Instrument: func(q *atom.Instrumentation) error {
			if err := q.AddCallProto("TraceMalloc(REGV)"); err != nil {
				return err
			}
			if err := q.AddCallProto("TraceDone()"); err != nil {
				return err
			}
			for p := q.GetFirstProc(); p != nil; p = q.GetNextProc(p) {
				if q.ProcName(p) == "malloc" {
					if err := q.AddCallProc(p, atom.ProcBefore, "TraceMalloc",
						core.RegV(alpha.A0)); err != nil {
						return err
					}
				}
			}
			return q.AddCallProgram(atom.ProgramAfter, "TraceDone")
		},
	}
}

func main() {
	app, err := atom.BuildProgram(map[string]string{"churn.c": workload})
	check(err)
	ref, err := atom.RunProgram(app, atom.RunConfig{})
	check(err)
	fmt.Printf("uninstrumented:             %s", ref.Stdout)

	tool := tracingTool()

	// Scheme 1 (default): linked sbrks — analysis records interleave with
	// application allocations, shifting its addresses.
	res, err := atom.Instrument(app, tool, atom.Options{})
	check(err)
	linked, err := atom.RunProgram(res.Exe, atom.RunConfig{})
	check(err)
	fmt.Printf("instrumented (linked):      %s", linked.Stdout)

	// Scheme 2: partitioned heap — application addresses pristine. The
	// executable records its zone offset, so it runs like any other.
	res2, err := atom.Instrument(app, tool, atom.Options{HeapOffset: 8 << 20})
	check(err)
	part, err := atom.RunProgram(res2.Exe, atom.RunConfig{})
	check(err)
	fmt.Printf("instrumented (partitioned): %s", part.Stdout)

	switch {
	case string(part.Stdout) != string(ref.Stdout):
		fmt.Println("!! partitioned heap failed to preserve addresses")
		os.Exit(1)
	case string(linked.Stdout) == string(ref.Stdout):
		fmt.Println("(note: linked scheme happened not to perturb this run)")
	default:
		fmt.Println("-> linked sbrks shifted the application heap; the partitioned scheme preserved it")
	}
	fmt.Printf("\nallocation trace summary (mtrace.out):\n%s", part.Files["mtrace.out"])
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "malloctrace:", err)
		os.Exit(1)
	}
}
