// Cachesim: the paper's cache tool driven across a geometry sweep.
//
// The motivating use case from the paper's introduction — "computer
// architects need such tools to evaluate how well programs will perform
// on new architectures" — is answered by instrumenting once per
// configuration and reading the miss rate out of the analysis report.
// The workload walks a matrix both row-major and column-major, so the
// crossover between the two access patterns appears as the cache grows.
//
//	go run ./examples/cachesim
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"atom"
)

const workload = `
#include <stdio.h>
#define R 64
#define C 96
long m[R][C];
int main() {
	long r, c, pass;
	long sum = 0;
	for (pass = 0; pass < 4; pass++) {
		for (r = 0; r < R; r++)        /* row-major: friendly */
			for (c = 0; c < C; c++)
				sum += m[r][c]++;
		for (c = 0; c < C; c++)        /* column-major: hostile */
			for (r = 0; r < R; r++)
				sum += m[r][c] * 3;
	}
	printf("sum=%d\n", sum & 0xffffff);
	return 0;
}
`

func main() {
	noInline := flag.Bool("noinline", false, "disable the analysis-routine inliner")
	flag.Parse()

	app, err := atom.BuildProgram(map[string]string{"matrix.c": workload})
	check(err)
	tool, err := atom.ToolByName("cache")
	check(err)

	fmt.Println("direct-mapped cache, 32-byte lines; workload: row+column matrix sweeps")
	fmt.Printf("%10s %12s %10s %10s\n", "cache", "references", "misses", "missrate")
	for _, size := range []int{1 << 10, 4 << 10, 8 << 10, 16 << 10, 64 << 10, 256 << 10} {
		res, err := atom.Instrument(app, tool, atom.Options{
			ToolArgs: []string{strconv.Itoa(size), "32"},
			NoInline: *noInline,
		})
		check(err)
		out, err := atom.RunProgram(res.Exe, atom.RunConfig{})
		check(err)
		report := string(out.Files["cache.out"])
		fmt.Printf("%9dK %12s %10s %9s%%\n", size/1024,
			field(report, "references"), field(report, "misses"), missPct(report))
	}
}

// field pulls "<label>: value" out of the tool report.
func field(report, label string) string {
	for _, ln := range strings.Split(report, "\n") {
		if strings.HasPrefix(ln, label+":") {
			return strings.TrimSpace(strings.TrimPrefix(ln, label+":"))
		}
	}
	return "?"
}

func missPct(report string) string {
	v := field(report, "miss rate") // "N/10000"
	n := strings.Split(v, "/")[0]
	i, err := strconv.Atoi(n)
	if err != nil {
		return "?"
	}
	return fmt.Sprintf("%d.%02d", i/100, i%100)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cachesim:", err)
		os.Exit(1)
	}
}
