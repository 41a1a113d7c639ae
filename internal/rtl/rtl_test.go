package rtl_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"atom/internal/rtl"
	"atom/internal/vm"
)

func TestHeadersPresent(t *testing.T) {
	hdrs, err := rtl.Headers()
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"stdio.h", "stdlib.h", "string.h"} {
		if _, ok := hdrs[h]; !ok {
			t.Errorf("header %s missing", h)
		}
	}
}

func TestLibraryShape(t *testing.T) {
	lib, err := rtl.LibCtx(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(lib.Members) < 4 {
		t.Errorf("library has %d members", len(lib.Members))
	}
	// crt0 must not be a library member (it is linked explicitly).
	for _, m := range lib.Members {
		if _, ok := m.Lookup("__start"); ok {
			t.Error("crt0 leaked into the archive")
		}
	}
	c0, err := rtl.Crt0Ctx(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c0.Lookup("__start"); !ok {
		t.Error("crt0 lacks __start")
	}
	// The paper-critical symbols exist somewhere in the archive.
	want := map[string]bool{"printf": false, "malloc": false, "sbrk": false, "__divq": false, "exit": false}
	for _, m := range lib.Members {
		for name := range want {
			if _, ok := m.Lookup(name); ok {
				want[name] = true
			}
		}
	}
	for name, found := range want {
		if !found {
			t.Errorf("library lacks %s", name)
		}
	}
}

func run(t *testing.T, src string, cfg vm.Config) *vm.Machine {
	t.Helper()
	exe, err := rtl.BuildProgram("t.c", src)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	m, err := vm.New(exe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("run: %v (stdout=%q)", err, m.Stdout)
	}
	return m
}

// TestDivisionDifferential compares the software divide routines against
// Go's semantics on random operands, via an embedded table and a rolling
// hash computed on both sides.
func TestDivisionDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(20260704))
	type pair struct{ a, b int64 }
	var pairs []pair
	for i := 0; i < 150; i++ {
		var a, b int64
		switch i % 4 {
		case 0:
			a, b = int64(r.Uint64()), int64(r.Uint64())
		case 1:
			a, b = r.Int63n(1000)-500, r.Int63n(20)-10
		case 2:
			a, b = int64(r.Uint64()), r.Int63n(7)+1
		default:
			a, b = r.Int63(), -(r.Int63n(1<<30))-1
		}
		if b == 0 {
			b = 3
		}
		pairs = append(pairs, pair{a, b})
	}

	var sb strings.Builder
	sb.WriteString("#include <stdio.h>\n#include <stdlib.h>\n")
	fmt.Fprintf(&sb, "long as[%d] = {", len(pairs))
	for _, p := range pairs {
		fmt.Fprintf(&sb, "%d,", p.a)
	}
	sb.WriteString("};\n")
	fmt.Fprintf(&sb, "long bs[%d] = {", len(pairs))
	for _, p := range pairs {
		fmt.Fprintf(&sb, "%d,", p.b)
	}
	sb.WriteString("};\n")
	fmt.Fprintf(&sb, `
int main() {
	long h = 0;
	long i;
	for (i = 0; i < %d; i++) {
		long a = as[i];
		long b = bs[i];
		h = h * 1099511628211 + a / b;
		h = h * 1099511628211 + a %% b;
		h = h * 1099511628211 + __udivq(a, b);
		h = h * 1099511628211 + __uremq(a, b);
		h = h * 1099511628211 + __udiv10(a);
	}
	printf("%%x %%x\n", (h >> 32) & 0xffffffff, h & 0xffffffff);
	return 0;
}
`, len(pairs))

	var want int64
	const fnv = 1099511628211
	for _, p := range pairs {
		want = want*fnv + p.a/p.b
		want = want*fnv + p.a%p.b
		want = want*fnv + int64(uint64(p.a)/uint64(p.b))
		want = want*fnv + int64(uint64(p.a)%uint64(p.b))
		want = want*fnv + int64(uint64(p.a)/10)
	}
	m := run(t, sb.String(), vm.Config{})
	got := strings.TrimSpace(string(m.Stdout))
	wantStr := fmt.Sprintf("%x %x", uint32(uint64(want)>>32), uint32(uint64(want)))
	if got != wantStr {
		t.Errorf("division hash mismatch: VM %q, Go %q", got, wantStr)
	}
}

// TestMallocSplitsAndReuses inspects allocator behavior directly.
func TestMallocSplitsAndReuses(t *testing.T) {
	m := run(t, `
#include <stdio.h>
#include <stdlib.h>
int main() {
	/* A big block, freed, must satisfy subsequent smaller requests
	   (first-fit with splitting). */
	char *big = malloc(10000);
	long before = (long)sbrk(0);
	free(big);
	char *a = malloc(3000);
	char *b = malloc(3000);
	char *c = malloc(3000);
	long after = (long)sbrk(0);
	printf("%d %d %d %d\n",
		after == before,                 /* no new sbrk needed */
		a >= big && a < big + 10000,
		b >= big && b < big + 10000,
		c >= big && c < big + 10000);
	/* Write into all three (catches overlap). */
	long i;
	for (i = 0; i < 3000; i++) { a[i] = 1; b[i] = 2; c[i] = 3; }
	printf("%d %d %d\n", a[2999], b[0], c[1500]);
	return 0;
}`, vm.Config{})
	want := "1 1 1 1\n1 2 3\n"
	if string(m.Stdout) != want {
		t.Errorf("stdout = %q, want %q", m.Stdout, want)
	}
}

func TestStdioEdgeCases(t *testing.T) {
	m := run(t, `
#include <stdio.h>
int main() {
	/* fopen failure paths */
	FILE *missing = fopen("absent.txt", "r");
	printf("%d\n", missing == NULL);
	/* fgetc through EOF */
	FILE *in = fopen("three.txt", "r");
	long n = 0;
	while (fgetc(in) != EOF) n++;
	printf("%d %d\n", n, fgetc(in));
	fclose(in);
	/* fputs + fwrite */
	FILE *out = fopen("o.txt", "w");
	fputs("ab", out);
	fwrite("cdef", 1, 3, out);
	fclose(out);
	return 0;
}`, vm.Config{FS: map[string][]byte{"three.txt": []byte("xyz")}})
	if string(m.Stdout) != "1\n3 -1\n" {
		t.Errorf("stdout = %q", m.Stdout)
	}
	if string(m.FSOut["o.txt"]) != "abcde" {
		t.Errorf("o.txt = %q", m.FSOut["o.txt"])
	}
}

// TestStdinReading covers getchar over the VM's stdin stream.
func TestStdinReading(t *testing.T) {
	m := run(t, `
#include <stdio.h>
int main() {
	long sum = 0;
	int c = getchar();
	while (c != EOF) { sum += c; c = getchar(); }
	printf("%d\n", sum);
	return 0;
}`, vm.Config{Stdin: []byte("AB\n")})
	if string(m.Stdout) != fmt.Sprintf("%d\n", 'A'+'B'+'\n') {
		t.Errorf("stdout = %q", m.Stdout)
	}
}
