package cc_test

// Execution tests: compile MiniC with the real runtime library, run on
// the VM, and check observable behavior. This is the deep end-to-end
// validation of the compiler substrate that the ATOM reproduction's
// analysis routines are written in.

import (
	"strings"
	"testing"

	"atom/internal/cc"
	"atom/internal/rtl"
	"atom/internal/vm"
)

func runProg(t *testing.T, src string, cfg vm.Config) (*vm.Machine, int) {
	t.Helper()
	exe, err := rtl.BuildProgram("test.c", src)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	m, err := vm.New(exe, cfg)
	if err != nil {
		t.Fatalf("vm: %v", err)
	}
	code, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v (stdout=%q stderr=%q)", err, m.Stdout, m.Stderr)
	}
	return m, code
}

func TestPrograms(t *testing.T) {
	cases := []struct {
		name string
		src  string
		out  string
		code int
	}{
		{
			name: "arith_precedence",
			src: `#include <stdio.h>
int main() {
	printf("%d %d %d %d\n", 2+3*4, (2+3)*4, 10-2-3, 100/5/2);
	printf("%d %d\n", 7%3, -7%3);
	printf("%d %d %d\n", 1<<10, 1024>>3, -16>>2);
	printf("%d %d %d\n", 0xff & 0x0f, 0xf0 | 0x0f, 0xff ^ 0x0f);
	return 0;
}`,
			out: "14 20 5 10\n1 -1\n1024 128 -4\n15 255 240\n",
		},
		{
			name: "division_signs",
			src: `#include <stdio.h>
int main() {
	printf("%d %d %d %d\n", 17/5, -17/5, 17/-5, -17/-5);
	printf("%d %d %d %d\n", 17%5, -17%5, 17%-5, -17%-5);
	printf("%d\n", 1000000000000 / 1000000);
	return 0;
}`,
			out: "3 -3 -3 3\n2 -2 2 -2\n1000000\n",
		},
		{
			name: "comparisons_logical",
			src: `#include <stdio.h>
int side = 0;
int bump() { side++; return 1; }
int main() {
	printf("%d%d%d%d%d%d\n", 1<2, 2<=2, 3>2, 2>=3, 1==1, 1!=1);
	if (0 && bump()) {}
	if (1 || bump()) {}
	printf("side=%d\n", side);
	if (1 && bump()) {}
	if (0 || bump()) {}
	printf("side=%d\n", side);
	printf("%d %d %d\n", !0, !5, !!7);
	return 0;
}`,
			out: "111010\nside=0\nside=2\n1 0 1\n",
		},
		{
			name: "loops",
			src: `#include <stdio.h>
int main() {
	long s = 0;
	long i;
	for (i = 1; i <= 100; i++) s += i;
	printf("%d\n", s);
	s = 0; i = 0;
	while (i < 10) { i++; if (i == 3) continue; if (i == 8) break; s += i; }
	printf("%d %d\n", s, i);
	s = 0;
	do { s++; } while (s < 5);
	printf("%d\n", s);
	return 0;
}`,
			out: "5050\n25 8\n5\n",
		},
		{
			name: "recursion",
			src: `#include <stdio.h>
long fib(long n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
long isEven(long n);
long isOdd(long n) { if (n == 0) return 0; return isEven(n-1); }
long isEven(long n) { if (n == 0) return 1; return isOdd(n-1); }
int main() {
	printf("%d %d %d\n", fib(10), fib(20), isEven(41) + 2*isOdd(41));
	return 0;
}`,
			out: "55 6765 2\n",
		},
		{
			name: "pointers",
			src: `#include <stdio.h>
int main() {
	long x = 5;
	long *p = &x;
	*p = 7;
	long arr[5];
	long i;
	for (i = 0; i < 5; i++) arr[i] = i * i;
	long *q = arr + 1;
	printf("%d %d %d %d\n", x, *q, q[2], *(arr + 4));
	printf("%d\n", (arr + 4) - arr);
	q = arr;
	q++;
	++q;
	printf("%d %d\n", *q, *--q);
	return 0;
}`,
			out: "7 1 9 16\n4\n4 1\n",
		},
		{
			name: "arrays_2d",
			src: `#include <stdio.h>
long m[3][4];
int main() {
	long i, j, s;
	for (i = 0; i < 3; i++)
		for (j = 0; j < 4; j++)
			m[i][j] = i * 10 + j;
	s = 0;
	for (i = 0; i < 3; i++) s += m[i][3];
	printf("%d %d %d\n", s, m[2][1], sizeof(m));
	return 0;
}`,
			out: "39 21 96\n",
		},
		{
			name: "structs",
			src: `#include <stdio.h>
#include <stdlib.h>
struct point { long x; long y; char tag; };
struct node { long val; struct node *next; };
struct point grid[4];
int main() {
	struct point p;
	p.x = 3; p.y = 4; p.tag = 'A';
	struct point *pp = &p;
	pp->x += 10;
	printf("%d %d %c %d\n", p.x, p.y, p.tag, sizeof(struct point));
	grid[2].x = 9;
	printf("%d %d\n", grid[2].x, grid[1].x);
	struct node *head = (struct node *)0;
	long i;
	for (i = 0; i < 5; i++) {
		struct node *n = (struct node *)malloc(sizeof(struct node));
		n->val = i;
		n->next = head;
		head = n;
	}
	long s = 0;
	while (head) { s = s * 10 + head->val; head = head->next; }
	printf("%d\n", s);
	return 0;
}`,
			out: "13 4 A 24\n9 0\n43210\n",
		},
		{
			name: "char_semantics",
			src: `#include <stdio.h>
int main() {
	char c = 255;
	c = c + 2;
	printf("%d\n", c);
	char buf[4];
	buf[0] = 'h'; buf[1] = 'i'; buf[2] = 0;
	printf("%s %d\n", buf, 'z' - 'a');
	char big = 300;
	printf("%d\n", big);
	return 0;
}`,
			out: "1\nhi 25\n44\n",
		},
		{
			name: "globals",
			src: `#include <stdio.h>
long counter = 100;
long table[5] = {2, 3, 5, 7};
char *msg = "global string";
long bss_arr[100];
static long file_local = 7;
long *ptr_to_counter = &counter;
int main() {
	counter += table[3];
	printf("%d %d %d %s %d %d\n", counter, table[4], bss_arr[50], msg, file_local, *ptr_to_counter);
	return 0;
}`,
			out: "107 0 0 global string 7 107\n",
		},
		{
			name: "compound_assign_incdec",
			src: `#include <stdio.h>
int main() {
	long x = 10;
	x += 5; x -= 3; x *= 2; x /= 3; x %= 5;
	printf("%d\n", x);
	x = 6;
	x &= 5; x |= 8; x ^= 1; x <<= 2; x >>= 1;
	printf("%d\n", x);
	long i = 5;
	printf("%d %d %d %d %d\n", i++, i, ++i, i--, --i);
	return 0;
}`,
			out: "3\n26\n5 6 7 7 5\n",
		},
		{
			name: "switch",
			src: `#include <stdio.h>
long classify(long c) {
	switch (c) {
	case 'a': return 1;
	case 'b': return 2;
	case 1000: return 3;
	case -5: return 4;
	default: return 99;
	}
}
int main() {
	printf("%d %d %d %d %d\n", classify('a'), classify('b'), classify(1000), classify(-5), classify(0));
	long s = 0;
	long i;
	for (i = 0; i < 4; i++) {
		switch (i) {
		case 0: s += 1;
		case 1: s += 10; break;
		case 2: s += 100; break;
		default: s += 1000;
		}
	}
	printf("%d\n", s);
	return 0;
}`,
			out: "1 2 3 4 99\n1121\n",
		},
		{
			name: "ternary",
			src: `#include <stdio.h>
int main() {
	long a = 5, b = 9;
	printf("%d %d\n", a > b ? a : b, a < b ? a : b);
	printf("%d\n", (a > 3 ? 1 : 0) + (b > 30 ? 10 : 20));
	return 0;
}`,
			out: "9 5\n21\n",
		},
		{
			name: "many_args",
			src: `#include <stdio.h>
long sum9(long a, long b, long c, long d, long e, long f, long g, long h, long i) {
	return a + 2*b + 3*c + 4*d + 5*e + 6*f + 7*g + 8*h + 9*i;
}
int main() {
	printf("%d\n", sum9(1, 2, 3, 4, 5, 6, 7, 8, 9));
	printf("%d\n", sum9(9, 8, 7, 6, 5, 4, 3, 2, 1));
	return 0;
}`,
			out: "285\n165\n",
		},
		{
			name: "casts",
			src: `#include <stdio.h>
int main() {
	long v = 0x1234;
	char c = (char)v;
	printf("%d\n", c);
	char *p = (char *)&v;
	printf("%d %d\n", p[0], p[1]);
	long addr = (long)p;
	char *q = (char *)(addr + 1);
	printf("%d\n", *q);
	return 0;
}`,
			out: "52\n52 18\n18\n",
		},
		{
			name: "defines",
			src: `#include <stdio.h>
#define N 16
#define DOUBLE_N (N * 2)
#define GREETING "hey"
int main() {
	printf("%d %d %s\n", N, DOUBLE_N, GREETING);
	return 0;
}`,
			out: "16 32 hey\n",
		},
		{
			name: "string_library",
			src: `#include <stdio.h>
#include <string.h>
int main() {
	char buf[64];
	strcpy(buf, "hello");
	strcat(buf, ", world");
	printf("%s %d\n", buf, strlen(buf));
	printf("%d %d %d\n", strcmp("abc", "abd") < 0, strcmp("abc", "abc"), strcmp("abd", "abc") > 0);
	memset(buf, 'x', 3);
	buf[3] = 0;
	printf("%s\n", buf);
	char src[8];
	src[0] = 'o'; src[1] = 'k'; src[2] = 0;
	memcpy(buf, src, 3);
	printf("%s %d\n", buf, memcmp("aa", "ab", 2) < 0);
	return 0;
}`,
			out: "hello, world 12\n1 0 1\nxxx\nok 1\n",
		},
		{
			name: "malloc_free_reuse",
			src: `#include <stdio.h>
#include <stdlib.h>
int main() {
	char *a = malloc(100);
	char *b = malloc(100);
	free(a);
	char *c = malloc(100);
	printf("%d %d\n", a == c, a == b);
	long *arr = (long *)calloc(10, 8);
	printf("%d\n", arr[5]);
	arr[5] = 42;
	arr = (long *)realloc((char *)arr, 800);
	printf("%d\n", arr[5]);
	return 0;
}`,
			out: "1 0\n0\n42\n",
		},
		{
			name: "printf_formats",
			src: `#include <stdio.h>
int main() {
	printf("%d %d %d\n", 0, -1, 9223372036854775807);
	printf("%x %x\n", 255, 4096);
	printf("%c%c%c %s %%\n", 'a', 'b', 'c', "str");
	printf("%ld %lx %5d %-3d\n", 77, 255, 1, 2);
	printf("%u\n", 12345);
	return 0;
}`,
			out: "0 -1 9223372036854775807\nff 1000\nabc str %\n77 ff 1 2\n12345\n",
		},
		{
			name: "exit_code",
			src:  `int main() { return 3 * 9; }`,
			code: 27,
		},
		{
			name: "atoi_argv",
			src: `#include <stdio.h>
#include <stdlib.h>
int main(int argc, char **argv) {
	long s = 0;
	long i;
	for (i = 1; i < argc; i++) s += atoi(argv[i]);
	printf("%d\n", s);
	return 0;
}`,
			out: "60\n",
		},
		{
			name: "static_linkage",
			src: `#include <stdio.h>
static long hidden = 3;
static long twice(long v) { return 2 * v; }
int main() { printf("%d\n", twice(hidden)); return 0; }`,
			out: "6\n",
		},
		{
			name: "shadowing_scopes",
			src: `#include <stdio.h>
long x = 1;
int main() {
	long x = 2;
	{
		long x = 3;
		printf("%d", x);
	}
	printf("%d", x);
	if (x == 2) {
		long x = 4;
		printf("%d", x);
	}
	printf("%d\n", x);
	return 0;
}`,
			out: "3242\n",
		},
		{
			name: "big_constants",
			src: `#include <stdio.h>
long big = 0x123456789abcdef0;
int main() {
	printf("%x\n", big);
	printf("%x\n", 0xdeadbeefcafebabe & 0xffffffff);
	long v = -9223372036854775807;
	printf("%d\n", v);
	return 0;
}`,
			out: "123456789abcdef0\ncafebabe\n-9223372036854775807\n",
		},
		{
			name: "sizeof_everything",
			src: `#include <stdio.h>
struct s { char a; long b; char c; };
int main() {
	long arr[7];
	char c;
	struct s v;
	printf("%d %d %d %d %d %d\n", sizeof(char), sizeof(long), sizeof(char *),
		sizeof(arr), sizeof(struct s), sizeof v);
	printf("%d %d\n", sizeof(c), sizeof(arr[0]));
	return 0;
}`,
			out: "1 8 8 56 24 24\n1 8\n",
		},
		{
			name: "rand_deterministic",
			src: `#include <stdio.h>
#include <stdlib.h>
int main() {
	srand(12345);
	long a = rand();
	long b = rand();
	srand(12345);
	printf("%d %d %d\n", a == rand(), b == rand(), a != b);
	printf("%d %d\n", a >= 0, a <= 0x7fffffff);
	return 0;
}`,
			out: "1 1 1\n1 1\n",
		},
	}

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg := vm.Config{}
			if c.name == "atoi_argv" {
				cfg.Args = []string{"10", "20", "30"}
			}
			m, code := runProg(t, c.src, cfg)
			if got := string(m.Stdout); got != c.out {
				t.Errorf("stdout:\n got %q\nwant %q", got, c.out)
			}
			if code != c.code {
				t.Errorf("exit = %d, want %d", code, c.code)
			}
		})
	}
}

func TestFileIO(t *testing.T) {
	m, code := runProg(t, `
#include <stdio.h>
int main() {
	FILE *f = fopen("out.txt", "w");
	if (!f) return 1;
	fprintf(f, "count=%d hex=0x%x\n", 42, 255);
	fputs("line two\n", f);
	fputc('!', f);
	fclose(f);

	FILE *in = fopen("in.txt", "r");
	if (!in) return 2;
	long sum = 0;
	int c = fgetc(in);
	while (c != EOF) {
		sum += c;
		c = fgetc(in);
	}
	fclose(in);
	printf("sum=%d\n", sum);
	return 0;
}`, vm.Config{FS: map[string][]byte{"in.txt": []byte("AB")}})
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if got := string(m.FSOut["out.txt"]); got != "count=42 hex=0xff\nline two\n!" {
		t.Errorf("out.txt = %q", got)
	}
	if got := string(m.Stdout); got != "sum=131\n" {
		t.Errorf("stdout = %q", got)
	}
}

func TestDivisionByZeroAborts(t *testing.T) {
	m, code := runProg(t, `
long deny(long d) { return 10 / d; }
int main() { return deny(0); }`, vm.Config{})
	_ = m
	if code != 134 {
		t.Errorf("exit = %d, want 134 (SIGFPE-style abort)", code)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`int main() { return x; }`, "undeclared"},
		{`int main() { long x; x = "s"; return 0; }`, "assign"},
		{`int main() { 5 = 6; return 0; }`, "non-lvalue"},
		{`int main() { break; }`, "break outside"},
		{`int main() { continue; }`, "continue outside"},
		{`long f(long a); long f(long a, long b) { return a; } int main(){return 0;}`, "conflicting"},
		{`int main() { long x; long x; return 0; }`, "redeclared"},
		{`struct s { long a; }; int main() { struct s v; v.b = 1; return 0; }`, "no field"},
		{`int main() { long *p; p * 3; return 0; }`, "invalid *"},
		{`int main() { case 1: return 0; }`, "outside switch"},
		{`int main() { return f(); }`, "undeclared function"},
		{`void g() {} int main() { long x = g(); return 0; }`, "void value"},
		{`long f(long a) { return a; } int main() { return f(1, 2); }`, "expects 1"},
		{`int main() { long a[3]; a = 0; return 0; }`, "cannot assign"},
		{`int main() { long x = *5; return 0; }`, "dereferencing non-pointer"},
		{`int main() { long x; char *p = &x + ; return 0; }`, "expected expression"},
		{`int main() { return 0 }`, `expected ";"`},
		{`struct s { struct s inner; }; int main() { return 0; }`, "incomplete"},
	}
	hdrs, err := rtl.HeadersCtx(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		_, err := cc.BuildForTest(c.src, hdrs)
		if err == nil {
			t.Errorf("compile of %q succeeded; want error with %q", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("error %q does not contain %q", err, c.want)
		}
	}
}
