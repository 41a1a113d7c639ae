package tools_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"atom/internal/aout"
	"atom/internal/core"
	"atom/internal/rtl"
	"atom/internal/tools"
	"atom/internal/vm"
)

const testApp = `
#include <stdio.h>
#include <stdlib.h>

long sum_odd(long n) {
	long s = 0;
	long i;
	for (i = 1; i <= n; i += 2) s += i;
	return s;
}

int main() {
	char *buf = malloc(256);
	char *big = malloc(10000);
	long s = sum_odd(99);
	big[0] = (char)s;
	FILE *f = fopen("app.out", "w");
	fprintf(f, "s=%d b=%d\n", s, buf == big);
	fclose(f);
	printf("done %d\n", s);
	return 0;
}
`

func buildApp(t *testing.T) *aout.File {
	t.Helper()
	exe, err := rtl.BuildProgram("app.c", testApp)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return exe
}

func run(t *testing.T, exe *aout.File) *vm.Machine {
	t.Helper()
	m, err := vm.New(exe, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("run: %v (stdout=%q stderr=%q)", err, m.Stdout, m.Stderr)
	}
	return m
}

// field extracts "<label>: <num>" from a tool report.
func field(t *testing.T, report, label string) int64 {
	t.Helper()
	for _, ln := range strings.Split(report, "\n") {
		if strings.HasPrefix(ln, label+":") {
			rest := strings.TrimSpace(strings.TrimPrefix(ln, label+":"))
			// Take the leading integer (reports write ratios as "958/1000").
			end := 0
			for end < len(rest) && (rest[end] == '-' && end == 0 || rest[end] >= '0' && rest[end] <= '9') {
				end++
			}
			v, err := strconv.ParseInt(rest[:end], 10, 64)
			if err != nil {
				t.Fatalf("bad %s line %q", label, ln)
			}
			return v
		}
	}
	t.Fatalf("report lacks %q:\n%s", label, report)
	return 0
}

func TestAllToolsRun(t *testing.T) {
	app := buildApp(t)
	ref := run(t, app)
	if len(tools.Names()) != 11 {
		t.Fatalf("registered %d tools, want 11: %v", len(tools.Names()), tools.Names())
	}
	for _, name := range tools.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			tool, _ := tools.ByName(name)
			res, err := core.InstrumentCtx(nil, app, tool, core.Options{})
			if err != nil {
				t.Fatalf("Instrument: %v", err)
			}
			m := run(t, res.Exe)
			if string(m.Stdout) != string(ref.Stdout) {
				t.Errorf("stdout perturbed: %q vs %q", m.Stdout, ref.Stdout)
			}
			if string(m.FSOut["app.out"]) != string(ref.FSOut["app.out"]) {
				t.Errorf("app output file perturbed")
			}
			report, ok := m.FSOut[name+".out"]
			if !ok {
				t.Fatalf("%s.out missing; files = %v", name, m.Paths())
			}
			if len(report) == 0 {
				t.Fatalf("%s.out empty", name)
			}
			if m.Icount <= ref.Icount {
				t.Errorf("icount %d not above baseline %d", m.Icount, ref.Icount)
			}
			t.Logf("overhead %.2fx, report:\n%s", float64(m.Icount)/float64(ref.Icount), report)
		})
	}
}

func instrumentAndRun(t *testing.T, name string, opts core.Options) (*vm.Machine, string) {
	t.Helper()
	app := buildApp(t)
	tool, ok := tools.ByName(name)
	if !ok {
		t.Fatalf("tool %q not registered", name)
	}
	res, err := core.InstrumentCtx(nil, app, tool, opts)
	if err != nil {
		t.Fatalf("Instrument(%s): %v", name, err)
	}
	m := run(t, res.Exe)
	return m, string(m.FSOut[name+".out"])
}

func TestBranchToolNumbers(t *testing.T) {
	m, report := instrumentAndRun(t, "branch", core.Options{})
	_ = m
	// The sum_odd loop executes its conditional 50 times; dynamic
	// branches must be well above that, and accuracy high (loopy code).
	dyn := field(t, report, "dynamic branches")
	if dyn < 50 {
		t.Errorf("dynamic branches = %d, want >= 50", dyn)
	}
	acc := field(t, report, "accuracy")
	if acc < 700 {
		t.Errorf("2-bit predictor accuracy = %d/1000, implausibly low for loops", acc)
	}
	if miss := field(t, report, "mispredictions"); miss <= 0 || miss >= dyn {
		t.Errorf("mispredictions = %d of %d", miss, dyn)
	}
}

func TestDyninstMatchesMachineCount(t *testing.T) {
	app := buildApp(t)
	ref := run(t, app)
	tool, _ := tools.ByName("dyninst")
	res, err := core.InstrumentCtx(nil, app, tool, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := run(t, res.Exe)
	report := string(m.FSOut["dyninst.out"])
	counted := field(t, report, "dynamic instructions")
	// The tool counts exactly the application's own instructions — the
	// uninstrumented run's retired-instruction count.
	// Block-granularity counting attributes whole blocks; the block that
	// halts the machine (call_pal 0; br) retires only its first
	// instruction, so the tool may count a few instructions the machine
	// never retired.
	if counted < int64(ref.Icount) || counted > int64(ref.Icount)+4 {
		t.Errorf("dyninst counted %d instructions, machine retired %d", counted, ref.Icount)
	}
}

func TestCacheToolNumbers(t *testing.T) {
	app := buildApp(t)
	ref := run(t, app)
	m, report := instrumentAndRun(t, "cache", core.Options{})
	_ = m
	refs := field(t, report, "references")
	// The report is written when the program reaches exit(); the handful
	// of memory references exit() itself performs afterwards are counted
	// by the machine but happen after the report — so the tool sees
	// slightly fewer than the machine's total.
	machine := int64(ref.Loads + ref.Stores)
	if refs > machine || machine-refs > 8 {
		t.Errorf("cache saw %d references, machine performed %d", refs, machine)
	}
	hits := field(t, report, "hits")
	misses := field(t, report, "misses")
	if hits+misses != refs {
		t.Errorf("hits %d + misses %d != refs %d", hits, misses, refs)
	}
	if hits == 0 || misses == 0 {
		t.Errorf("degenerate cache behavior: %d hits, %d misses", hits, misses)
	}
}

func TestCacheToolGeometryArgs(t *testing.T) {
	_, small := instrumentAndRun(t, "cache", core.Options{ToolArgs: []string{"256", "16"}})
	_, big := instrumentAndRun(t, "cache", core.Options{ToolArgs: []string{"65536", "64"}})
	if !strings.Contains(small, "cache: 256 bytes, 16-byte lines") {
		t.Errorf("geometry args ignored:\n%s", small)
	}
	if field(t, small, "misses") <= field(t, big, "misses") {
		t.Errorf("small cache (%d misses) not worse than big cache (%d misses)",
			field(t, small, "misses"), field(t, big, "misses"))
	}
}

func TestMallocToolNumbers(t *testing.T) {
	// testApp calls malloc twice directly; fopen allocates once; fprintf
	// does not allocate. The analysis' own allocations must NOT count.
	_, report := instrumentAndRun(t, "malloc", core.Options{})
	calls := field(t, report, "malloc calls")
	if calls != 3 {
		t.Errorf("malloc calls = %d, want 3 (two in main, one in fopen)", calls)
	}
	total := field(t, report, "bytes requested")
	if total < 256+10000 {
		t.Errorf("bytes requested = %d, want >= 10256", total)
	}
	if !strings.Contains(report, ">") && !strings.Contains(report, "<=") {
		t.Errorf("histogram missing:\n%s", report)
	}
}

func TestSyscallToolNumbers(t *testing.T) {
	app := buildApp(t)
	ref := run(t, app)
	_ = ref
	_, report := instrumentAndRun(t, "syscall", core.Options{})
	// The app opens one file for write, writes to it and stdout, closes,
	// sbrks for malloc, exits.
	lines := map[string][2]int64{}
	for _, ln := range strings.Split(report, "\n") {
		var name string
		var calls, ok int64
		if _, err := fmt.Sscanf(ln, "%s\t%d\t%d", &name, &calls, &ok); err == nil {
			lines[name] = [2]int64{calls, ok}
		}
	}
	if lines["open"][0] != 1 {
		t.Errorf("open calls = %d, want 1", lines["open"][0])
	}
	if lines["close"][0] != 1 {
		t.Errorf("close calls = %d, want 1", lines["close"][0])
	}
	// The report is written when the program reaches exit(), i.e. before
	// the halt PAL itself executes, so exit never appears in its own
	// report — the same before-the-end semantics as the paper's
	// ProgramAfter.
	if lines["exit"][0] != 0 {
		t.Errorf("exit calls = %d, want 0 (report precedes the halt)", lines["exit"][0])
	}
	if lines["write"][0] < 2 {
		t.Errorf("write calls = %d, want >= 2", lines["write"][0])
	}
	if lines["sbrk"][0] < 1 {
		t.Errorf("sbrk calls = %d, want >= 1", lines["sbrk"][0])
	}
}

func TestIoToolNumbers(t *testing.T) {
	_, report := instrumentAndRun(t, "io", core.Options{})
	// The app writes "s=2500 b=0\n" (11 bytes) to app.out and
	// "done 2500\n" (10 bytes) to stdout. The analysis' own output must
	// not be counted (two copies of libc!).
	written := field(t, report, "bytes written")
	if written != 21 {
		t.Errorf("bytes written = %d, want 21 (app only; analysis I/O must not count)", written)
	}
	if calls := field(t, report, "write calls"); calls != 2 {
		t.Errorf("write calls = %d, want 2", calls)
	}
}

func TestPipeToolNumbers(t *testing.T) {
	app := buildApp(t)
	ref := run(t, app)
	_, report := instrumentAndRun(t, "pipe", core.Options{})
	insts := field(t, report, "dynamic instructions")
	if insts < int64(ref.Icount) || insts > int64(ref.Icount)+4 {
		t.Errorf("pipe counted %d insts, machine retired %d", insts, ref.Icount)
	}
	cycles := field(t, report, "modeled cycles")
	// Dual issue bounds: at least half an instruction per cycle and at
	// most ~latency-bound; cycles must lie between insts/2 and 4*insts.
	if cycles < insts/2 || cycles > insts*4 {
		t.Errorf("modeled cycles %d implausible for %d instructions", cycles, insts)
	}
	if cpi := field(t, report, "cpi"); cpi < 500 || cpi > 4000 {
		t.Errorf("cpi = %d/1000, implausible", cpi)
	}
}

func TestProfAndGprofAgree(t *testing.T) {
	_, prof := instrumentAndRun(t, "prof", core.Options{})
	_, gprof := instrumentAndRun(t, "gprof", core.Options{})
	// Both attribute dynamic instructions to procedures; main must appear
	// in both with the same count; gprof additionally reports call
	// counts (main called once, sum_odd once, malloc 3 times).
	profMain := lineField(t, prof, "main", 1)
	gprofMain := lineField(t, gprof, "main", 2)
	if profMain != gprofMain || profMain == 0 {
		t.Errorf("main insts: prof %d, gprof %d", profMain, gprofMain)
	}
	if calls := lineField(t, gprof, "sum_odd", 1); calls != 1 {
		t.Errorf("gprof: sum_odd calls = %d, want 1", calls)
	}
	if calls := lineField(t, gprof, "malloc", 1); calls != 3 {
		t.Errorf("gprof: malloc calls = %d, want 3", calls)
	}
}

// lineField returns column col (tab-separated, 0 = first after name) of
// the report line starting with name.
func lineField(t *testing.T, report, name string, col int) int64 {
	t.Helper()
	for _, ln := range strings.Split(report, "\n") {
		f := strings.Split(ln, "\t")
		if len(f) > col && f[0] == name {
			v, err := strconv.ParseInt(f[col], 10, 64)
			if err != nil {
				t.Fatalf("bad line %q", ln)
			}
			return v
		}
	}
	t.Fatalf("report lacks %q:\n%s", name, report)
	return 0
}

func TestInlineToolFindsCallSites(t *testing.T) {
	_, report := instrumentAndRun(t, "inline", core.Options{})
	if !strings.Contains(report, "sum_odd") {
		t.Errorf("inline report lacks the sum_odd call site:\n%s", report)
	}
	if !strings.Contains(report, "malloc") {
		t.Errorf("inline report lacks malloc call sites:\n%s", report)
	}
}

func TestUnalignTool(t *testing.T) {
	// An app that performs deliberately unaligned accesses.
	src := `
#include <stdio.h>
char buf[64];
int main() {
	long *p = (long *)(buf + 1);
	long i;
	for (i = 0; i < 5; i++) *p = *p + 1;
	long *q = (long *)(buf + 8);
	*q = 7;
	printf("%d %d\n", (long)*p, (long)*q);
	return 0;
}
`
	app, err := rtl.BuildProgram("u.c", src)
	if err != nil {
		t.Fatal(err)
	}
	ref := run(t, app)
	tool, _ := tools.ByName("unalign")
	res, err := core.InstrumentCtx(nil, app, tool, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := run(t, res.Exe)
	report := string(m.FSOut["unalign.out"])
	un := field(t, report, "unaligned references")
	// 5 iterations x (load + store) through buf+1 = 10 unaligned refs;
	// the tool must count exactly what the machine saw.
	if un != int64(ref.Unaligned) {
		t.Errorf("tool counted %d unaligned refs, machine saw %d", un, ref.Unaligned)
	}
	if un != 11 { // 5 x (load+store) through buf+1, plus the printf reload
		t.Errorf("unaligned = %d, want 11", un)
	}
}
