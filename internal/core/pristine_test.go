package core_test

// Tests for ATOM's "Keeping Pristine Behavior" guarantees (Section 4):
// unchanged data/bss/stack/heap addresses, original PCs, register-state
// transparency, and the two sbrk schemes.

import (
	"strings"
	"testing"

	"atom/internal/alpha"
	"atom/internal/core"
	"atom/internal/om"
	"atom/internal/prof"
	"atom/internal/vm"
)

// passthroughTool counts events without output — a minimal tool for
// perturbation tests.
func passthroughTool(instrument func(q *core.Instrumentation) error) core.Tool {
	return core.Tool{
		Name: "passthrough",
		Analysis: map[string]string{
			"anal.c": `
long events;
void Tick(void) { events++; }
void Tick1(long a) { events += a; }
`,
		},
		Instrument: instrument,
	}
}

func TestPristineAddresses(t *testing.T) {
	// The app prints addresses of a global, a bss array, a stack local,
	// and two heap allocations. All must be identical before and after
	// instrumentation.
	app := buildApp(t, `
#include <stdio.h>
#include <stdlib.h>
long initialized = 7;
long big[1000];
int main() {
	long local;
	char *h1 = malloc(100);
	char *h2 = malloc(5000);
	printf("%p %p %p %p %p\n", &initialized, &big[500], &local, h1, h2);
	return 0;
}
`)
	ref := runExe(t, app, vm.Config{})

	tool := passthroughTool(func(q *core.Instrumentation) error {
		if err := q.AddCallProto("Tick()"); err != nil {
			return err
		}
		for _, p := range q.Procs() {
			for b := q.GetFirstBlock(p); b != nil; b = q.GetNextBlock(b) {
				if err := q.AddCallBlock(b, core.BlockBefore, "Tick"); err != nil {
					return err
				}
			}
		}
		return nil
	})
	res, err := core.Instrument(app, tool, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := runExe(t, res.Exe, vm.Config{})
	if string(m.Stdout) != string(ref.Stdout) {
		t.Errorf("addresses perturbed:\n  uninstrumented: %s  instrumented:   %s",
			ref.Stdout, m.Stdout)
	}
	// And the run did execute far more instructions (it was really
	// instrumented).
	if m.Icount <= ref.Icount {
		t.Errorf("icount %d not larger than baseline %d", m.Icount, ref.Icount)
	}
	// Data segment untouched.
	if res.Exe.DataAddr != app.DataAddr || res.Exe.BssAddr != app.BssAddr || res.Exe.Bss != app.Bss {
		t.Error("data/bss layout changed")
	}
}

func TestPartitionedHeap(t *testing.T) {
	// With the partitioned scheme the application's heap addresses match
	// the uninstrumented run even though the analysis allocates memory.
	app := buildApp(t, `
#include <stdio.h>
#include <stdlib.h>
int main() {
	char *a = malloc(64);
	char *b = malloc(64);
	printf("%p %p\n", a, b);
	return 0;
}
`)
	ref := runExe(t, app, vm.Config{})

	allocTool := core.Tool{
		Name: "alloctool",
		Analysis: map[string]string{
			"anal.c": `
#include <stdlib.h>
long total;
void Tick(void) {
	char *p = malloc(128); /* the analysis allocates on every event */
	total += (long)p;
}
`,
		},
		Instrument: func(q *core.Instrumentation) error {
			if err := q.AddCallProto("Tick()"); err != nil {
				return err
			}
			main := q.Procs()[0]
			for _, p := range q.Procs() {
				if q.ProcName(p) == "main" {
					main = p
				}
			}
			return q.AddCallProc(main, core.ProcBefore, "Tick")
		},
	}

	// Linked sbrks (default): analysis allocations interleave, so the
	// app's second malloc moves.
	res, err := core.Instrument(app, allocTool, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	linked := runExe(t, res.Exe, vm.Config{})

	// Partitioned: the app's heap addresses are pristine.
	res2, err := core.Instrument(app, allocTool, core.Options{HeapOffset: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	part := runExe(t, res2.Exe, vm.Config{})

	if string(part.Stdout) != string(ref.Stdout) {
		t.Errorf("partitioned heap perturbed app addresses: %q vs %q", part.Stdout, ref.Stdout)
	}
	if string(linked.Stdout) == string(ref.Stdout) {
		t.Logf("note: linked-sbrk run coincidentally matched (analysis allocated after app)")
	}
	_ = linked
}

func TestOriginalPCsReported(t *testing.T) {
	// InstPC hands out original addresses; the instrumented text is
	// larger, so new addresses of late procedures differ — but the tool
	// must still see pre-instrumentation PCs, within the original text
	// bounds.
	app := buildApp(t, loopApp)
	var pcs []uint64
	tool := passthroughTool(func(q *core.Instrumentation) error {
		if err := q.AddCallProto("Tick()"); err != nil {
			return err
		}
		for _, p := range q.Procs() {
			for b := q.GetFirstBlock(p); b != nil; b = q.GetNextBlock(b) {
				for in := q.GetFirstInst(b); in != nil; in = q.GetNextInst(in) {
					pcs = append(pcs, q.InstPC(in))
				}
			}
		}
		// Instrument something so the build completes.
		return q.AddCallProgram(core.ProgramBefore, "Tick")
	})
	res, err := core.Instrument(app, tool, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	origEnd := app.TextAddr + uint64(len(app.Text))
	for _, pc := range pcs {
		if pc < app.TextAddr || pc >= origEnd {
			t.Fatalf("InstPC %#x outside original text", pc)
		}
	}
	if len(pcs) != len(app.Text)/4 {
		t.Errorf("traversal visited %d instructions, text has %d", len(pcs), len(app.Text)/4)
	}
	// PCMap: every original pc maps into the new text and back.
	for _, pc := range pcs[:100] {
		n, ok := res.PCMap.NewAddr(pc)
		if !ok {
			t.Fatalf("NewAddr(%#x) missing", pc)
		}
		if n < app.TextAddr {
			t.Fatalf("NewAddr(%#x) = %#x below text", pc, n)
		}
	}
}

func TestRegVAndManyArgs(t *testing.T) {
	// Pass register values and 8 arguments (2 on the stack) at a point
	// where registers hold known values; verify the analysis sees them
	// and the app's registers are unperturbed afterwards.
	app := buildApp(t, `
#include <stdio.h>
long f(long a, long b) { return a * 100 + b; }
int main() {
	long r = f(3, 4);
	printf("r=%d\n", r);
	return 0;
}
`)
	tool := core.Tool{
		Name: "regv",
		Analysis: map[string]string{
			"anal.c": `
#include <stdio.h>
void SeeArgs(long a0, long a1, long c2, long c3, long c4, long c5, long s6, long s7) {
	printf("seen %d %d %d %d %d %d %d %d\n", a0, a1, c2, c3, c4, c5, s6, s7);
}
`,
		},
		Instrument: func(q *core.Instrumentation) error {
			if err := q.AddCallProto("SeeArgs(REGV, REGV, int, int, int, int, int, int)"); err != nil {
				return err
			}
			f := q.Procs()[0]
			for _, p := range q.Procs() {
				if q.ProcName(p) == "f" {
					f = p
				}
			}
			// At entry to f, a0 and a1 hold the user arguments 3 and 4.
			return q.AddCallProc(f, core.ProcBefore, "SeeArgs",
				core.RegV(alpha.A0), core.RegV(alpha.A1),
				1000, 2000, 3000, 4000, 70707, 80808)
		},
	}
	res, err := core.Instrument(app, tool, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := runExe(t, res.Exe, vm.Config{})
	out := string(m.Stdout)
	if !strings.Contains(out, "seen 3 4 1000 2000 3000 4000 70707 80808\n") {
		t.Errorf("analysis did not see expected values:\n%s", out)
	}
	if !strings.Contains(out, "r=304\n") {
		t.Errorf("application result perturbed:\n%s", out)
	}
}

func TestEffAddrValue(t *testing.T) {
	// The analysis receives the effective address of each store and
	// compares the range with the app's own report of its array address.
	app := buildApp(t, `
#include <stdio.h>
long arr[16];
int main() {
	long i;
	for (i = 0; i < 16; i++) arr[i] = i;
	printf("arr=%p\n", &arr[0]);
	return 0;
}
`)
	tool := core.Tool{
		Name: "effaddr",
		Analysis: map[string]string{
			"anal.c": `
#include <stdio.h>
long lo = 0x7fffffff;
long hi = 0;
void Store(long addr) {
	if (addr < lo) lo = addr;
	if (addr > hi) hi = addr;
}
void Done(void) { printf("range %p %p\n", lo, hi); }
`,
		},
		Instrument: func(q *core.Instrumentation) error {
			if err := q.AddCallProto("Store(VALUE)"); err != nil {
				return err
			}
			if err := q.AddCallProto("Done()"); err != nil {
				return err
			}
			for _, p := range q.Procs() {
				if q.ProcName(p) != "main" {
					continue
				}
				for b := q.GetFirstBlock(p); b != nil; b = q.GetNextBlock(b) {
					for in := q.GetFirstInst(b); in != nil; in = q.GetNextInst(in) {
						if q.IsInstType(in, core.InstTypeStore) && q.InstMemBytes(in) == 8 {
							if err := q.AddCallInst(in, core.InstBefore, "Store", core.EffAddrValue); err != nil {
								return err
							}
						}
					}
				}
			}
			return q.AddCallProgram(core.ProgramAfter, "Done")
		},
	}
	res, err := core.Instrument(app, tool, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := runExe(t, res.Exe, vm.Config{})
	out := string(m.Stdout)
	var arrAddr, lo, hi uint64
	for _, ln := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(ln, "arr=0x") {
			parseHex(t, ln[len("arr=0x"):], &arrAddr)
		}
		if strings.HasPrefix(ln, "range 0x") {
			rest := strings.Fields(ln)
			parseHex(t, strings.TrimPrefix(rest[1], "0x"), &lo)
			parseHex(t, strings.TrimPrefix(rest[2], "0x"), &hi)
		}
	}
	if arrAddr == 0 || lo == 0 || hi == 0 {
		t.Fatalf("missing output: %q", out)
	}
	// Stores in main include arr[0..15]; lo must be <= arr, hi >= last
	// element (stack stores may extend the range below).
	if lo > arrAddr {
		t.Errorf("lo %#x > arr %#x", lo, arrAddr)
	}
	if hi < arrAddr+15*8 {
		t.Errorf("hi %#x < arr end %#x", hi, arrAddr+15*8)
	}
}

func parseHex(t *testing.T, s string, out *uint64) {
	t.Helper()
	var v uint64
	for _, c := range s {
		switch {
		case c >= '0' && c <= '9':
			v = v*16 + uint64(c-'0')
		case c >= 'a' && c <= 'f':
			v = v*16 + uint64(c-'a'+10)
		default:
			*out = v
			return
		}
	}
	*out = v
}

func TestStringAndArrayArgs(t *testing.T) {
	app := buildApp(t, loopApp)
	tool := core.Tool{
		Name: "strargs",
		Analysis: map[string]string{
			"anal.c": `
#include <stdio.h>
void Report(char *name, long *weights, long n) {
	long i;
	long s = 0;
	for (i = 0; i < n; i++) s += weights[i];
	printf("tool=%s sum=%d\n", name, s);
}
`,
		},
		Instrument: func(q *core.Instrumentation) error {
			if err := q.AddCallProto("Report(char*, long*, int)"); err != nil {
				return err
			}
			return q.AddCallProgram(core.ProgramBefore, "Report",
				"my-tool", core.Array{10, 20, 30, 40}, 4)
		},
	}
	res, err := core.Instrument(app, tool, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := runExe(t, res.Exe, vm.Config{})
	if !strings.Contains(string(m.Stdout), "tool=my-tool sum=100\n") {
		t.Errorf("string/array args broken:\n%s", m.Stdout)
	}
}

func TestProcAfterAndCallOrder(t *testing.T) {
	// Multiple calls at one point execute in the order added; ProcAfter
	// fires at every return.
	app := buildApp(t, `
long g(long n) {
	if (n > 5) return 1;
	return 0;
}
int main() {
	long i;
	long s = 0;
	for (i = 0; i < 10; i++) s += g(i);
	return s;
}
`)
	tool := core.Tool{
		Name: "order",
		Analysis: map[string]string{
			"anal.c": `
#include <stdio.h>
void A(void) { printf("A"); }
void B(void) { printf("B"); }
void NL(void) { printf("\n"); }
`,
		},
		Instrument: func(q *core.Instrumentation) error {
			for _, pr := range []string{"A()", "B()", "NL()"} {
				if err := q.AddCallProto(pr); err != nil {
					return err
				}
			}
			var g = q.Procs()[0]
			for _, p := range q.Procs() {
				if q.ProcName(p) == "g" {
					g = p
				}
			}
			if err := q.AddCallProc(g, core.ProcBefore, "A"); err != nil {
				return err
			}
			if err := q.AddCallProc(g, core.ProcBefore, "B"); err != nil {
				return err
			}
			return q.AddCallProc(g, core.ProcAfter, "NL")
		},
	}
	res, err := core.Instrument(app, tool, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := runExe(t, res.Exe, vm.Config{})
	want := strings.Repeat("AB\n", 10)
	if string(m.Stdout) != want {
		t.Errorf("stdout = %q, want %q", m.Stdout, want)
	}
	code, _ := m.Exited()
	_ = code
	if _, ec := m.Exited(); ec != 4 { // g returns 1 for n=6..9
		t.Errorf("exit = %d, want 4", ec)
	}
}

func TestInstrumentErrors(t *testing.T) {
	app := buildApp(t, loopApp)
	cases := []struct {
		name string
		tool core.Tool
		want string
	}{
		{
			name: "missing proto",
			tool: passthroughTool(func(q *core.Instrumentation) error {
				return q.AddCallProgram(core.ProgramBefore, "Nope")
			}),
			want: "no prototype",
		},
		{
			name: "undefined analysis proc",
			tool: passthroughTool(func(q *core.Instrumentation) error {
				if err := q.AddCallProto("Ghost()"); err != nil {
					return err
				}
				return q.AddCallProgram(core.ProgramBefore, "Ghost")
			}),
			want: `"Ghost" not defined`,
		},
		{
			name: "arity mismatch",
			tool: passthroughTool(func(q *core.Instrumentation) error {
				if err := q.AddCallProto("Tick()"); err != nil {
					return err
				}
				return q.AddCallProgram(core.ProgramBefore, "Tick", 1)
			}),
			want: "expects 0 arguments",
		},
		{
			name: "BrCondValue on non-branch",
			tool: passthroughTool(func(q *core.Instrumentation) error {
				if err := q.AddCallProto("Tick1(VALUE)"); err != nil {
					return err
				}
				in := q.GetFirstInst(q.GetFirstBlock(q.GetFirstProc()))
				return q.AddCallInst(in, core.InstBefore, "Tick1", core.BrCondValue)
			}),
			want: "BrCondValue requires",
		},
		{
			name: "bad proto type",
			tool: passthroughTool(func(q *core.Instrumentation) error {
				return q.AddCallProto("Tick(float)")
			}),
			want: "unsupported parameter type",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := core.Instrument(app, c.tool, core.Options{})
			if err == nil {
				t.Fatalf("Instrument succeeded; want error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestProfilerOriginalPCAttribution(t *testing.T) {
	// Samples taken while the instrumented program runs must attribute to
	// ORIGINAL procedures at ORIGINAL PCs — the profiler's extension of
	// the pristine-behavior contract. Samples inside injected analysis
	// code are the explicit [analysis] frame, never smeared onto an
	// application procedure.
	app := buildApp(t, `
#include <stdio.h>
long sink;
long work(long n) {
	long i;
	long s = 0;
	for (i = 0; i < n; i++) {
		if (i & 1) s += i;
		else s -= i;
	}
	return s;
}
int main() {
	long i;
	for (i = 0; i < 40; i++) sink += work(200);
	printf("sink=%d\n", sink);
	return 0;
}
`)
	res, err := core.Instrument(app, branchCountTool(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	procs := res.PCMap.OrigProcs()
	byName := map[string]om.ProcRange{}
	for _, pr := range procs {
		byName[pr.Name] = pr
	}

	// A prime period so samples don't phase-lock with the loop body.
	p := prof.New(prof.Options{
		Period:      97,
		Procs:       procs,
		MapPC:       res.PCMap.OldAddr,
		KeepSamples: true,
	})
	cfg := vm.Config{}
	p.Attach(&cfg)
	runExe(t, res.Exe, cfg)

	samples := p.Samples()
	if len(samples) < 50 {
		t.Fatalf("only %d samples; need a meaningful population", len(samples))
	}
	analysis, unknown := 0, 0
	for _, s := range samples {
		switch s.Frame {
		case prof.AnalysisFrame:
			analysis++
			if s.OrigPC != 0 {
				t.Errorf("analysis sample at new pc %#x carries original pc %#x", s.PC, s.OrigPC)
			}
		case prof.UnknownFrame:
			unknown++
		default:
			pr, ok := byName[s.Frame]
			if !ok {
				t.Fatalf("sample attributed to %q, not an original procedure", s.Frame)
			}
			if s.OrigPC < pr.Start || s.OrigPC >= pr.End {
				t.Errorf("sample %q: original pc %#x outside [%#x,%#x)", s.Frame, s.OrigPC, pr.Start, pr.End)
			}
		}
	}
	// The branch tool injects a call per conditional branch, so the
	// instrumented run must spend visible time in analysis code.
	if analysis == 0 {
		t.Error("no [analysis] samples despite per-branch instrumentation")
	}
	// Acceptance: at least 95% of samples resolve to a named original
	// procedure or [analysis].
	if frac := float64(unknown) / float64(len(samples)); frac > 0.05 {
		t.Errorf("%.1f%% of %d samples are [unknown]; want <= 5%%", 100*frac, len(samples))
	}
	// The original-address ranges must cover the original text and
	// nothing else: every range inside [TextAddr, TextAddr+len).
	origEnd := app.TextAddr + uint64(len(app.Text))
	for _, pr := range procs {
		if pr.Start < app.TextAddr || pr.End > origEnd || pr.Start >= pr.End {
			t.Errorf("range %q [%#x,%#x) outside original text [%#x,%#x)", pr.Name, pr.Start, pr.End, app.TextAddr, origEnd)
		}
	}
}
