package om

import (
	"strings"
	"testing"

	"atom/internal/alpha"
	"atom/internal/rtl"
)

// layoutFixture lifts a small program and splices a two-instruction
// sequence before every instruction of main, so every slot of main has a
// non-empty before-code gap.
func layoutFixture(t *testing.T) (*Program, *Layout, []int) {
	t.Helper()
	exe, err := rtl.BuildProgram("prog.c", `
#include <stdio.h>
long sq(long n) { return n * n; }
int main() { printf("%d\n", sq(7)); return 0; }
`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildCtx(nil, exe)
	if err != nil {
		t.Fatal(err)
	}
	nop := alpha.Mov(alpha.Zero, alpha.Zero)
	var slots []int
	var splices []Splice
	for _, b := range p.Proc("main").Blocks {
		for j := range b.Insts {
			in := &b.Insts[j]
			k, ok := p.Slot(in)
			if !ok {
				t.Fatalf("main instruction at %#x has no slot", in.Addr)
			}
			slots = append(slots, k)
			splices = append(splices, Splice{Slot: k, Insts: []alpha.Inst{nop, nop}})
		}
	}
	l, err := p.LayoutCtx(nil, splices)
	if err != nil {
		t.Fatal(err)
	}
	if ds := l.VerifyCtx(nil); len(ds) > 0 {
		t.Fatalf("clean layout has %d diagnostics, first: %s", len(ds), ds[0])
	}
	return p, l, slots
}

// Each corruption of a slot table must surface as a diagnostic that
// names the original PC of the corrupted slot and its procedure.
func TestLayoutVerifyDetectsCorruption(t *testing.T) {
	tests := []struct {
		name    string
		corrupt func(l *Layout, k int)
		wantMsg string
	}{
		{"misaligned", func(l *Layout, k int) { l.at[k] += 2 }, "misaligned"},
		{"outside-text", func(l *Layout, k int) { l.at[k] = l.prog.Exe.TextAddr + l.size }, "outside instrumented text"},
		{"not-increasing", func(l *Layout, k int) { l.at[k] = l.at[k-1] }, "does not follow"},
		{"start-after-inst", func(l *Layout, k int) { l.start[k] = l.at[k] + 4 }, "after the instruction"},
		{"before-gap", func(l *Layout, k int) { l.start[k] += 4 }, "before-code spans"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p, l, slots := layoutFixture(t)
			k := slots[len(slots)/2]
			tc.corrupt(l, k)
			old := p.Exe.TextAddr + uint64(k)*4
			ds := l.VerifyCtx(nil)
			for _, d := range ds {
				if d.Addr == old && d.Proc == "main" && strings.Contains(d.Msg, tc.wantMsg) {
					return
				}
			}
			t.Errorf("no diagnostic %q at original pc %#x (main); got %v", tc.wantMsg, old, ds)
		})
	}
	t.Run("short-table", func(t *testing.T) {
		_, l, _ := layoutFixture(t)
		l.at = l.at[:len(l.at)-1]
		if ds := l.VerifyCtx(nil); len(ds) == 0 || !strings.Contains(ds[0].Msg, "slots") {
			t.Errorf("truncated table: got %v", ds)
		}
	})
}
