package om_test

import (
	"testing"

	"atom/internal/alpha"
	"atom/internal/aout"
	"atom/internal/core"
	"atom/internal/om"
	"atom/internal/spec"
	"atom/internal/tools"
)

// checkPCMap asserts the static PC maps of a layout of prog: PCPairs
// lists every instruction in original order with strictly increasing
// new addresses; OldAddr inverts each pair and rejects every spliced
// word; NewAddr lands after the previous instruction and no later than
// the instruction itself, and rejects misaligned addresses, addresses
// below text and the text end. checkNewAddr pins NewAddr exactly when
// the splices are known.
func checkPCMap(t testing.TB, prog *om.Program, lay *om.Layout) {
	t.Helper()
	base := prog.Exe.TextAddr
	end := base + uint64(len(prog.Exe.Text))
	pairs := lay.PCPairs()
	if len(pairs) != prog.NumInsts() {
		t.Fatalf("PCPairs has %d pairs, program has %d instructions", len(pairs), prog.NumInsts())
	}
	for i, pp := range pairs {
		if i > 0 && (pp.Old <= pairs[i-1].Old || pp.New <= pairs[i-1].New) {
			t.Fatalf("pair %d (%#x->%#x) does not follow (%#x->%#x)", i, pp.Old, pp.New, pairs[i-1].Old, pairs[i-1].New)
		}
		if old, ok := lay.OldAddr(pp.New); !ok || old != pp.Old {
			t.Fatalf("OldAddr(%#x) = %#x, %v; want %#x", pp.New, old, ok, pp.Old)
		}
		if n, ok := lay.NewAddr(pp.Old); !ok || n > pp.New || i > 0 && n <= pairs[i-1].New {
			t.Fatalf("NewAddr(%#x) = %#x, %v; want it in the words spliced before %#x", pp.Old, n, ok, pp.New)
		}
		if _, ok := lay.NewAddr(pp.Old + 2); ok {
			t.Fatalf("NewAddr accepts misaligned %#x", pp.Old+2)
		}
	}
	// Every word that holds no original instruction is spliced code.
	j := 0
	for a := base; a < base+lay.TextSize(); a += 4 {
		if j < len(pairs) && pairs[j].New == a {
			j++
			continue
		}
		if old, ok := lay.OldAddr(a); ok {
			t.Fatalf("OldAddr maps spliced word %#x to %#x", a, old)
		}
	}
	if j != len(pairs) {
		t.Fatalf("walked %d of %d instruction words", j, len(pairs))
	}
	for _, a := range []uint64{base - 4, end} {
		if n, ok := lay.NewAddr(a); ok {
			t.Fatalf("NewAddr(%#x) = %#x outside text [%#x,%#x)", a, n, base, end)
		}
	}
}

// checkNewAddr asserts that NewAddr of every original instruction is the
// first word of the code spliced before it, the instruction itself when
// nothing is.
func checkNewAddr(t testing.TB, prog *om.Program, lay *om.Layout, splices []om.Splice) {
	t.Helper()
	before := make([]uint64, prog.NumInsts())
	for _, s := range splices {
		if !s.After {
			before[s.Slot] += uint64(len(s.Insts)) * 4
		}
	}
	for _, pp := range lay.PCPairs() {
		k := (pp.Old - prog.Exe.TextAddr) / 4
		if n, ok := lay.NewAddr(pp.Old); !ok || n != pp.New-before[k] {
			t.Fatalf("NewAddr(%#x) = %#x, %v; want the first before-code word %#x", pp.Old, n, ok, pp.New-before[k])
		}
	}
}

// TestPCMapProperty checks the PC maps of every tool's instrumentation
// of several suite programs.
func TestPCMapProperty(t *testing.T) {
	opts := core.Options{Verify: true}
	for _, name := range []string{"gcc", "queens", "espresso", "tomcatv"} {
		exe, err := spec.BuildCtx(nil, name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tool := range tools.All() {
			ti, err := core.BuildToolImageCtx(nil, tool, opts)
			if err != nil {
				t.Fatalf("%s: %v", tool.Name, err)
			}
			prog, err := core.LiftCtx(nil, exe)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.ApplyProgramCtx(nil, prog, ti, opts)
			if err != nil {
				t.Fatalf("%s on %s: %v", tool.Name, name, err)
			}
			t.Run(name+"/"+tool.Name, func(t *testing.T) { checkPCMap(t, prog, res.PCMap) })
		}
	}
}

// FuzzLayout lays out one lifted program with a fuzzed splice list —
// sequences of fuzzed lengths before and after instructions, some
// carrying relocations — and requires a clean layout, a clean rewrite and
// the PC-map properties. Each three input bytes place one sequence: two
// pick the slot, the third its side (bit 0), length (bits 1-3) and
// whether it materializes an external address (bit 7).
func FuzzLayout(f *testing.F) {
	exe := buildSample(f, sampleProgram)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0x04, 0, 0, 0x85, 0, 7, 0x0e, 1, 2, 0x8b})
	f.Add([]byte{0xff, 0xff, 0x0f, 0x12, 0x34, 0x02, 0x12, 0x34, 0x03})
	const ext = 0x1234_5678
	resolve := func(sym string) (uint64, bool) { return ext, sym == "ext" }
	prog, err := om.BuildCtx(nil, exe)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n := prog.NumInsts()
		var splices []om.Splice
		for i := 0; i+3 <= len(data); i += 3 {
			b := data[i+2]
			c := om.Splice{Slot: (int(data[i])<<8 | int(data[i+1])) % n, After: b&1 != 0}
			for w := 0; w < int(b>>1&7); w++ {
				c.Insts = append(c.Insts, alpha.Mem(alpha.OpLda, alpha.AT, alpha.AT, int32(w)))
			}
			if b&0x80 != 0 && len(c.Insts) >= 2 {
				c.Insts[0] = alpha.Mem(alpha.OpLdah, alpha.AT, alpha.Zero, 0)
				c.Relocs = []om.CodeReloc{
					{Index: 0, Type: aout.RelHi16, Sym: "ext"},
					{Index: 1, Type: aout.RelLo16, Sym: "ext"},
				}
			}
			splices = append(splices, c)
		}
		lay, err := prog.LayoutCtx(nil, splices)
		if err != nil {
			t.Fatal(err)
		}
		if ds := lay.VerifyCtx(nil); len(ds) > 0 {
			t.Fatalf("layout: %d diagnostics, first: %s", len(ds), ds[0])
		}
		res, err := lay.FinishCtx(nil, make([]byte, lay.TextSize()), resolve)
		if err != nil {
			t.Fatal(err)
		}
		if ds := lay.VerifyRewriteCtx(nil, res); len(ds) > 0 {
			t.Fatalf("rewrite: %d diagnostics, first: %s", len(ds), ds[0])
		}
		checkPCMap(t, prog, lay)
		checkNewAddr(t, prog, lay, splices)
	})
}
