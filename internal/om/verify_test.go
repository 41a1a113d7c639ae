package om_test

import (
	"strings"
	"testing"

	"atom/internal/alpha"
	"atom/internal/om"
)

// verifyClean builds the sample program, splices some code, and runs all
// three verifier stages, expecting silence at each.
func TestVerifyCleanPipeline(t *testing.T) {
	exe := buildSample(t, sampleProgram)
	prog, err := om.BuildCtx(nil, exe)
	if err != nil {
		t.Fatal(err)
	}
	if ds := prog.VerifyCtx(nil); len(ds) > 0 {
		t.Fatalf("pristine IR has %d diagnostics, first: %s", len(ds), ds[0])
	}

	// Instrument a little: nops before every instruction of main.
	nop := alpha.Mov(alpha.Zero, alpha.Zero)
	lay := layout(t, prog, spliceBefore(t, prog, instsOf(prog.Proc("main").Blocks[0]), nop, nop))
	if ds := lay.VerifyCtx(nil); len(ds) > 0 {
		t.Fatalf("layout has %d diagnostics, first: %s", len(ds), ds[0])
	}
	res, err := lay.FinishCtx(nil, make([]byte, lay.TextSize()), func(string) (uint64, bool) { return 0, false })
	if err != nil {
		t.Fatal(err)
	}
	if ds := lay.VerifyRewriteCtx(nil, res); len(ds) > 0 {
		t.Fatalf("rewrite has %d diagnostics, first: %s", len(ds), ds[0])
	}
}

// Each corruption of a well-formed IR must surface as at least one
// diagnostic mentioning the defect, attributed to the right procedure.
func TestVerifyDetectsCorruption(t *testing.T) {
	build := func(t *testing.T) *om.Program {
		prog, err := om.BuildCtx(nil, buildSample(t, sampleProgram))
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}

	tests := []struct {
		name    string
		corrupt func(p *om.Program)
		wantMsg string
	}{
		{
			name: "skewed-address",
			corrupt: func(p *om.Program) {
				b := p.Proc("fib").Blocks[0]
				b.Insts[0].Addr += 4
			},
			wantMsg: "address",
		},
		{
			name: "bad-block-index",
			corrupt: func(p *om.Program) {
				p.Proc("fib").Blocks[1].Index = 7
			},
			wantMsg: "index",
		},
		{
			name: "cross-procedure-edge",
			corrupt: func(p *om.Program) {
				fib := p.Proc("fib")
				main := p.Proc("main")
				fib.Blocks[0].Succs[0] = main.Blocks[0]
			},
			wantMsg: "leaves the procedure",
		},
		{
			name: "dropped-fallthrough",
			corrupt: func(p *om.Program) {
				// Find a conditional block and cut one successor edge.
				for _, b := range p.Proc("fib").Blocks {
					last := b.Insts[len(b.Insts)-1]
					if last.I.Op.IsCondBranch() && len(b.Succs) == 2 {
						b.Succs = b.Succs[:1]
						return
					}
				}
				panic("no conditional block in fib")
			},
			wantMsg: "successor edges",
		},
		{
			name: "undecodable-rewrite",
			corrupt: func(p *om.Program) {
				// An instruction the encoder accepts whose operands were
				// scribbled: Rc on a branch makes the round-trip differ.
				b := p.Proc("fib").Blocks[0]
				b.Insts[0].I.Rc = alpha.T7
			},
			wantMsg: "",
		},
	}

	for _, tc := range tests {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := build(t)
			tc.corrupt(p)
			ds := p.VerifyCtx(nil)
			if len(ds) == 0 {
				t.Fatalf("%s: corruption not detected", tc.name)
			}
			if tc.wantMsg != "" {
				found := false
				for _, d := range ds {
					if strings.Contains(d.Msg, tc.wantMsg) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("%s: no diagnostic mentions %q; got %s", tc.name, tc.wantMsg, ds[0])
				}
			}
			// Diagnostics carry original PCs inside the text segment and,
			// when attributable, a procedure name.
			for _, d := range ds {
				if d.Addr != 0 && d.Proc == "" && d.Addr >= p.Exe.TextAddr &&
					d.Addr < p.Exe.TextAddr+uint64(len(p.Exe.Text)) {
					t.Errorf("%s: diagnostic inside text lacks a procedure: %s", tc.name, d)
				}
			}
		})
	}
}

// A tampered rewrite — text patched after Finish — must be caught by
// VerifyRewriteCtx, with the diagnostic located at the ORIGINAL pc of the
// damaged instruction.
func TestVerifyRewriteDetectsTampering(t *testing.T) {
	prog, err := om.BuildCtx(nil, buildSample(t, sampleProgram))
	if err != nil {
		t.Fatal(err)
	}
	lay := layout(t, prog, nil)
	res, err := lay.FinishCtx(nil, make([]byte, lay.TextSize()), func(string) (uint64, bool) { return 0, false })
	if err != nil {
		t.Fatal(err)
	}

	// Flip the opcode bits of main's first instruction in the output.
	main := prog.Proc("main")
	orig := main.Blocks[0].Insts[0]
	newAddr, ok := lay.NewAddr(orig.Addr)
	if !ok {
		t.Fatal("main's first instruction unmapped")
	}
	off := newAddr - prog.Exe.TextAddr
	res.Text[off+3] ^= 0xFC // opcode lives in the top bits

	ds := lay.VerifyRewriteCtx(nil, res)
	if len(ds) == 0 {
		t.Fatal("tampered text passed VerifyRewriteCtx")
	}
	found := false
	for _, d := range ds {
		if d.Addr == orig.Addr && d.Proc == "main" {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no diagnostic at original pc %#x in main; first: %s", orig.Addr, ds[0])
	}
}
