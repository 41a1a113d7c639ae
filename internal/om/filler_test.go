package om_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"atom/internal/alpha"
	"atom/internal/aout"
	"atom/internal/asm"
	"atom/internal/cc"
	"atom/internal/link"
	"atom/internal/om"
	"atom/internal/rtl"
	"atom/internal/vm"
)

// padSrc is a text module with no symbol: linked between two
// procedures, its two words are the kind of padding ATOM leaves in front
// of an analysis image.
const padSrc = "\t.text\n\tlda $1, 1234($31)\n\tldah $2, 567($31)\n"

// gapExe links sampleProgram with padSrc between its last procedure and
// the runtime library's first, and returns the executable, the padding's
// address and its bytes.
func gapExe(t testing.TB) (*aout.File, uint64, []byte) {
	t.Helper()
	hdrs, err := rtl.HeadersCtx(nil)
	if err != nil {
		t.Fatal(err)
	}
	app, err := cc.BuildCtx(nil, "prog.c", sampleProgram, hdrs)
	if err != nil {
		t.Fatal(err)
	}
	pad, err := asm.AssembleCtx(nil, "pad.s", padSrc)
	if err != nil {
		t.Fatal(err)
	}
	c0, err := rtl.Crt0Ctx(nil)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := rtl.LibCtx(nil)
	if err != nil {
		t.Fatal(err)
	}
	exe, err := link.LinkCtx(nil, link.Config{}, []*aout.File{c0, app, pad}, lib)
	if err != nil {
		t.Fatal(err)
	}
	main, ok := exe.Lookup("main")
	if !ok {
		t.Fatal("no main")
	}
	gap := main.Value + main.Size
	if !bytes.Equal(exe.Text[gap-exe.TextAddr:][:len(pad.Text)], pad.Text) {
		t.Fatal("the padding does not follow main")
	}
	return exe, gap, pad.Text
}

// TestFillerLiftsAndReemits: padding between two procedures lifts as
// filler that belongs to no procedure, and layout re-emits it word for
// word while the code around it grows; the rewritten program runs alike.
func TestFillerLiftsAndReemits(t *testing.T) {
	exe, gap, pad := gapExe(t)
	ref := runExe(t, exe, vm.Config{})
	prog, err := om.BuildCtx(nil, exe)
	if err != nil {
		t.Fatal(err)
	}
	if ds := prog.VerifyCtx(nil); len(ds) > 0 {
		t.Fatalf("VerifyCtx: %v", ds)
	}
	if in := prog.InstAt(gap); in != nil {
		t.Errorf("InstAt(filler) = %v, want nil", in.I)
	}
	nop := alpha.Mov(alpha.Zero, alpha.Zero)
	lay := layout(t, prog, spliceBefore(t, prog, allInsts(prog), nop))
	if ds := lay.VerifyCtx(nil); len(ds) > 0 {
		t.Fatalf("Layout.VerifyCtx: %v", ds)
	}
	res, err := lay.FinishCtx(nil, make([]byte, lay.TextSize()), func(string) (uint64, bool) { return 0, false })
	if err != nil {
		t.Fatal(err)
	}
	if ds := lay.VerifyRewriteCtx(nil, res); len(ds) > 0 {
		t.Fatalf("VerifyRewriteCtx: %v", ds)
	}
	at, ok := lay.NewAddr(gap)
	if !ok || at == gap {
		t.Fatalf("filler new address %#x (%v), want it moved", at, ok)
	}
	if got := res.Text[at-exe.TextAddr:][:len(pad)]; !bytes.Equal(got, pad) {
		t.Errorf("filler re-emitted as % x, want % x", got, pad)
	}
	// main's new size stops at the filler.
	for _, s := range res.Symbols {
		if s.Name == "main" && s.Value+s.Size != at {
			t.Errorf("main ends at %#x, want the filler's %#x", s.Value+s.Size, at)
		}
	}
	out := &aout.File{
		Linked: true, Entry: res.Entry,
		Text: res.Text, TextAddr: exe.TextAddr,
		Data: res.Data, DataAddr: exe.DataAddr,
		Bss: exe.Bss, BssAddr: exe.BssAddr,
		Symbols: res.Symbols,
	}
	got := runExe(t, out, vm.Config{})
	if string(got.Stdout) != string(ref.Stdout) || got.Icount != 2*ref.Icount {
		t.Errorf("rewritten run: stdout %q icount %d, want %q and %d", got.Stdout, got.Icount, ref.Stdout, 2*ref.Icount)
	}
	// The rewritten program lifts again, filler and all.
	if _, err := om.BuildCtx(nil, out); err != nil {
		t.Errorf("re-lift: %v", err)
	}
}

// TestFillerRejected: a gap that a symbol names, that a relocation
// patches or that the procedure in front falls through into stays an
// error naming its address.
func TestFillerRejected(t *testing.T) {
	exe, gap, _ := gapExe(t)
	want := fmt.Sprintf("text gap or overlap at %#x", gap)
	withSym := *exe
	withSym.Symbols = append(append([]aout.Symbol(nil), exe.Symbols...),
		aout.Symbol{Name: "pad", Section: aout.SecText, Value: gap + 4})
	withReloc := *exe
	withReloc.Relocs = append(append([]aout.Reloc(nil), exe.Relocs...),
		aout.Reloc{Section: aout.SecText, Offset: gap - exe.TextAddr, Type: aout.RelLong, Sym: 0})
	fallsIn := *exe
	fallsIn.Text = append([]byte(nil), exe.Text...)
	nop, err := alpha.Mov(alpha.Zero, alpha.Zero).Encode()
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(fallsIn.Text[gap-4-exe.TextAddr:], nop) // main's ret
	for name, bad := range map[string]*aout.File{"symbol": &withSym, "relocation": &withReloc, "fall-through": &fallsIn} {
		if _, err := om.BuildCtx(nil, bad); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("gap with a %s: err = %v, want %q", name, err, want)
		}
	}
}
