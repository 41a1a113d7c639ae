package link

import (
	"bytes"
	"testing"

	"atom/internal/aout"
)

// rebaseSrc exercises every relocation kind a rebase must handle: a BR21
// call, HI16/LO16 address materialization of a data symbol, and a QUAD
// code pointer resident in data.
const rebaseSrc = `
	.text
	.globl helper
	.ent helper
helper:
	ret (ra)
	.end helper
	.globl body
	.ent body
body:
	bsr ra, helper
	la t0, table
	ldq v0, 0(t0)
	ret (ra)
	.end body
	.data
	.globl table
table:	.quad body
	.quad 7
`

func TestRebaseMatchesDirectLink(t *testing.T) {
	mod := obj(t, rebaseSrc)
	cfg := Config{DataAfterText: true, Entry: "-", ZeroBss: true}
	at := func(base uint64) *aout.File {
		cfg := cfg
		cfg.TextAddr = base
		exe, err := LinkCtx(nil, cfg, []*aout.File{obj(t, rebaseSrc)})
		if err != nil {
			t.Fatalf("Link at %#x: %v", base, err)
		}
		return exe
	}
	_ = mod

	canonical := at(DefaultTextAddr)
	const newBase = DefaultTextAddr + 0x12340
	want := at(newBase)
	got, err := rebase(canonical, newBase)
	if err != nil {
		t.Fatalf("Rebase: %v", err)
	}

	if got.TextAddr != want.TextAddr || got.DataAddr != want.DataAddr || got.BssAddr != want.BssAddr {
		t.Fatalf("layout: got %#x/%#x/%#x, want %#x/%#x/%#x",
			got.TextAddr, got.DataAddr, got.BssAddr, want.TextAddr, want.DataAddr, want.BssAddr)
	}
	if !bytes.Equal(got.Text, want.Text) {
		t.Error("rebased text differs from a direct link at the new base")
	}
	if !bytes.Equal(got.Data, want.Data) {
		t.Error("rebased data differs from a direct link at the new base")
	}
	for _, name := range []string{"helper", "body", "table"} {
		g, ok1 := got.Lookup(name)
		w, ok2 := want.Lookup(name)
		if !ok1 || !ok2 || g.Value != w.Value {
			t.Errorf("symbol %s: got %#x, want %#x", name, g.Value, w.Value)
		}
	}
	// The original must be untouched.
	if canonical.TextAddr != DefaultTextAddr {
		t.Error("Rebase mutated its input")
	}
	// Rebasing back must round-trip.
	back, err := rebase(got, DefaultTextAddr)
	if err != nil {
		t.Fatalf("Rebase back: %v", err)
	}
	if !bytes.Equal(back.Text, canonical.Text) || !bytes.Equal(back.Data, canonical.Data) {
		t.Error("rebase does not round-trip")
	}
}

// rebase moves img into fresh section buffers.
func rebase(img *aout.File, newTextAddr uint64) (*aout.File, error) {
	return RebaseCtx(nil, img, newTextAddr, make([]byte, len(img.Text)), make([]byte, len(img.Data)))
}

// TestRebaseNoop rebases an image to its own base: the destination
// slices are still filled and returned, and the input stays untouched.
func TestRebaseNoop(t *testing.T) {
	exe, err := LinkCtx(nil, Config{DataAfterText: true, Entry: "-", ZeroBss: true},
		[]*aout.File{obj(t, rebaseSrc)})
	if err != nil {
		t.Fatal(err)
	}
	wantText := append([]byte(nil), exe.Text...)
	wantData := append([]byte(nil), exe.Data...)
	text, data := make([]byte, len(exe.Text)), make([]byte, len(exe.Data))
	got, err := RebaseCtx(nil, exe, exe.TextAddr, text, data)
	if err != nil {
		t.Fatal(err)
	}
	if got == exe {
		t.Fatal("zero-delta rebase returned the image itself instead of filling the destination")
	}
	if &got.Text[0] != &text[0] || &got.Data[0] != &data[0] {
		t.Error("zero-delta rebase did not return the destination slices")
	}
	if !bytes.Equal(text, wantText) || !bytes.Equal(data, wantData) {
		t.Error("zero-delta rebase did not fill the destination with the image's sections")
	}
	if got.TextAddr != exe.TextAddr || got.DataAddr != exe.DataAddr || got.BssAddr != exe.BssAddr {
		t.Errorf("zero-delta rebase moved the image: %#x/%#x/%#x", got.TextAddr, got.DataAddr, got.BssAddr)
	}
	for i, s := range got.Symbols {
		if s != exe.Symbols[i] {
			t.Errorf("symbol %d: %+v, want %+v", i, s, exe.Symbols[i])
		}
	}
	text[0] ^= 0xFF
	data[0] ^= 0xFF
	if !bytes.Equal(exe.Text, wantText) || !bytes.Equal(exe.Data, wantData) {
		t.Error("writing the rebased sections changed the input image")
	}
	if _, err := RebaseCtx(nil, exe, exe.TextAddr, text[1:], data); err == nil {
		t.Error("Rebase into a short text buffer succeeded")
	}
}
