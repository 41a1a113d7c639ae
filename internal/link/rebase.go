package link

import (
	"fmt"

	"atom/internal/aout"
	"atom/internal/obs"
)

// RebaseCtx moves a linked image rigidly so its text segment starts at
// newTextAddr; data and bss keep their distances from text. Because
// executables retain their relocation records, every absolute address
// constant (HI16/LO16 pairs, QUAD/LONG data) is re-patched against the
// shifted symbol values; PC-relative branch displacements are invariant
// under a rigid shift and are left alone.
//
// ATOM uses this to place a tool's analysis image — compiled and linked
// exactly once, at a canonical base — into the text-data gap of each
// application it instruments, which is how the paper's "build the tool
// once, apply it to any program" cost model is realized without a
// per-program relink.
//
// The moved text and data are written into text and data, which must be
// exactly as long as the image's sections: ATOM passes the windows of the
// composed executable's text segment they end up in, so the image is
// copied once. The returned file's Text and Data are those slices, also
// when newTextAddr is the current base; its Relocs are the input's. The
// input is not modified. The rigid shift and its relocation re-patch run
// under a "link.rebase" span.
func RebaseCtx(ctx *obs.Ctx, img *aout.File, newTextAddr uint64, text, data []byte) (*aout.File, error) {
	_, sp := ctx.Start("link.rebase",
		obs.Int("relocs", int64(len(img.Relocs))))
	defer sp.End()
	if !img.Linked {
		return nil, fmt.Errorf("link: rebase of unlinked module")
	}
	if len(text) != len(img.Text) || len(data) != len(img.Data) {
		return nil, fmt.Errorf("link: rebase into %d text and %d data bytes of an image with %d and %d",
			len(text), len(data), len(img.Text), len(img.Data))
	}
	delta := int64(newTextAddr) - int64(img.TextAddr)
	shift := func(a uint64) uint64 { return uint64(int64(a) + delta) }

	copy(text, img.Text)
	copy(data, img.Data)
	out := &aout.File{
		Linked:   true,
		Text:     text,
		Data:     data,
		Bss:      img.Bss,
		TextAddr: shift(img.TextAddr),
		DataAddr: shift(img.DataAddr),
		BssAddr:  shift(img.BssAddr),
		Relocs:   img.Relocs, // section-relative offsets: unchanged
	}
	if img.Entry != 0 {
		out.Entry = shift(img.Entry)
	}
	out.Symbols = make([]aout.Symbol, len(img.Symbols))
	copy(out.Symbols, img.Symbols)
	for i := range out.Symbols {
		switch out.Symbols[i].Section {
		case aout.SecText, aout.SecData, aout.SecBss:
			out.Symbols[i].Value = shift(out.Symbols[i].Value)
		}
	}
	if delta == 0 {
		return out, nil // every address constant already holds its value
	}

	for _, r := range img.Relocs {
		if r.Type == aout.RelBr21 {
			continue // PC-relative: unchanged by a rigid shift
		}
		sym := out.Symbols[r.Sym]
		if sym.Section == aout.SecAbs || sym.Section == aout.SecUndef {
			continue // target does not move
		}
		target := sym.Value + uint64(r.Addend)
		var buf []byte
		var site uint64
		switch r.Section {
		case aout.SecText:
			buf, site = out.Text, out.TextAddr+r.Offset
		case aout.SecData:
			buf, site = out.Data, out.DataAddr+r.Offset
		default:
			return nil, fmt.Errorf("link: rebase: reloc in section %v", r.Section)
		}
		if err := Patch(buf, r.Offset, site, r.Type, target, sym.Name); err != nil {
			return nil, fmt.Errorf("link: rebase to %#x: %w", newTextAddr, err)
		}
	}
	return out, nil
}
