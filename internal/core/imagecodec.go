package core

import (
	"fmt"
	"sort"

	"atom/internal/alpha"
	"atom/internal/aout"
	"atom/internal/build"
	"atom/internal/om"
)

// Wire format for the tool-image cache, so tool images persist through
// the process-wide build.DiskStore (the probe app uses rtl.FilesCodec). A
// ToolImage is the linked aout image (which has its own versioned
// encoding) plus the procedure tables, site save sets and inline
// templates the apply phase consults; all of it is byte-stable, EXCEPT
// the tool identity — the Tool value carries the user's Go
// instrumentation closure, which has no wire form. The codec therefore
// encodes everything but the tool, and toolImageFor re-attaches tool and
// key on a private copy after a disk hit (the key already proves the
// sources and options match). The version string is mixed into the cache
// key, so a format change can never decode an old blob.
const imageCodecVersion = "atom-img/v3\n"

// imageCodec serializes a *ToolImage minus its tool identity.
type imageCodec struct{}

func (imageCodec) Marshal(ti *ToolImage) ([]byte, error) {
	e := build.NewEnc(imageCodecVersion)
	e.Blob(ti.img.Encode())
	encodeNameSet(e, ti.hasProc)
	encodeNameSet(e, ti.isGlobal)

	saves := make([]string, 0, len(ti.siteSave))
	for n := range ti.siteSave {
		saves = append(saves, n)
	}
	sort.Strings(saves)
	e.U32(uint32(len(saves)))
	for _, n := range saves {
		e.Str(n)
		e.U32(uint32(ti.siteSave[n]))
	}

	names := make([]string, 0, len(ti.inline))
	for n := range ti.inline {
		names = append(names, n)
	}
	sort.Strings(names)
	e.U32(uint32(len(names)))
	for _, n := range names {
		t := ti.inline[n]
		e.Str(n)
		e.U32(uint32(t.clobbers))
		e.U32(uint32(t.bodyLen))
		e.U32(uint32(len(t.insts)))
		for _, in := range t.insts {
			e.U8(uint8(in.Op))
			e.U8(uint8(in.Ra))
			e.U8(uint8(in.Rb))
			e.U8(uint8(in.Rc))
			e.I64(int64(in.Disp))
			e.U8(in.Lit)
			if in.HasLit {
				e.U8(1)
			} else {
				e.U8(0)
			}
			e.U32(in.PalFn)
		}
		e.U32(uint32(len(t.relocs)))
		for _, r := range t.relocs {
			e.U32(uint32(r.Index))
			e.U8(uint8(r.Type))
			e.Str(r.Sym)
			e.I64(r.Addend)
		}
	}
	return e.Bytes(), nil
}

func (imageCodec) Unmarshal(blob []byte) (*ToolImage, error) {
	d := build.NewDec(blob, imageCodecVersion)
	ti := &ToolImage{}
	imgRaw := d.Blob()
	if err := d.Err(); err != nil {
		return nil, err
	}
	img, err := aout.Decode(imgRaw)
	if err != nil {
		return nil, fmt.Errorf("atom: imageCodec: image: %w", err)
	}
	ti.img = img
	ti.hasProc = decodeNameSet(d)
	ti.isGlobal = decodeNameSet(d)
	ns := d.Len()
	ti.siteSave = make(map[string]om.RegSet, ns)
	for i := 0; i < ns; i++ {
		n := d.Str()
		ti.siteSave[n] = om.RegSet(d.U32())
	}

	nt := d.Len()
	if nt > 0 {
		ti.inline = make(map[string]*inlineTemplate, nt)
	}
	for i := 0; i < nt; i++ {
		key := d.Str()
		t := &inlineTemplate{
			clobbers: om.RegSet(d.U32()),
			bodyLen:  int(d.U32()),
		}
		ni := d.Len()
		t.insts = make([]alpha.Inst, 0, ni)
		for j := 0; j < ni; j++ {
			in := alpha.Inst{
				Op:   alpha.Op(d.U8()),
				Ra:   alpha.Reg(d.U8()),
				Rb:   alpha.Reg(d.U8()),
				Rc:   alpha.Reg(d.U8()),
				Disp: int32(d.I64()),
				Lit:  d.U8(),
			}
			in.HasLit = d.U8() != 0
			in.PalFn = d.U32()
			t.insts = append(t.insts, in)
		}
		nr := d.Len()
		for j := 0; j < nr; j++ {
			t.relocs = append(t.relocs, om.CodeReloc{
				Index:  int(d.U32()),
				Type:   aout.RelocType(d.U8()),
				Sym:    d.Str(),
				Addend: d.I64(),
			})
		}
		if d.Err() != nil {
			break
		}
		t.touchesSP = namesSP(t.insts)
		ti.inline[key] = t
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return ti, nil
}

func encodeNameSet(e *build.Enc, set map[string]bool) {
	names := make([]string, 0, len(set))
	for n, ok := range set {
		if ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	e.U32(uint32(len(names)))
	for _, n := range names {
		e.Str(n)
	}
}

func decodeNameSet(d *build.Dec) map[string]bool {
	n := d.Len()
	set := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		set[d.Str()] = true
	}
	return set
}
