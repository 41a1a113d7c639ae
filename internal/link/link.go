// Package link combines relocatable object modules (and library archives)
// into executables, mirroring the standard OSF/1 ld step that precedes
// ATOM in the paper's pipeline (Figure 1: "standard linker").
//
// Two properties matter for ATOM:
//
//   - Executables retain their full symbol table and relocation records
//     ("the fully linked application program in object-module format"),
//     so OM can later rebuild the program symbolically and re-fix every
//     address constant after instrumentation moves code.
//
//   - Section placement is explicit and configurable. ATOM reuses this
//     linker to build the analysis image at a caller-chosen base address
//     in the gap between the application's text and data segments, with
//     analysis bss converted to zero-initialized data (Figure 4's
//     "uninit, initialized to 0").
package link

import (
	"fmt"

	"atom/internal/aout"
	"atom/internal/obs"
)

// Default load addresses. The stack occupies [0, TextAddr) and grows down
// from the start of text, as on Alpha OSF/1 (paper, footnote 10); the
// heap begins at the end of bss.
const (
	DefaultTextAddr = 0x0010_0000
	DefaultDataAddr = 0x0040_0000
)

// Config controls a link.
type Config struct {
	// TextAddr and DataAddr are the load addresses of the two segments.
	// Zero selects the defaults. Bss follows data immediately.
	TextAddr uint64
	DataAddr uint64
	// DataAfterText places the data segment immediately after the text
	// segment (16-byte aligned), ignoring DataAddr. ATOM uses this for
	// analysis images, which live wholly inside the gap between the
	// application's text and data.
	DataAfterText bool
	// Entry names the entry-point symbol. Zero value selects "__start".
	// Set to "-" for images with no entry point (e.g. analysis images,
	// which are only ever called into).
	Entry string
	// ZeroBss folds the bss segment into the data segment as explicit
	// zero bytes. ATOM applies this to the analysis image because all
	// initialized data in the final executable must precede all
	// uninitialized data (paper, Section 4).
	ZeroBss bool
}

// Library is a named archive of object modules with classic archive
// semantics: a member is linked in only if it defines a symbol that is
// undefined at that point in the link.
type Library struct {
	Name    string
	Members []*aout.File
}

// LinkCtx combines the given object modules, resolving undefined symbols
// against the libraries, and produces an executable. The whole link runs
// under a "link.link" span, with child spans for section layout plus
// symbol binding ("link.layout") and relocation resolution
// ("link.resolve").
func LinkCtx(ctx *obs.Ctx, cfg Config, objs []*aout.File, libs ...*Library) (*aout.File, error) {
	ctx, sp := ctx.Start("link.link", obs.Int("modules", int64(len(objs))))
	defer sp.End()
	out, err := linkCtx(ctx, cfg, objs, libs...)
	if err == nil {
		sp.SetAttr(obs.Int("text_bytes", int64(len(out.Text))),
			obs.Int("data_bytes", int64(len(out.Data))))
	}
	return out, err
}

func linkCtx(ctx *obs.Ctx, cfg Config, objs []*aout.File, libs ...*Library) (*aout.File, error) {
	if cfg.TextAddr == 0 {
		cfg.TextAddr = DefaultTextAddr
	}
	if cfg.DataAddr == 0 {
		cfg.DataAddr = DefaultDataAddr
	}
	if cfg.Entry == "" {
		cfg.Entry = "__start"
	}
	if len(objs) == 0 {
		return nil, fmt.Errorf("link: no input modules")
	}
	for i, o := range objs {
		if o.Linked {
			return nil, fmt.Errorf("link: input %d is already linked", i)
		}
		if err := o.Validate(); err != nil {
			return nil, fmt.Errorf("link: input %d: %w", i, err)
		}
	}

	modules := append([]*aout.File(nil), objs...)
	modules, err := selectMembers(modules, libs)
	if err != nil {
		return nil, err
	}

	ld := &linker{cfg: cfg, globals: map[string]symAddr{}}
	return ld.run(ctx, modules)
}

type symAddr struct {
	module int
	index  int // symbol index within module
}

// selectMembers repeatedly pulls in library members that define symbols
// still undefined, until no progress is made.
func selectMembers(modules []*aout.File, libs []*Library) ([]*aout.File, error) {
	inLink := map[*aout.File]bool{}
	for _, m := range modules {
		inLink[m] = true
	}
	for {
		undef := map[string]bool{}
		defined := map[string]bool{}
		for _, m := range modules {
			for _, s := range m.Symbols {
				if s.Section == aout.SecUndef {
					undef[s.Name] = true
				} else if s.Global {
					defined[s.Name] = true
				}
			}
		}
		progress := false
		for _, lib := range libs {
			for _, mem := range lib.Members {
				if inLink[mem] {
					continue
				}
				for _, s := range mem.Symbols {
					if s.Global && s.Section != aout.SecUndef && undef[s.Name] && !defined[s.Name] {
						if err := mem.Validate(); err != nil {
							return nil, fmt.Errorf("link: library %s: %w", lib.Name, err)
						}
						modules = append(modules, mem)
						inLink[mem] = true
						progress = true
						for _, s2 := range mem.Symbols {
							if s2.Global && s2.Section != aout.SecUndef {
								defined[s2.Name] = true
							} else if s2.Section == aout.SecUndef {
								undef[s2.Name] = true
							}
						}
						break
					}
				}
			}
		}
		if !progress {
			return modules, nil
		}
	}
}

type linker struct {
	cfg     Config
	globals map[string]symAddr
	out     *aout.File
	// per-module section placement offsets
	textOff []uint64
	dataOff []uint64
	bssOff  []uint64
	// symIndex[m][i] = index of module m's symbol i in the output table
	symIndex [][]int
}

func (ld *linker) run(ctx *obs.Ctx, modules []*aout.File) (*aout.File, error) {
	_, laySp := ctx.Start("link.layout", obs.Int("modules", int64(len(modules))))
	// Lay out sections: concatenate text (4-byte aligned already), then
	// data and bss each 16-byte aligned per module.
	var textSize, dataSize, bssSize uint64
	for _, m := range modules {
		ld.textOff = append(ld.textOff, textSize)
		textSize += uint64(len(m.Text))
		dataSize = align(dataSize, 16)
		ld.dataOff = append(ld.dataOff, dataSize)
		dataSize += uint64(len(m.Data))
		bssSize = align(bssSize, 16)
		ld.bssOff = append(ld.bssOff, bssSize)
		bssSize += m.Bss
	}

	out := &aout.File{Linked: true, TextAddr: ld.cfg.TextAddr}
	ld.out = out
	if ld.cfg.DataAfterText {
		ld.cfg.DataAddr = align(ld.cfg.TextAddr+textSize, 16)
	}
	if ld.cfg.ZeroBss {
		// Fold bss into data: data grows by aligned bss size; bss empty.
		dataSize = align(dataSize, 16)
		for i := range modules {
			ld.bssOff[i] += dataSize
		}
		out.DataAddr = ld.cfg.DataAddr
		out.BssAddr = out.DataAddr + dataSize + bssSize
		out.Data = make([]byte, dataSize+bssSize)
		out.Bss = 0
	} else {
		out.DataAddr = ld.cfg.DataAddr
		out.BssAddr = align(out.DataAddr+dataSize, 16)
		out.Data = make([]byte, dataSize)
		out.Bss = bssSize
	}
	if ld.cfg.TextAddr+textSize > ld.cfg.DataAddr {
		laySp.End()
		return nil, fmt.Errorf("link: text segment (%#x+%#x) overlaps data segment at %#x",
			ld.cfg.TextAddr, textSize, ld.cfg.DataAddr)
	}
	out.Text = make([]byte, textSize)
	for i, m := range modules {
		copy(out.Text[ld.textOff[i]:], m.Text)
		copy(out.Data[ld.dataOff[i]:], m.Data)
	}

	err := ld.buildSymbols(modules)
	laySp.End()
	if err != nil {
		return nil, err
	}
	_, resSp := ctx.Start("link.resolve")
	err = ld.applyRelocs(modules)
	resSp.End()
	if err != nil {
		return nil, err
	}

	if ld.cfg.Entry != "-" {
		e, ok := out.Lookup(ld.cfg.Entry)
		if !ok || e.Section != aout.SecText {
			return nil, fmt.Errorf("link: entry symbol %q not defined in text", ld.cfg.Entry)
		}
		out.Entry = e.Value
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("link: internal: %w", err)
	}
	return out, nil
}

// bssSection returns where a module's bss symbol lives in the output:
// the data section when ZeroBss folded it, otherwise bss.
func (ld *linker) bssSection() aout.Section {
	if ld.cfg.ZeroBss {
		return aout.SecData
	}
	return aout.SecBss
}

func (ld *linker) symBase(mi int, sec aout.Section) uint64 {
	switch sec {
	case aout.SecText:
		return ld.out.TextAddr + ld.textOff[mi]
	case aout.SecData:
		return ld.out.DataAddr + ld.dataOff[mi]
	case aout.SecBss:
		if ld.cfg.ZeroBss {
			return ld.out.DataAddr + ld.bssOff[mi]
		}
		return ld.out.BssAddr + ld.bssOff[mi]
	}
	return 0
}

func (ld *linker) buildSymbols(modules []*aout.File) error {
	ld.symIndex = make([][]int, len(modules))
	// First pass: define everything; detect duplicate globals.
	for mi, m := range modules {
		ld.symIndex[mi] = make([]int, len(m.Symbols))
		for si, s := range m.Symbols {
			ld.symIndex[mi][si] = -1
			if s.Section == aout.SecUndef {
				continue
			}
			ns := s
			if s.Section != aout.SecAbs {
				ns.Value = ld.symBase(mi, s.Section) + s.Value
				if s.Section == aout.SecBss {
					ns.Section = ld.bssSection()
				}
			}
			if s.Global {
				if prev, dup := ld.globals[s.Name]; dup {
					_ = prev
					return fmt.Errorf("link: symbol %q multiply defined", s.Name)
				}
				ld.globals[s.Name] = symAddr{mi, si}
			}
			ld.symIndex[mi][si] = len(ld.out.Symbols)
			ld.out.Symbols = append(ld.out.Symbols, ns)
		}
	}
	// Second pass: bind undefined references to the global definitions.
	var missing []string
	for mi, m := range modules {
		for si, s := range m.Symbols {
			if s.Section != aout.SecUndef {
				continue
			}
			def, ok := ld.globals[s.Name]
			if !ok {
				missing = append(missing, s.Name)
				continue
			}
			ld.symIndex[mi][si] = ld.symIndex[def.module][def.index]
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("link: undefined symbols: %v", dedup(missing))
	}
	return nil
}

func (ld *linker) applyRelocs(modules []*aout.File) error {
	for mi, m := range modules {
		for _, r := range m.Relocs {
			outSym := ld.symIndex[mi][r.Sym]
			if outSym < 0 {
				return fmt.Errorf("link: reloc against unbound symbol %q", m.Symbols[r.Sym].Name)
			}
			target := ld.out.Symbols[outSym].Value + uint64(r.Addend)
			var secBase, off uint64
			var buf []byte
			switch r.Section {
			case aout.SecText:
				secBase = ld.out.TextAddr
				off = ld.textOff[mi] + r.Offset
				buf = ld.out.Text
			case aout.SecData:
				secBase = ld.out.DataAddr
				off = ld.dataOff[mi] + r.Offset
				buf = ld.out.Data
			default:
				return fmt.Errorf("link: reloc in section %v", r.Section)
			}
			if err := Patch(buf, off, secBase+off, r.Type, target, m.Symbols[r.Sym].Name); err != nil {
				return err
			}
			// Retain the relocation, rebased into the output sections,
			// for OM's later use.
			ld.out.Relocs = append(ld.out.Relocs, aout.Reloc{
				Section: r.Section,
				Offset:  off,
				Type:    r.Type,
				Sym:     outSym,
				Addend:  r.Addend,
			})
		}
	}
	return nil
}

func align(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }

func dedup(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
