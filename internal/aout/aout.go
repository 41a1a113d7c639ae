// Package aout defines the object-module and executable file format used
// throughout the ATOM reproduction.
//
// A single File type represents both relocatable object modules (produced
// by the assembler) and fully linked executables (produced by the linker).
// Crucially — and this is what makes OM-style link-time instrumentation
// possible — executables retain their symbol table and relocation records.
// OM re-derives procedure boundaries from function symbols and re-fixes
// address constants from the retained relocations after it moves code.
//
// A File has exactly three sections: text, data, and bss, mirroring the
// layout conventions of the OSF/1 executables that ATOM manipulates
// (Figure 4 of the paper).
package aout

import (
	"cmp"
	"fmt"
	"slices"
)

// Section identifies one of the three sections, or the pseudo-sections
// used by symbols.
type Section uint8

const (
	SecUndef Section = iota // undefined (external) symbol
	SecText
	SecData
	SecBss
	SecAbs // absolute value, not section-relative
)

// String returns the conventional section name.
func (s Section) String() string {
	switch s {
	case SecUndef:
		return "*UND*"
	case SecText:
		return ".text"
	case SecData:
		return ".data"
	case SecBss:
		return ".bss"
	case SecAbs:
		return "*ABS*"
	}
	return fmt.Sprintf("sec%d?", uint8(s))
}

// HeapZoneSymbol names the record of the partitioned-heap scheme
// (Figure 4): a local SecAbs symbol whose value is the offset of the
// analysis sbrk zone from the heap base. ATOM writes it into an
// instrumented executable that partitions the heap, and the loader
// reads it back; an executable without it links the two sbrks.
const HeapZoneSymbol = "atom$heapzone"

// SymKind classifies a symbol.
type SymKind uint8

const (
	SymNone SymKind = iota // data label or untyped symbol
	SymFunc                // procedure entry point (from .ent)
)

// Symbol is one symbol-table entry. In a relocatable module Value is an
// offset within Section; in a linked executable it is an absolute address.
type Symbol struct {
	Name    string
	Kind    SymKind
	Section Section
	Value   uint64
	Size    uint64 // procedure or object size in bytes; 0 if unknown
	Global  bool   // visible to other modules when linking
}

// RelocType identifies how a relocation patches the instruction or datum
// at its offset.
type RelocType uint8

const (
	// RelBr21 patches the 21-bit word displacement of a br/bsr/conditional
	// branch so it reaches symbol+addend.
	RelBr21 RelocType = iota
	// RelHi16 patches the 16-bit displacement of an ldah with the high
	// half of symbol+addend, adjusted for the sign of the paired low half
	// ((S+A+0x8000)>>16).
	RelHi16
	// RelLo16 patches the 16-bit displacement of an lda/load/store with
	// the low 16 bits of symbol+addend (sign-extended by the hardware).
	RelLo16
	// RelQuad patches a 64-bit datum with symbol+addend.
	RelQuad
	// RelLong patches a 32-bit datum with symbol+addend (range-checked).
	RelLong
)

// String returns the relocation-type name.
func (t RelocType) String() string {
	switch t {
	case RelBr21:
		return "BR21"
	case RelHi16:
		return "HI16"
	case RelLo16:
		return "LO16"
	case RelQuad:
		return "QUAD"
	case RelLong:
		return "LONG"
	}
	return fmt.Sprintf("rel%d?", uint8(t))
}

// Reloc is one relocation record. Section must be SecText or SecData;
// Offset is the byte offset of the patched word within that section.
// Sym indexes the File's symbol table.
type Reloc struct {
	Section Section
	Offset  uint64
	Type    RelocType
	Sym     int
	Addend  int64
}

// File is an object module or executable.
type File struct {
	// Linked is true for executables: symbol values are absolute,
	// section addresses are set, and Entry is meaningful.
	Linked bool
	Entry  uint64

	Text []byte
	Data []byte
	Bss  uint64 // size in bytes; bss has no file contents

	TextAddr uint64 // absolute addresses; meaningful when Linked
	DataAddr uint64
	BssAddr  uint64

	Symbols []Symbol
	Relocs  []Reloc
}

// SymIndex returns the index of the named symbol, or -1.
// Global symbols take precedence over locals of the same name.
func (f *File) SymIndex(name string) int {
	best := -1
	for i, s := range f.Symbols {
		if s.Name != name {
			continue
		}
		if s.Global {
			return i
		}
		if best < 0 {
			best = i
		}
	}
	return best
}

// Lookup returns the named symbol. It reports false if absent.
func (f *File) Lookup(name string) (Symbol, bool) {
	i := f.SymIndex(name)
	if i < 0 {
		return Symbol{}, false
	}
	return f.Symbols[i], true
}

// SectionAddr returns the load address of a section in a linked file.
func (f *File) SectionAddr(s Section) uint64 {
	switch s {
	case SecText:
		return f.TextAddr
	case SecData:
		return f.DataAddr
	case SecBss:
		return f.BssAddr
	}
	return 0
}

// SymAddr returns the absolute address of symbol i in a linked file.
// For relocatable files it returns the section-relative value.
func (f *File) SymAddr(i int) uint64 {
	s := f.Symbols[i]
	if !f.Linked || s.Section == SecAbs || s.Section == SecUndef {
		return s.Value
	}
	return s.Value
}

// Funcs returns the function symbols sorted by address. Sizes are filled
// in from the gap to the next function (or the end of text) when a symbol
// has no recorded size.
func (f *File) Funcs() []Symbol {
	n := 0
	for _, s := range f.Symbols {
		if s.Kind == SymFunc && s.Section == SecText {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	fns := make([]Symbol, 0, n)
	for _, s := range f.Symbols {
		if s.Kind == SymFunc && s.Section == SecText {
			fns = append(fns, s)
		}
	}
	// A zero-size alias sorts before the function at its address, so it
	// keeps its zero size.
	slices.SortFunc(fns, func(a, b Symbol) int {
		return cmp.Or(cmp.Compare(a.Value, b.Value), cmp.Compare(a.Size, b.Size))
	})
	end := f.TextAddr + uint64(len(f.Text))
	if !f.Linked {
		end = uint64(len(f.Text))
	}
	for i := range fns {
		if fns[i].Size != 0 {
			continue
		}
		if i+1 < len(fns) {
			fns[i].Size = fns[i+1].Value - fns[i].Value
		} else {
			fns[i].Size = end - fns[i].Value
		}
	}
	return fns
}

// Validate checks internal consistency: relocation targets in range,
// symbol references valid, section values sane. It is used by tests and
// by the linker before consuming a module.
func (f *File) Validate() error {
	if len(f.Text)%4 != 0 {
		return fmt.Errorf("aout: text size %d not a multiple of 4", len(f.Text))
	}
	for i, s := range f.Symbols {
		switch s.Section {
		case SecText:
			if !f.Linked && s.Value > uint64(len(f.Text)) {
				return fmt.Errorf("aout: symbol %q value %#x beyond text", s.Name, s.Value)
			}
		case SecData:
			if !f.Linked && s.Value > uint64(len(f.Data)) {
				return fmt.Errorf("aout: symbol %q value %#x beyond data", s.Name, s.Value)
			}
		case SecBss:
			if !f.Linked && s.Value > f.Bss {
				return fmt.Errorf("aout: symbol %q value %#x beyond bss", s.Name, s.Value)
			}
		case SecUndef, SecAbs:
		default:
			return fmt.Errorf("aout: symbol %d (%q) has bad section %d", i, s.Name, s.Section)
		}
	}
	for i, r := range f.Relocs {
		if r.Sym < 0 || r.Sym >= len(f.Symbols) {
			return fmt.Errorf("aout: reloc %d references symbol %d of %d", i, r.Sym, len(f.Symbols))
		}
		var max uint64
		switch r.Section {
		case SecText:
			max = uint64(len(f.Text))
		case SecData:
			max = uint64(len(f.Data))
		default:
			return fmt.Errorf("aout: reloc %d in non-loaded section %v", i, r.Section)
		}
		var width uint64 = 4
		if r.Type == RelQuad {
			width = 8
		}
		if r.Offset+width > max {
			return fmt.Errorf("aout: reloc %d at %#x+%d beyond section %v (%d bytes)", i, r.Offset, width, r.Section, max)
		}
	}
	return nil
}
