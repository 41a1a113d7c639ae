// Package asm implements a two-pass assembler from textual Alpha-subset
// assembly to aout relocatable object modules.
//
// The accepted dialect follows OSF/1 `as` conventions closely enough that
// the paper's code fragments translate directly:
//
//	        .text
//	        .globl  main
//	        .ent    main
//	main:   lda     sp, -16(sp)
//	        stq     ra, 0(sp)
//	        la      a0, msg         # pseudo: ldah/lda pair + relocs
//	        bsr     ra, puts        # cross-module branches get BR21 relocs
//	        li      t0, 0x12345678  # pseudo: shortest immediate sequence
//	        ldq     ra, 0(sp)
//	        lda     sp, 16(sp)
//	        ret     (ra)
//	        .end    main
//	        .data
//	msg:    .asciiz "hello\n"
//
// Sections: .text (instructions only), .data (.byte/.word/.long/.quad/
// .ascii/.asciiz/.space/.align), .bss (.space/.align only). Procedures
// are bracketed with .ent/.end, which produces SymFunc symbols — the
// handles OM uses to rebuild the program's procedure structure.
package asm

import (
	"fmt"
	"strings"

	"atom/internal/aout"
	"atom/internal/obs"
)

// AssembleCtx translates one assembly source file into an object module.
// name is used in error messages only. The two-pass assembly runs under
// an "asm.assemble" span annotated with the module name and the text
// bytes it produced.
func AssembleCtx(ctx *obs.Ctx, name, src string) (*aout.File, error) {
	_, sp := ctx.Start("asm.assemble", obs.String("file", name))
	defer sp.End()
	a := &assembler{
		name:    name,
		symbols: map[string]*symbol{},
		file:    &aout.File{},
	}
	if err := a.run(src); err != nil {
		return nil, err
	}
	sp.SetAttr(obs.Int("text_bytes", int64(len(a.file.Text))))
	return a.file, nil
}

type symbol struct {
	name    string
	section aout.Section
	offset  uint64
	size    uint64
	global  bool
	isFunc  bool
	defined bool
	index   int // position in file symbol table; -1 until emitted
}

type assembler struct {
	name    string
	line    int
	section aout.Section
	symbols map[string]*symbol
	order   []*symbol // definition/reference order for stable output
	file    *aout.File

	// Pass state.
	pass    int // 1 = sizing, 2 = encoding
	text    []byte
	data    []byte
	bss     uint64
	pendEnt string
	emitErr error // first instruction-encoding error, if any

	relocSyms []*symbol // parallel to file.Relocs; resolved to indices at the end
}

func (a *assembler) errf(format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s", a.name, a.line, fmt.Sprintf(format, args...))
}

func (a *assembler) run(src string) error {
	lines := strings.Split(src, "\n")
	for a.pass = 1; a.pass <= 2; a.pass++ {
		a.section = aout.SecText
		a.text = a.text[:0]
		a.data = a.data[:0]
		a.bss = 0
		a.pendEnt = ""
		for i, line := range lines {
			a.line = i + 1
			if err := a.doLine(line); err != nil {
				return err
			}
		}
		if a.pendEnt != "" {
			return fmt.Errorf("%s: .ent %s without matching .end", a.name, a.pendEnt)
		}
		if a.emitErr != nil {
			return a.emitErr
		}
	}
	a.file.Text = append([]byte(nil), a.text...)
	a.file.Data = append([]byte(nil), a.data...)
	a.file.Bss = a.bss
	// Emit the symbol table: every defined symbol plus referenced
	// undefined ones.
	for _, s := range a.order {
		sym := aout.Symbol{Name: s.name, Value: s.offset, Size: s.size, Global: s.global}
		if s.isFunc {
			sym.Kind = aout.SymFunc
		}
		if s.defined {
			sym.Section = s.section
		} else {
			sym.Section = aout.SecUndef
			sym.Global = true
			sym.Value = 0
		}
		s.index = len(a.file.Symbols)
		a.file.Symbols = append(a.file.Symbols, sym)
	}
	// Relocation symbol references were recorded as *symbol in pass 2;
	// patch in final indices.
	for i := range a.file.Relocs {
		a.file.Relocs[i].Sym = a.relocSyms[i].index
	}
	if err := a.file.Validate(); err != nil {
		return fmt.Errorf("%s: internal error: %w", a.name, err)
	}
	return nil
}

// loc returns the current offset in the active section.
func (a *assembler) loc() uint64 {
	switch a.section {
	case aout.SecText:
		return uint64(len(a.text))
	case aout.SecData:
		return uint64(len(a.data))
	default:
		return a.bss
	}
}

func (a *assembler) doLine(line string) error {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	line = strings.TrimSpace(line)
	// Labels (possibly several) at line start.
	for {
		i := strings.IndexByte(line, ':')
		if i < 0 {
			break
		}
		head := strings.TrimSpace(line[:i])
		if !isIdent(head) {
			break
		}
		if err := a.defineLabel(head); err != nil {
			return err
		}
		line = strings.TrimSpace(line[i+1:])
	}
	if line == "" {
		return nil
	}
	op := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		op, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	if strings.HasPrefix(op, ".") {
		return a.directive(op, rest)
	}
	return a.instruction(op, rest)
}

func (a *assembler) defineLabel(name string) error {
	s := a.sym(name)
	if a.pass == 1 {
		if s.defined {
			return a.errf("symbol %q redefined", name)
		}
		s.defined = true
		s.section = a.section
		s.offset = a.loc()
		return nil
	}
	// Pass 2: offsets must agree (they will unless sizing is buggy).
	if s.offset != a.loc() || s.section != a.section {
		return a.errf("internal: label %q moved between passes (%#x -> %#x)", name, s.offset, a.loc())
	}
	return nil
}

func (a *assembler) sym(name string) *symbol {
	if s, ok := a.symbols[name]; ok {
		return s
	}
	s := &symbol{name: name, index: -1}
	a.symbols[name] = s
	a.order = append(a.order, s)
	return s
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.', c == '$':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// splitOperands splits on top-level commas (parentheses protect commas,
// and string literals are respected).
func splitOperands(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	var out []string
	depth := 0
	inStr := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == ',' && depth == 0:
			out = append(out, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}
