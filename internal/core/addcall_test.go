package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"atom/internal/aout"
	"atom/internal/core"
	"atom/internal/spec"
	"atom/internal/tools"
	"atom/internal/vm"
)

// TestZeroSizeExitAlias: an executable whose exit symbol has zero size,
// declared at the address of an alias exit_body that spans the code,
// lifts exit as a procedure without blocks, wherever the alias sits in
// the symbol table. Every tool must still instrument it — ProgramAfter
// calls land on the code a call to exit runs — and the instrumented
// program must print what the original does and write its tool report.
func TestZeroSizeExitAlias(t *testing.T) {
	app, err := spec.Build("queens")
	if err != nil {
		t.Fatal(err)
	}
	ref := runExe(t, app, vm.Config{})
	for _, first := range []bool{false, true} {
		alias := aliasExit(t, app, first)
		prog, err := core.Lift(alias)
		if err != nil {
			t.Fatal(err)
		}
		if exit := prog.Proc("exit"); exit == nil || len(exit.Blocks) != 0 {
			t.Fatalf("exit lifts as %+v, want a procedure without blocks", exit)
		}
		for _, tool := range tools.All() {
			t.Run(fmt.Sprintf("aliasfirst=%v/%s", first, tool.Name), func(t *testing.T) {
				res, err := core.Instrument(alias, tool, core.Options{Verify: true})
				if err != nil {
					t.Fatal(err)
				}
				m := runExe(t, res.Exe, vm.Config{})
				if !bytes.Equal(m.Stdout, ref.Stdout) {
					t.Errorf("stdout %q, want %q", m.Stdout, ref.Stdout)
				}
				if len(m.FSOut[tool.Name+".out"]) == 0 {
					t.Errorf("no %s.out report", tool.Name)
				}
				// The alias keeps its zero size; the body it aliases
				// spans its relocated code.
				exit, _ := res.Exe.Lookup("exit")
				body, _ := res.Exe.Lookup("exit_body")
				if exit.Size != 0 || exit.Value != body.Value {
					t.Errorf("exit at %#x size %d, want size 0 at exit_body's %#x", exit.Value, exit.Size, body.Value)
				}
				if want := relocatedSize(res, "exit_body"); body.Size != want {
					t.Errorf("exit_body size %d, want its relocated size %d", body.Size, want)
				}
			})
		}
	}
}

// relocatedSize is the span from the named function to the next
// function that starts after it in the instrumented application text.
func relocatedSize(res *core.Result, name string) uint64 {
	sym, _ := res.Exe.Lookup(name)
	end := res.Exe.TextAddr + res.Stats.InstrText
	for _, s := range res.Exe.Symbols {
		if s.Kind == aout.SymFunc && s.Section == aout.SecText && s.Value > sym.Value && s.Value < end {
			end = s.Value
		}
	}
	return end - sym.Value
}

// aliasExit returns a copy of app whose exit symbol has zero size and
// whose new exit_body symbol spans exit's code, placed before or after
// the rest of the symbol table.
func aliasExit(t *testing.T, app *aout.File, first bool) *aout.File {
	t.Helper()
	alias := *app
	alias.Symbols = append([]aout.Symbol(nil), app.Symbols...)
	for i, s := range alias.Symbols {
		if s.Name != "exit" || s.Kind != aout.SymFunc {
			continue
		}
		body := s
		body.Name = "exit_body"
		alias.Symbols[i].Size = 0
		if first {
			// Shift the symbol indices the relocations name.
			alias.Symbols = append([]aout.Symbol{body}, alias.Symbols...)
			alias.Relocs = append([]aout.Reloc(nil), app.Relocs...)
			for j := range alias.Relocs {
				alias.Relocs[j].Sym++
			}
		} else {
			alias.Symbols = append(alias.Symbols, body)
		}
		return &alias
	}
	t.Fatal("queens has no exit function symbol")
	return nil
}
