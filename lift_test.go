package atom_test

import (
	"bytes"
	"testing"

	"atom"
	"atom/internal/spec"
)

// TestIRRoundTripAllTools: the round trip through the IR — atom.Lift,
// then atom.InstrumentProgram on the lifted Program — must instrument
// to the same bytes as atom.Instrument for every built-in tool, and
// leave the lifted executable unchanged.
func TestIRRoundTripAllTools(t *testing.T) {
	exe, err := spec.Build("queens")
	if err != nil {
		t.Fatal(err)
	}
	orig := exe.Encode()
	opts := atom.Options{Verify: true}
	for _, name := range atom.ToolNames() {
		t.Run(name, func(t *testing.T) {
			tool, err := atom.ToolByName(name)
			if err != nil {
				t.Fatal(err)
			}
			want, err := atom.Instrument(exe, tool, opts)
			if err != nil {
				t.Fatalf("Instrument: %v", err)
			}
			prog, err := atom.Lift(exe)
			if err != nil {
				t.Fatalf("Lift: %v", err)
			}
			if prog.Exe != exe {
				t.Fatal("Lift's Program does not refer to the lifted executable")
			}
			got, err := atom.InstrumentProgram(prog, tool, opts)
			if err != nil {
				t.Fatalf("InstrumentProgram: %v", err)
			}
			if !bytes.Equal(got.Exe.Encode(), want.Exe.Encode()) {
				t.Fatal("Lift + InstrumentProgram differs from Instrument")
			}
			if !bytes.Equal(exe.Encode(), orig) {
				t.Fatal("instrumenting changed the lifted executable")
			}
		})
	}
}

// TestPublicIRAPI exercises the package-level IR surface: each Lift
// returns a fresh Program over the caller's executable, and
// InstrumentProgram on it yields an executable that runs.
func TestPublicIRAPI(t *testing.T) {
	exe, err := spec.Build("queens")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := atom.Lift(exe)
	if err != nil {
		t.Fatalf("Lift: %v", err)
	}
	again, err := atom.Lift(exe)
	if err != nil {
		t.Fatalf("second Lift: %v", err)
	}
	if prog == again {
		t.Fatal("two Lifts returned the same Program")
	}
	if prog.Exe != exe || again.Exe != exe {
		t.Fatal("Lift's Program does not refer to the lifted executable")
	}
	tool, err := atom.ToolByName("branch")
	if err != nil {
		t.Fatal(err)
	}
	res, err := atom.InstrumentProgram(prog, tool, atom.Options{Verify: true})
	if err != nil {
		t.Fatalf("InstrumentProgram: %v", err)
	}
	out, err := atom.RunProgram(res.Exe, atom.RunConfig{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if out.ExitCode != 0 {
		t.Fatalf("instrumented run exited %d", out.ExitCode)
	}
}
