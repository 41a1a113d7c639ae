package atom_test

// Serialized-IR equivalence: for every built-in tool, instrumenting a
// Program decoded from its atom-ir/v1 blob must produce an executable
// byte-identical to instrumenting a freshly lifted Program. This is the
// in-process form of the IR gate (cmd/atom's TestToolGates runs the same
// comparison across processes through `atom -emit-ir` / `atom -ir-in`).

import (
	"bytes"
	"testing"

	"atom"
	"atom/internal/core"
	"atom/internal/om"
	"atom/internal/spec"
	"atom/internal/tools"
)

func TestIRRoundTripAllTools(t *testing.T) {
	exe, err := spec.Build("queens")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := core.LiftBlob(exe)
	if err != nil {
		t.Fatalf("LiftBlob: %v", err)
	}
	opts := core.Options{Verify: true}
	for _, name := range tools.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			tool, _ := tools.ByName(name)

			fresh, err := om.Build(exe)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			want, err := core.InstrumentProgram(fresh, tool, opts)
			if err != nil {
				t.Fatalf("InstrumentProgram(fresh): %v", err)
			}

			dec, err := om.Decode(blob)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			got, err := core.InstrumentProgram(dec, tool, opts)
			if err != nil {
				t.Fatalf("InstrumentProgram(decoded): %v", err)
			}

			if !bytes.Equal(got.Exe.Encode(), want.Exe.Encode()) {
				t.Fatal("decoded-IR instrumentation is not byte-identical to the fresh lift")
			}
		})
	}
}

// TestPublicIRAPI exercises the package-level surface: Lift through the
// cache, EncodeIR/DecodeIR round trip, InstrumentProgram as a drop-in
// for Instrument, and the IR-cache counters.
func TestPublicIRAPI(t *testing.T) {
	exe, err := spec.Build("queens")
	if err != nil {
		t.Fatal(err)
	}
	before := atom.IRCacheStats()
	prog, err := atom.Lift(exe)
	if err != nil {
		t.Fatalf("Lift: %v", err)
	}
	blob, err := atom.EncodeIR(prog)
	if err != nil {
		t.Fatalf("EncodeIR: %v", err)
	}
	dec, err := atom.DecodeIR(blob)
	if err != nil {
		t.Fatalf("DecodeIR: %v", err)
	}
	tool, err := atom.ToolByName("branch")
	if err != nil {
		t.Fatal(err)
	}
	res, err := atom.InstrumentProgram(dec, tool, atom.Options{Verify: true})
	if err != nil {
		t.Fatalf("InstrumentProgram: %v", err)
	}
	out, err := atom.RunProgram(res.Exe, atom.RunConfig{AnalysisHeapOffset: res.HeapOffset})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if out.ExitCode != 0 {
		t.Fatalf("instrumented run exited %d", out.ExitCode)
	}
	after := atom.IRCacheStats()
	if after.Misses+after.Hits <= before.Misses+before.Hits {
		t.Fatal("Lift did not touch the IR cache")
	}
}
