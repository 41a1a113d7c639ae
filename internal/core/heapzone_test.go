package core_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"atom/internal/aout"
	"atom/internal/core"
	"atom/internal/spec"
	"atom/internal/tools"
	"atom/internal/vm"
)

// TestHeapSchemeInFile: an instrumented executable carries its heap
// scheme. Encoded and decoded again, as a written .atom file is, it
// runs with a zero vm.Config exactly as the in-process result runs
// under its HeapOffset — stdout, exit code, written files and
// instruction count — for every tool under both schemes. compress,
// whose output hashes bytes it writes past its buffer into the heap,
// must print the bare run's hash under the partitioned heap.
func TestHeapSchemeInFile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every tool over three suite programs")
	}
	for _, name := range []string{"compress", "gcc", "queens"} {
		app, err := spec.BuildCtx(nil, name)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := spec.ByName(name)
		config := func(off uint64) vm.Config {
			return vm.Config{Stdin: p.Stdin, FS: p.FS, AnalysisHeapOffset: off}
		}
		bare := runExe(t, app, config(0))
		for _, tool := range tools.All() {
			for _, off := range []uint64{0, 1 << 20} {
				t.Run(fmt.Sprintf("%s/%s/heap=%#x", name, tool.Name, off), func(t *testing.T) {
					res, err := core.InstrumentCtx(nil, app, tool, core.Options{HeapOffset: off})
					if err != nil {
						t.Fatal(err)
					}
					want := runExe(t, res.Exe, config(off))
					file, err := aout.Decode(res.Exe.Encode())
					if err != nil {
						t.Fatal(err)
					}
					got := runExe(t, file, config(0))
					if !bytes.Equal(got.Stdout, want.Stdout) {
						t.Errorf("stdout %q, in-process %q", got.Stdout, want.Stdout)
					}
					gotExit, gotCode := got.Exited()
					wantExit, wantCode := want.Exited()
					if gotExit != wantExit || gotCode != wantCode {
						t.Errorf("exit (%v, %d), in-process (%v, %d)", gotExit, gotCode, wantExit, wantCode)
					}
					if !reflect.DeepEqual(got.FSOut, want.FSOut) {
						t.Error("written files differ from the in-process run")
					}
					if got.Icount != want.Icount {
						t.Errorf("icount %d, in-process %d", got.Icount, want.Icount)
					}
					if name == "compress" && off != 0 && !bytes.Equal(got.Stdout, bare.Stdout) {
						t.Errorf("partitioned-heap compress prints %q, bare %q", got.Stdout, bare.Stdout)
					}
				})
			}
		}
	}
}

// TestHeapOffsetRecorded: a partitioned heap is recorded in the output
// as one aout.HeapZoneSymbol, the linked scheme records nothing, and an
// offset that is not a multiple of 8 is rejected.
func TestHeapOffsetRecorded(t *testing.T) {
	app := buildApp(t, loopApp)
	tool := tools.All()[0]
	for _, tc := range []struct {
		name   string
		offset uint64
		record uint64 // 0: no record
		err    string
	}{
		{"linked", 0, 0, ""},
		{"partitioned", 1 << 20, 1 << 20, ""},
		{"misaligned", 3, 0, "heap offset 0x3 is not a multiple of 8"},
		{"word but not quad", 1<<20 + 4, 0, "heap offset 0x100004 is not a multiple of 8"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := core.InstrumentCtx(nil, app, tool, core.Options{HeapOffset: tc.offset})
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want it to contain %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var records []aout.Symbol
			for _, s := range res.Exe.Symbols {
				if s.Name == aout.HeapZoneSymbol {
					records = append(records, s)
				}
			}
			switch {
			case tc.record == 0 && len(records) != 0:
				t.Errorf("linked heap carries records %+v", records)
			case tc.record != 0 && (len(records) != 1 || records[0].Section != aout.SecAbs || records[0].Global || records[0].Value != tc.record):
				t.Errorf("records %+v, want one local absolute %#x", records, tc.record)
			}
			if res.HeapOffset != tc.record {
				t.Errorf("Result.HeapOffset %#x, want %#x", res.HeapOffset, tc.record)
			}
		})
	}
}
