package om_test

import (
	"testing"

	"atom/internal/aout"
	"atom/internal/om"
	"atom/internal/spec"
)

// FuzzBuild lifts whatever the executable reader accepts: om.BuildCtx
// either fails with an error or returns a Program on which VerifyCtx
// reports nothing, and it never panics. The seeds are the suite
// executables and, under testdata, the rest of aout.FuzzDecode's corpus
// and the inputs that once made the lift panic.
func FuzzBuild(f *testing.F) {
	for _, p := range spec.Suite() {
		exe, err := spec.BuildCtx(nil, p.Name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(exe.Encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		exe, err := aout.Decode(data)
		if err != nil {
			return
		}
		prog, err := om.BuildCtx(nil, exe)
		if err != nil {
			return
		}
		if ds := prog.VerifyCtx(nil); len(ds) > 0 {
			t.Fatalf("lifted program has %d diagnostics, first: %s", len(ds), ds[0])
		}
	})
}
