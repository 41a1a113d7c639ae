package aout_test

import (
	"testing"

	"atom/internal/aout"
	"atom/internal/spec"
)

// FuzzDecode: aout.Decode reads every object and executable the atom
// command is given, so no input may make it panic, and any input it
// accepts must pass Validate and survive Encode then Decode as an equal
// File.
func FuzzDecode(f *testing.F) {
	f.Add(aout.SampleFile().Encode())
	exe, err := spec.BuildCtx(nil, "queens")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(exe.Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := aout.Decode(data)
		if err != nil {
			return
		}
		if err := file.Validate(); err != nil {
			t.Fatalf("decoded file fails Validate: %v", err)
		}
		again, err := aout.Decode(file.Encode())
		if err != nil {
			t.Fatalf("re-encoded file does not decode: %v", err)
		}
		if !aout.FilesEqual(file, again) {
			t.Fatal("re-encoded file decodes to a different File")
		}
	})
}
