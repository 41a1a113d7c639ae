package core

import (
	"bytes"
	"reflect"
	"testing"

	"atom/internal/build"
)

// codecProbeTool is a minimal tool for codec tests: a leaf analysis
// routine (so the wrapper-mode image grows an inline template) and one
// that calls it (so the in-analysis image carries a save splice), each
// called once per program.
func codecProbeTool() Tool {
	return Tool{
		Name: "codecprobe",
		Analysis: map[string]string{
			"anal.c": `
long counter;
void Tick(long n) { counter = counter + n; }
void Tock(long n) { Tick(n); Tick(n); }
`,
		},
		Instrument: func(q *Instrumentation) error {
			for _, p := range []string{"Tick(long)", "Tock(long)"} {
				if err := q.AddCallProto(p); err != nil {
					return err
				}
			}
			if err := q.AddCallProgram(ProgramBefore, "Tick", int64(1)); err != nil {
				return err
			}
			return q.AddCallProgram(ProgramAfter, "Tock", int64(2))
		},
	}
}

// TestImageCodecRejectsCorruptBlob: a damaged blob must error out of
// Unmarshal (so the layered cache falls back to a rebuild), never panic
// or return a half-decoded image.
func TestImageCodecRejectsCorruptBlob(t *testing.T) {
	ResetImageCache(build.ScopeMemory)
	ti, err := BuildToolImageCtx(nil, codecProbeTool(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := imageCodec{}.Marshal(ti)
	if err != nil {
		t.Fatal(err)
	}
	for name, mangle := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"empty":     func([]byte) []byte { return nil },
		"bad magic": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] ^= 0xff
			return c
		},
	} {
		if _, err := (imageCodec{}).Unmarshal(mangle(blob)); err == nil {
			t.Errorf("%s blob decoded without error", name)
		}
	}
}

// FuzzImageDecode drives the tool-image codec with arbitrary bytes, as
// a persistent store handing back a damaged blob would: Unmarshal must
// return an error or an image, never panic, and never size an
// allocation by a corrupt count beyond what the input could hold. An
// accepted blob's decode lifts its image and classifies its wrapped
// routines for inlining, so this also drives the lift and the inline
// classifier over decoded images; it must re-encode to a blob that
// decodes to the same encoding and templates. Seeds cover a genuine
// blob of a wrapper-mode and of an in-analysis image, truncations of
// each, a previous format version, and junk.
func FuzzImageDecode(f *testing.F) {
	ResetImageCache(build.ScopeMemory)
	for _, mode := range []SaveMode{SaveWrapper, SaveInAnalysis} {
		ti, err := BuildToolImageCtx(nil, codecProbeTool(), Options{Mode: mode})
		if err != nil {
			f.Fatal(err)
		}
		if spliced := ti.siteSave["Tock"] == 0; (mode == SaveWrapper) != (len(ti.inline) > 0) || (mode == SaveInAnalysis) != spliced {
			f.Fatalf("mode %v: %d inline templates, Tock spliced %v", mode, len(ti.inline), spliced)
		}
		blob, err := imageCodec{}.Marshal(ti)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		for _, n := range []int{0, len(imageCodecVersion), len(imageCodecVersion) + 5, len(blob) / 2, len(blob) - 1} {
			f.Add(append([]byte(nil), blob[:n]...))
		}
	}
	f.Add([]byte("atom-img/v3\n\x00"))
	f.Add([]byte(imageCodecVersion + "\x00\xff\xff\xff\xff"))
	f.Add([]byte("not an image"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := imageCodec{}.Unmarshal(data)
		if err != nil {
			if v != nil {
				t.Fatal("Unmarshal returned both an image and an error")
			}
			return
		}
		blob, err := imageCodec{}.Marshal(v)
		if err != nil {
			t.Fatalf("accepted blob does not re-encode: %v", err)
		}
		v2, err := imageCodec{}.Unmarshal(blob)
		if err != nil {
			t.Fatalf("re-encoded blob does not decode: %v", err)
		}
		blob2, err := imageCodec{}.Marshal(v2)
		if err != nil || !bytes.Equal(blob, blob2) {
			t.Fatalf("re-encoding is not stable (err %v)", err)
		}
		if !reflect.DeepEqual(v.inline, v2.inline) {
			t.Fatal("re-encoded blob derives different inline templates")
		}
	})
}
