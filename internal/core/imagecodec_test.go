package core

import (
	"bytes"
	"reflect"
	"testing"

	"atom/internal/build"
)

// codecProbeTool is a minimal tool for codec tests: one leaf analysis
// routine (so the wrapper-mode image grows an inline template) called
// once per program.
func codecProbeTool() Tool {
	return Tool{
		Name: "codecprobe",
		Analysis: map[string]string{
			"anal.c": `
long counter;
void Tick(long n) { counter = counter + n; }
`,
		},
		Instrument: func(q *Instrumentation) error {
			if err := q.AddCallProto("Tick(long)"); err != nil {
				return err
			}
			return q.AddCallProgram(ProgramBefore, "Tick", int64(1))
		},
	}
}

// TestImageCodecRoundTrip: Marshal then Unmarshal of a real ToolImage
// must reproduce every field the apply phase consults — the image bytes,
// the procedure tables, the site save sets and the inline templates —
// with only the tool
// identity (the Go closure, which has no wire form) left behind.
func TestImageCodecRoundTrip(t *testing.T) {
	ResetImageCache(build.ScopeMemory)
	ti, err := BuildToolImageCtx(nil, codecProbeTool(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ti.inline) == 0 {
		t.Fatal("probe tool grew no inline template; round-trip test needs one")
	}

	blob, err := imageCodec{}.Marshal(ti)
	if err != nil {
		t.Fatal(err)
	}
	got, err := imageCodec{}.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(got.img.Encode(), ti.img.Encode()) {
		t.Error("decoded image bytes differ")
	}
	if !reflect.DeepEqual(got.hasProc, ti.hasProc) {
		t.Errorf("hasProc = %v, want %v", got.hasProc, ti.hasProc)
	}
	if !reflect.DeepEqual(got.isGlobal, ti.isGlobal) {
		t.Errorf("isGlobal = %v, want %v", got.isGlobal, ti.isGlobal)
	}
	if len(ti.siteSave) == 0 || !reflect.DeepEqual(got.siteSave, ti.siteSave) {
		t.Errorf("siteSave = %v, want %v (non-empty)", got.siteSave, ti.siteSave)
	}
	if !reflect.DeepEqual(got.inline, ti.inline) {
		t.Errorf("inline templates differ:\n got %+v\nwant %+v", got.inline, ti.inline)
	}
	if got.tool.Instrument != nil || got.tool.Name != "" {
		t.Error("tool identity leaked through the codec")
	}

	// Determinism: content addressing requires equal images to encode to
	// equal blobs.
	blob2, err := imageCodec{}.Marshal(ti)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Error("Marshal is not deterministic")
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
// accepted blob must re-encode to a blob that decodes to the same
// encoding. Seeds cover a genuine blob, truncations of it, a previous
// format version, and junk.
func FuzzImageDecode(f *testing.F) {
	ResetImageCache(build.ScopeMemory)
	if ti, err := BuildToolImageCtx(nil, codecProbeTool(), Options{}); err == nil {
		if blob, err := (imageCodec{}).Marshal(ti); err == nil {
			f.Add(blob)
			for _, n := range []int{0, len(imageCodecVersion), len(imageCodecVersion) + 5, len(blob) / 2, len(blob) - 1} {
				f.Add(append([]byte(nil), blob[:n]...))
			}
		}
	}
	f.Add([]byte("atom-img/v1\n\x00"))
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
	})
}
