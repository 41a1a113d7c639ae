package rtl

import (
	"bytes"
	"testing"

	"atom/internal/build"
)

// fuzzCodec fuzzes one store codec's Unmarshal, seeded with a genuine
// blob, truncations of it, the bare version header and junk. Decoding
// any bytes must return an error or a value, never panic, and never size
// an allocation by a corrupt count beyond what the input could hold. An
// accepted blob must re-encode to a blob that decodes and re-encodes to
// the same bytes.
func fuzzCodec(f *testing.F, c build.Codec, version string, genuine any, err error) {
	if err != nil {
		f.Fatal(err)
	}
	blob, err := c.Marshal(genuine)
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{len(blob), 0, len(version), len(version) + 5, len(blob) / 2, len(blob) - 1} {
		f.Add(append([]byte(nil), blob[:n]...))
	}
	f.Add([]byte(version + "\xff\xff\xff\xff"))
	f.Add([]byte("not a blob"))

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := c.Unmarshal(data)
		if err != nil {
			if v != nil {
				t.Fatal("Unmarshal returned both a value and an error")
			}
			return
		}
		blob, err := c.Marshal(v)
		if err != nil {
			t.Fatalf("accepted blob does not re-encode: %v", err)
		}
		v2, err := c.Unmarshal(blob)
		if err != nil {
			t.Fatalf("re-encoded blob does not decode: %v", err)
		}
		blob2, err := c.Marshal(v2)
		if err != nil || !bytes.Equal(blob, blob2) {
			t.Fatalf("re-encoding is not stable (err %v)", err)
		}
	})
}

// FuzzRuntimeDecode fuzzes the atom-rtl codec (the runtime library).
func FuzzRuntimeDecode(f *testing.F) {
	rt, err := parts(nil)
	fuzzCodec(f, runtimeCodec{}, runtimeCodecVersion, rt, err)
}

// FuzzObjectsDecode fuzzes the atom-objs codec (a compiled object set).
func FuzzObjectsDecode(f *testing.F) {
	objs, err := BuildObjectsCtx(nil, map[string]string{
		"a.c": "int f(int x) { return x + 1; }",
		"b.s": "\t.text\n\t.globl g\ng:\n\tret\n",
	})
	fuzzCodec(f, objectsCodec{}, objectsCodecVersion, objs, err)
}

// TestExeCodecRejectionCarriesNoValue: a blob whose executable
// aout.Decode rejects (here an empty one) returns an untyped nil with
// its error, not a typed-nil *aout.File. Minimized from FuzzExeDecode.
func TestExeCodecRejectionCarriesNoValue(t *testing.T) {
	v, err := ExeCodec{}.Unmarshal([]byte(ExeCodecVersion + "\x00\x00\x00\x00"))
	if err == nil || v != nil {
		t.Fatalf("Unmarshal = %#v, %v; want nil and an error", v, err)
	}
}

// FuzzExeDecode fuzzes the atom-exe codec (one linked executable).
func FuzzExeDecode(f *testing.F) {
	exe, err := BuildProgram("p.c", "int main() { return 0; }")
	fuzzCodec(f, ExeCodec{}, ExeCodecVersion, exe, err)
}
