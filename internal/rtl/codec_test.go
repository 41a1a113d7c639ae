package rtl

import (
	"bytes"
	"io/fs"
	"testing"
	"testing/fstest"

	"atom/internal/aout"
	"atom/internal/build"
)

// fuzzFiles fuzzes FilesCodec's Unmarshal, the one wire form of every
// cached aout-file artifact. It is seeded with a genuine blob of each
// given file list and truncations of it, then the bare version header
// and junk. Decoding any bytes must return an error or a file list,
// never panic, and never size an allocation by a corrupt count beyond
// what the input could hold. An accepted blob must re-encode to a blob
// that decodes and re-encodes to the same bytes.
func fuzzFiles(f *testing.F, genuine ...[]*aout.File) {
	c := FilesCodec{}
	for _, files := range genuine {
		blob, err := c.Marshal(files)
		if err != nil {
			f.Fatal(err)
		}
		v := len(filesCodecVersion)
		for _, n := range []int{len(blob), 0, v, v + 5, len(blob) / 2, len(blob) - 1} {
			f.Add(append([]byte(nil), blob[:n]...))
		}
	}
	f.Add([]byte(filesCodecVersion + "\xff\xff\xff\xff"))
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

// Seed file lists of the three artifact shapes FilesCodec carries.

func seedObjects(f *testing.F) []*aout.File {
	objs, err := BuildObjectsCtx(nil, map[string]string{
		"a.c": "int f(int x) { return x + 1; }",
		"b.s": "\t.text\n\t.globl g\ng:\n\tret\n",
	})
	if err != nil {
		f.Fatal(err)
	}
	return objs
}

func seedRuntime(f *testing.F) []*aout.File {
	rt, err := runtimeFiles(nil)
	if err != nil {
		f.Fatal(err)
	}
	return rt
}

func seedExe(f *testing.F) []*aout.File {
	exe, err := BuildProgram("p.c", "int main() { return 0; }")
	if err != nil {
		f.Fatal(err)
	}
	return []*aout.File{exe}
}

// FuzzObjectsDecode fuzzes FilesCodec seeded with every shape it
// carries: a compiled object set (seeds 0–5), the runtime's file list
// (6–11) and a linked executable as a one-element list (12–17). It is
// the target ci.sh fuzzes beyond its seeds.
func FuzzObjectsDecode(f *testing.F) {
	fuzzFiles(f, seedObjects(f), seedRuntime(f), seedExe(f))
}

// FuzzRuntimeDecode fuzzes FilesCodec seeded with the runtime library
// (crt0 first, then the archive members).
func FuzzRuntimeDecode(f *testing.F) { fuzzFiles(f, seedRuntime(f)) }

// FuzzExeDecode fuzzes FilesCodec seeded with one linked executable.
func FuzzExeDecode(f *testing.F) { fuzzFiles(f, seedExe(f)) }

// TestSourcesDigestCoversTrees: the digest that NewKey mixes into every
// runtime-derived key equals that of a copy of the embedded trees, and
// changes when one byte of a source or of a header changes.
func TestSourcesDigestCoversTrees(t *testing.T) {
	copyFS := fstest.MapFS{}
	err := fs.WalkDir(files, ".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := files.ReadFile(path)
		copyFS[path] = &fstest.MapFile{Data: data}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	digest := func() build.Key {
		t.Helper()
		k, err := sourcesDigest(copyFS)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	if digest() != sources() {
		t.Fatal("digest of a copy differs from the embedded trees' digest")
	}
	for _, path := range []string{"src/crt0.s", "include/stdio.h"} {
		f, ok := copyFS[path]
		if !ok || len(f.Data) == 0 {
			t.Fatalf("%s missing from the embedded trees", path)
		}
		before := digest()
		f.Data = append([]byte(nil), f.Data...)
		f.Data[len(f.Data)/2] ^= 1
		if digest() == before {
			t.Errorf("a one-byte change in %s leaves the digest unchanged", path)
		}
	}
}
