package rtl

import (
	"fmt"

	"atom/internal/aout"
	"atom/internal/build"
)

// filesCodecVersion versions FilesCodec's format. NewKey mixes it into
// the key of every artifact stored in it, so a format change can never
// decode an old blob.
const filesCodecVersion = "atom-objs/v1\n"

// FilesCodec is the one wire form of every aout-file artifact the caches
// persist through the process-wide build.DiskStore: a compiled object
// set, the runtime library (crt0 first, then the archive members) and a
// linked executable (a suite program or the probe app, as a one-element
// list). It leans on aout's own versioned Encode/Decode for the files
// and wraps them in the length-prefixed container from internal/build,
// so a warm process against a populated cache directory compiles,
// assembles and links nothing.
type FilesCodec struct{}

// Marshal encodes a file list.
func (FilesCodec) Marshal(files []*aout.File) ([]byte, error) {
	e := build.NewEnc(filesCodecVersion)
	e.U32(uint32(len(files)))
	for _, f := range files {
		e.Blob(f.Encode())
	}
	return e.Bytes(), nil
}

// Unmarshal decodes a blob written by Marshal.
func (FilesCodec) Unmarshal(blob []byte) ([]*aout.File, error) {
	d := build.NewDec(blob, filesCodecVersion)
	n := d.Len()
	files := make([]*aout.File, 0, n)
	for i := 0; i < n; i++ {
		raw := d.Blob()
		if err := d.Err(); err != nil {
			return nil, err
		}
		f, err := aout.Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("rtl: file %d: %w", i, err)
		}
		files = append(files, f)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return files, nil
}
