package build

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Codec converts a cache's decoded artifact of type T to and from a
// byte-stable blob, the precondition for persisting it through a
// DiskStore. A Cache with a nil codec is memory-only: its artifacts have
// no wire form, and they transparently skip the disk layer.
//
// Unmarshal must produce a value the cache's consumers can use as a
// drop-in for a freshly built one; version the format inside the blob
// (or mix a version string into the key) so a codec change never decodes
// stale bytes.
type Codec[T any] interface {
	Marshal(v T) ([]byte, error)
	Unmarshal(blob []byte) (T, error)
}

// Enc builds a length-prefixed binary blob for a codec. All integers are
// little-endian fixed width; strings and byte slices carry a u32 length.
// The magic written first is the format version: a Dec over a different
// magic fails immediately, so stale blobs are rebuilt, never misdecoded.
type Enc struct {
	buf bytes.Buffer
}

// NewEnc starts a blob with the given format magic.
func NewEnc(magic string) *Enc {
	e := &Enc{}
	e.buf.WriteString(magic)
	return e
}

// U8 appends a byte.
func (e *Enc) U8(v uint8) { e.buf.WriteByte(v) }

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.buf.Write(b[:])
}

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.buf.Write(b[:])
}

// I64 appends a little-endian int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Str appends a u32 length and the string bytes.
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf.WriteString(s)
}

// Blob appends a u32 length and the slice bytes.
func (e *Enc) Blob(p []byte) {
	e.U32(uint32(len(p)))
	e.buf.Write(p)
}

// Bytes returns the finished blob.
func (e *Enc) Bytes() []byte { return e.buf.Bytes() }

// Dec reads a blob written by Enc. It latches the first error: after a
// failure every read returns zero values, and Err reports what went
// wrong, so decode paths read fields straight through and check once.
type Dec struct {
	data []byte
	off  int
	err  error
}

// NewDec opens a blob, checking its format magic.
func NewDec(blob []byte, magic string) *Dec {
	d := &Dec{data: blob}
	if len(blob) < len(magic) || string(blob[:len(magic)]) != magic {
		d.err = fmt.Errorf("build: blob format is not %q", magic)
		return d
	}
	d.off = len(magic)
	return d
}

func (d *Dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("build: truncated blob reading %s at offset %d", what, d.off)
	}
}

// U8 reads a byte.
func (d *Dec) U8() uint8 {
	if d.err != nil || d.off+1 > len(d.data) {
		d.fail("u8")
		return 0
	}
	v := d.data[d.off]
	d.off++
	return v
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	if d.err != nil || d.off+4 > len(d.data) {
		d.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.data[d.off:])
	d.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	if d.err != nil || d.off+8 > len(d.data) {
		d.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return v
}

// I64 reads a little-endian int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Str reads a length-prefixed string.
func (d *Dec) Str() string { return string(d.Blob()) }

// Blob reads a length-prefixed byte slice (aliasing the input).
func (d *Dec) Blob() []byte {
	n := int(d.U32())
	if d.err != nil || n < 0 || d.off+n > len(d.data) {
		d.fail("blob")
		return nil
	}
	p := d.data[d.off : d.off+n]
	d.off += n
	return p
}

// Len reads a u32 element count, bounded by the bytes remaining so a
// corrupt count cannot drive a huge allocation.
func (d *Dec) Len() int {
	n := int(d.U32())
	if d.err == nil && n > len(d.data)-d.off {
		d.fail("count")
		return 0
	}
	return n
}

// Err returns the first decode error, if any.
func (d *Dec) Err() error { return d.err }

// Finish returns the first decode error, also failing if trailing bytes
// remain — a well-formed blob is consumed exactly.
func (d *Dec) Finish() error {
	if d.err == nil && d.off != len(d.data) {
		return fmt.Errorf("build: %d trailing bytes after blob", len(d.data)-d.off)
	}
	return d.err
}
