package aout

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// magic identifies the file format and version.
var magic = [8]byte{'A', 'O', 'U', 'T', '0', '0', '1', '\n'}

// Encode serializes the file to its on-disk representation.
func (f *File) Encode() []byte {
	var buf bytes.Buffer
	buf.Write(magic[:])
	w := func(v any) { binary.Write(&buf, binary.LittleEndian, v) } //nolint:errcheck
	ws := func(s string) {
		w(uint32(len(s)))
		buf.WriteString(s)
	}
	var flags uint8
	if f.Linked {
		flags = 1
	}
	w(flags)
	w(f.Entry)
	w(f.TextAddr)
	w(f.DataAddr)
	w(f.BssAddr)
	w(f.Bss)
	w(uint64(len(f.Text)))
	buf.Write(f.Text)
	w(uint64(len(f.Data)))
	buf.Write(f.Data)
	w(uint32(len(f.Symbols)))
	for _, s := range f.Symbols {
		ws(s.Name)
		w(uint8(s.Kind))
		w(uint8(s.Section))
		w(s.Value)
		w(s.Size)
		var g uint8
		if s.Global {
			g = 1
		}
		w(g)
	}
	w(uint32(len(f.Relocs)))
	for _, r := range f.Relocs {
		w(uint8(r.Section))
		w(r.Offset)
		w(uint8(r.Type))
		w(uint32(r.Sym))
		w(r.Addend)
	}
	return buf.Bytes()
}

// Decode parses an encoded file. It validates structural invariants and
// returns a descriptive error for truncated or corrupt input.
func Decode(data []byte) (*File, error) {
	r := &reader{data: data}
	var m [8]byte
	r.bytes(m[:])
	if m != magic {
		return nil, fmt.Errorf("aout: bad magic %q", m[:])
	}
	f := &File{}
	f.Linked = r.u8() != 0
	f.Entry = r.u64()
	f.TextAddr = r.u64()
	f.DataAddr = r.u64()
	f.BssAddr = r.u64()
	f.Bss = r.u64()
	f.Text = r.blob()
	f.Data = r.blob()
	nsym := r.u32()
	if r.err == nil && uint64(nsym)*8 > uint64(len(data)) {
		return nil, fmt.Errorf("aout: implausible symbol count %d", nsym)
	}
	f.Symbols = make([]Symbol, 0, nsym)
	for i := uint32(0); i < nsym && r.err == nil; i++ {
		var s Symbol
		s.Name = r.str()
		s.Kind = SymKind(r.u8())
		s.Section = Section(r.u8())
		s.Value = r.u64()
		s.Size = r.u64()
		s.Global = r.u8() != 0
		f.Symbols = append(f.Symbols, s)
	}
	nrel := r.u32()
	if r.err == nil && uint64(nrel)*8 > uint64(len(data)) {
		return nil, fmt.Errorf("aout: implausible reloc count %d", nrel)
	}
	f.Relocs = make([]Reloc, 0, nrel)
	for i := uint32(0); i < nrel && r.err == nil; i++ {
		var rel Reloc
		rel.Section = Section(r.u8())
		rel.Offset = r.u64()
		rel.Type = RelocType(r.u8())
		rel.Sym = int(r.u32())
		rel.Addend = r.i64()
		f.Relocs = append(f.Relocs, rel)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(data) {
		return nil, fmt.Errorf("aout: %d trailing bytes", len(data)-r.pos)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// WriteFile encodes f and writes it to path.
func (f *File) WriteFile(path string) error {
	if err := os.WriteFile(path, f.Encode(), 0o644); err != nil {
		return fmt.Errorf("aout: %w", err)
	}
	return nil
}

// ReadFile reads and decodes the file at path. Its errors name the path
// once, so callers report them without adding it.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("aout: %w", err)
	}
	f, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// reader is a cursor over the encoded bytes that records the first error.
type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.pos+n > len(r.data) {
		r.err = fmt.Errorf("aout: truncated at offset %d (need %d bytes): %w", r.pos, n, io.ErrUnexpectedEOF)
		return false
	}
	return true
}

func (r *reader) bytes(dst []byte) {
	if r.need(len(dst)) {
		copy(dst, r.data[r.pos:])
		r.pos += len(dst)
	}
}

func (r *reader) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.data[r.pos]
	r.pos++
	return v
}

func (r *reader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.pos:])
	r.pos += 4
	return v
}

func (r *reader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.pos:])
	r.pos += 8
	return v
}

func (r *reader) i64() int64 { return int64(r.u64()) }

func (r *reader) str() string {
	n := int(r.u32())
	if !r.need(n) {
		return ""
	}
	s := string(r.data[r.pos : r.pos+n])
	r.pos += n
	return s
}

func (r *reader) blob() []byte {
	n := int(r.u64())
	if r.err == nil && (n < 0 || n > len(r.data)) {
		r.err = fmt.Errorf("aout: implausible section size %d", n)
		return nil
	}
	if !r.need(n) {
		return nil
	}
	b := make([]byte, n)
	copy(b, r.data[r.pos:])
	r.pos += n
	return b
}
