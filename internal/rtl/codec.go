package rtl

import (
	"fmt"
	"sort"

	"atom/internal/aout"
	"atom/internal/build"
	"atom/internal/link"
)

// Wire formats for the rtl caches, so compiled objects and the runtime
// library persist through the process-wide build.DiskStore: a warm
// process against a populated cache directory compiles and assembles
// nothing. ExeCodec does the same for one linked executable, for the
// packages that cache programs built here. Every format leans on aout's
// own versioned Encode/Decode for the files and wraps them in the
// length-prefixed container from internal/build. The version strings are
// mixed into the cache keys, so a format change can never decode an old
// blob.
const (
	objectsCodecVersion = "atom-objs/v1\n"
	runtimeCodecVersion = "atom-rtl/v1\n"

	// ExeCodecVersion versions ExeCodec's format. Callers mix it into
	// the keys of the caches they give an ExeCodec.
	ExeCodecVersion = "atom-exe/v1\n"
)

// ExeCodec serializes one linked executable (*aout.File): the suite
// programs and the probe application a tool image is planned against.
type ExeCodec struct{}

// Marshal encodes an *aout.File.
func (ExeCodec) Marshal(v any) ([]byte, error) {
	f, ok := v.(*aout.File)
	if !ok {
		return nil, fmt.Errorf("rtl: ExeCodec: unexpected %T", v)
	}
	e := build.NewEnc(ExeCodecVersion)
	e.Blob(f.Encode())
	return e.Bytes(), nil
}

// Unmarshal decodes a blob written by Marshal.
func (ExeCodec) Unmarshal(blob []byte) (any, error) {
	d := build.NewDec(blob, ExeCodecVersion)
	raw := d.Blob()
	if err := d.Finish(); err != nil {
		return nil, err
	}
	f, err := aout.Decode(raw)
	if err != nil {
		// Not aout.Decode's typed nil: a rejected blob carries no value.
		return nil, err
	}
	return f, nil
}

// objectsCodec serializes a compiled object set ([]*aout.File).
type objectsCodec struct{}

func (objectsCodec) Marshal(v any) ([]byte, error) {
	objs, ok := v.([]*aout.File)
	if !ok {
		return nil, fmt.Errorf("rtl: objectsCodec: unexpected %T", v)
	}
	e := build.NewEnc(objectsCodecVersion)
	e.U32(uint32(len(objs)))
	for _, o := range objs {
		e.Blob(o.Encode())
	}
	return e.Bytes(), nil
}

func (objectsCodec) Unmarshal(blob []byte) (any, error) {
	d := build.NewDec(blob, objectsCodecVersion)
	n := d.Len()
	objs := make([]*aout.File, 0, n)
	for i := 0; i < n; i++ {
		raw := d.Blob()
		if err := d.Err(); err != nil {
			return nil, err
		}
		o, err := aout.Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("rtl: objectsCodec: member %d: %w", i, err)
		}
		objs = append(objs, o)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return objs, nil
}

// runtimeCodec serializes the built runtime library bundle: the header
// sources, crt0, and the archive members, all in sorted order so the
// encoding is deterministic.
type runtimeCodec struct{}

func (runtimeCodec) Marshal(v any) ([]byte, error) {
	rt, ok := v.(*runtime)
	if !ok {
		return nil, fmt.Errorf("rtl: runtimeCodec: unexpected %T", v)
	}
	e := build.NewEnc(runtimeCodecVersion)
	var names []string
	for n := range rt.headers {
		names = append(names, n)
	}
	sort.Strings(names)
	e.U32(uint32(len(names)))
	for _, n := range names {
		e.Str(n)
		e.Str(rt.headers[n])
	}
	e.Blob(rt.crt0.Encode())
	e.Str(rt.lib.Name)
	e.U32(uint32(len(rt.lib.Members)))
	for _, m := range rt.lib.Members {
		e.Blob(m.Encode())
	}
	return e.Bytes(), nil
}

func (runtimeCodec) Unmarshal(blob []byte) (any, error) {
	d := build.NewDec(blob, runtimeCodecVersion)
	rt := &runtime{headers: map[string]string{}}
	nh := d.Len()
	for i := 0; i < nh; i++ {
		name := d.Str()
		rt.headers[name] = d.Str()
	}
	crt0Raw := d.Blob()
	if err := d.Err(); err != nil {
		return nil, err
	}
	crt0, err := aout.Decode(crt0Raw)
	if err != nil {
		return nil, fmt.Errorf("rtl: runtimeCodec: crt0: %w", err)
	}
	rt.crt0 = crt0
	rt.lib = &link.Library{Name: d.Str()}
	nm := d.Len()
	for i := 0; i < nm; i++ {
		raw := d.Blob()
		if err := d.Err(); err != nil {
			return nil, err
		}
		m, err := aout.Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("rtl: runtimeCodec: member %d: %w", i, err)
		}
		rt.lib.Members = append(rt.lib.Members, m)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return rt, nil
}
