// Package rtl builds the runtime library (libc equivalent) used by every
// program in this reproduction: crt0, system-call veneers over CALL_PAL,
// software integer division (the Alpha has no divide instruction),
// malloc/free over sbrk, string routines, and printf-family stdio.
//
// ATOM's central discipline is that the application and the analysis
// routines share no code or data: each links its own private copy of this
// library ("if both the application program and the analysis routines use
// the same library procedure, like printf, there are two copies of printf
// in the final executable"). The library is therefore exposed as a
// link.Library whose members are archive-selected per image.
//
// All build products are memoized through content-addressed caches
// (internal/build): the runtime library itself is built at most once per
// process, and compiled object sets are keyed by their sources so
// repeated instrumentation runs never recompile unchanged analysis
// routines. Every key built with NewKey covers the embedded runtime
// sources and headers. Unlike the sync.Once this replaced, a failed
// build is not latched — the next call retries it.
package rtl

import (
	"embed"
	"fmt"
	"io/fs"
	"sort"
	"strings"
	"sync"

	"atom/internal/aout"
	"atom/internal/asm"
	"atom/internal/build"
	"atom/internal/cc"
	"atom/internal/link"
	"atom/internal/obs"
)

//go:embed src include
var files embed.FS

var (
	rtCache  = build.NewCache[[]*aout.File]("runtime", FilesCodec{})
	objCache = build.NewCache[[]*aout.File]("object", FilesCodec{})

	// buildFault, when non-nil, is consulted at the start of a runtime
	// build. Tests use it to inject a transient failure and verify that
	// the failure is not latched.
	buildFault func() error
)

// sourcesDigest hashes every file of a runtime source tree, its path and
// its bytes, in lexical path order.
func sourcesDigest(fsys fs.FS) (build.Key, error) {
	kb := build.NewKey("rtl-sources")
	err := fs.WalkDir(fsys, ".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := fs.ReadFile(fsys, path)
		if err != nil {
			return err
		}
		kb.String(path).Bytes(data)
		return nil
	})
	return kb.Sum(), err
}

// sources is the digest of the embedded src and include trees, hashed
// once per process.
var sources = sync.OnceValue(func() build.Key {
	k, err := sourcesDigest(files)
	if err != nil {
		panic(err) // the trees are compiled into the binary
	}
	return k
})

// NewKey starts the cache key of an artifact built from the runtime
// library: the runtime itself, compiled objects, suite programs, the
// probe app and tool images. It mixes in FilesCodec's version and the
// digest of the embedded runtime sources and headers, so an edit to
// either never serves a blob built from the old ones out of a cache
// directory.
func NewKey(kind string) *build.KeyBuilder {
	k := sources()
	return build.NewKey(kind).String(filesCodecVersion).Bytes(k[:])
}

var runtimeKey = sync.OnceValue(func() build.Key { return NewKey("rtl-runtime").Sum() })

// headers reads the standard headers from the embedded include tree,
// once per process.
var headers = sync.OnceValues(func() (map[string]string, error) {
	ents, err := fs.ReadDir(files, "include")
	if err != nil {
		return nil, fmt.Errorf("rtl: %w", err)
	}
	hdrs := map[string]string{}
	for _, e := range ents {
		data, err := files.ReadFile("include/" + e.Name())
		if err != nil {
			return nil, fmt.Errorf("rtl: %w", err)
		}
		hdrs[e.Name()] = string(data)
	}
	return hdrs, nil
})

// runtimeFiles returns the built runtime library as its file list: crt0
// first, then the archive members.
func runtimeFiles(ctx *obs.Ctx) ([]*aout.File, error) {
	rt, err := rtCache.GetCtx(ctx, "rtl-runtime", runtimeKey(), buildRuntime)
	if err != nil {
		return nil, err
	}
	if len(rt) == 0 {
		return nil, fmt.Errorf("rtl: runtime library has no crt0")
	}
	return rt, nil
}

func buildRuntime(ctx *obs.Ctx) ([]*aout.File, error) {
	_, sp := ctx.Start("rtl.runtime")
	defer sp.End()
	if buildFault != nil {
		if err := buildFault(); err != nil {
			return nil, err
		}
	}
	hdrs, err := headers()
	if err != nil {
		return nil, err
	}
	srcs, err := fs.ReadDir(files, "src")
	if err != nil {
		return nil, fmt.Errorf("rtl: %w", err)
	}
	var names []string
	for _, e := range srcs {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	rt := []*aout.File{nil} // crt0's slot
	for _, name := range names {
		data, err := files.ReadFile("src/" + name)
		if err != nil {
			return nil, fmt.Errorf("rtl: %w", err)
		}
		var obj *aout.File
		switch {
		case strings.HasSuffix(name, ".s"):
			obj, err = asm.AssembleCtx(ctx, name, string(data))
		case strings.HasSuffix(name, ".c"):
			obj, err = cc.BuildCtx(ctx, name, string(data), hdrs)
		default:
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("rtl: %s: %w", name, err)
		}
		// crt0 defines the entry point, which nothing references by
		// name, so it is linked explicitly rather than archive-selected.
		if name == "crt0.s" {
			rt[0] = obj
			continue
		}
		rt = append(rt, obj)
	}
	if rt[0] == nil {
		return nil, fmt.Errorf("rtl: no crt0.s among the runtime sources")
	}
	return rt, nil
}

// Headers returns the standard headers (stdio.h, stdlib.h, string.h)
// for compiling MiniC programs against this library, read from the
// embedded include tree. The map is shared and must not be mutated.
func Headers() (map[string]string, error) { return headers() }

// LibCtx returns the compiled runtime library. Its members are shared
// and must not be mutated; the linker copies member contents.
func LibCtx(ctx *obs.Ctx) (*link.Library, error) {
	rt, err := runtimeFiles(ctx)
	if err != nil {
		return nil, err
	}
	return &link.Library{Name: "librtl", Members: rt[1:len(rt):len(rt)]}, nil
}

// Crt0Ctx returns the startup object defining __start. It must be
// linked explicitly into executables (nothing references it by name, so
// archive selection would never pull it in).
func Crt0Ctx(ctx *obs.Ctx) (*aout.File, error) {
	rt, err := runtimeFiles(ctx)
	if err != nil {
		return nil, err
	}
	return rt[0], nil
}

// BuildObjectsCtx compiles MiniC sources (name -> source) into objects.
// Names ending in ".s" are assembled instead — analysis routines with
// hand-optimized hot paths mix both. Results are memoized by source
// content; the returned objects are shared and must not be mutated
// (the linker copies what it needs). The compile loop runs under an
// "rtl.objects" span, and the cache lookup that guards it is recorded
// with hit/miss attribution.
func BuildObjectsCtx(ctx *obs.Ctx, srcs map[string]string) ([]*aout.File, error) {
	hdrs, err := headers()
	if err != nil {
		return nil, err
	}
	var names []string
	for n := range srcs {
		names = append(names, n)
	}
	sort.Strings(names)
	kb := NewKey("objects")
	kb.Int(int64(len(names)))
	for _, n := range names {
		kb.String(n).String(srcs[n])
	}
	objs, err := objCache.GetCtx(ctx, "objects", kb.Sum(), func(bctx *obs.Ctx) ([]*aout.File, error) {
		octx, sp := bctx.Start("rtl.objects", obs.Int("sources", int64(len(names))))
		defer sp.End()
		var objs []*aout.File
		for _, n := range names {
			var obj *aout.File
			var err error
			if strings.HasSuffix(n, ".s") {
				obj, err = asm.AssembleCtx(octx, n, srcs[n])
			} else {
				obj, err = cc.BuildCtx(octx, n, srcs[n], hdrs)
			}
			if err != nil {
				return nil, err
			}
			objs = append(objs, obj)
		}
		return objs, nil
	})
	if err != nil {
		return nil, err
	}
	// Fresh slice header: callers append wrapper modules to the result.
	return append([]*aout.File(nil), objs...), nil
}

// ObjectCacheStats reports compiled-object cache activity.
func ObjectCacheStats() build.Stats { return objCache.Stats() }

// ResetObjectCache drops the in-memory compiled objects (not the runtime
// library, whose build is part of process setup, not of any tool); a
// configured store keeps its blobs. Used by tests and cold-start
// benchmarks. The Scope argument is ignored (see build.Scope).
func ResetObjectCache(build.Scope) { objCache.Reset() }

// BuildProgram compiles a single-file MiniC program and links it (with
// crt0 and the runtime library) into an executable, recording nothing.
func BuildProgram(name, src string) (*aout.File, error) {
	return BuildProgramMultiCtx(nil, map[string]string{name: src})
}

// BuildProgramMultiCtx compiles several MiniC source files and links
// them together with crt0 and the runtime library.
func BuildProgramMultiCtx(ctx *obs.Ctx, srcs map[string]string) (*aout.File, error) {
	objs, err := BuildObjectsCtx(ctx, srcs)
	if err != nil {
		return nil, err
	}
	c0, err := Crt0Ctx(ctx)
	if err != nil {
		return nil, err
	}
	l, err := LibCtx(ctx)
	if err != nil {
		return nil, err
	}
	return link.LinkCtx(ctx, link.Config{}, append([]*aout.File{c0}, objs...), l)
}
