package core

import (
	"atom/internal/aout"
	"atom/internal/build"
	"atom/internal/obs"
	"atom/internal/om"
)

// The lift stage: executable -> OM IR, as a first-class, cacheable,
// serializable step. Instrument and Apply are now Lift -> Plan -> Apply:
// the lift produces an encoded atom-ir/v1 blob, content-addressed by
// (executable digest, format version, lifter version) in the IR cache.
// The cache holds only blobs, so every Program a lift returns is private
// to its caller: a cold lift hands back the Program its own build made
// (after encoding it for the cache), and every other lift — a cache
// hit, a disk hit, or a singleflight peer's build — decodes a fresh one
// from the blob. A decoded IR is a drop-in substitute for a fresh
// om.Build: the decoder reconstructs the identical structure, and the
// lift-equivalence test (TestColdLiftMatchesDecodedAllTools) plus the IR
// gate in ci.sh hold the two paths to bit-identical instrumented output,
// so the lift can also run in a different process (atom -emit-ir /
// -ir-in) or, later, on a different machine.

// exeDigest content-addresses a linked executable by streaming every
// field through a KeyBuilder — no full re-encode allocation. Two
// executables with equal contents share one digest (and therefore one
// cached lift) regardless of identity.
func exeDigest(app *aout.File) build.Key {
	b := build.NewKey("exe").
		Bool(app.Linked).
		Int(int64(app.Entry)).
		Int(int64(app.TextAddr)).
		Int(int64(app.DataAddr)).
		Int(int64(app.BssAddr)).
		Int(int64(app.Bss)).
		Bytes(app.Text).
		Bytes(app.Data)
	b.Int(int64(len(app.Symbols)))
	for _, s := range app.Symbols {
		b.String(s.Name).
			Int(int64(s.Kind)).
			Int(int64(s.Section)).
			Int(int64(s.Value)).
			Int(int64(s.Size)).
			Bool(s.Global)
	}
	b.Int(int64(len(app.Relocs)))
	for _, r := range app.Relocs {
		b.Int(int64(r.Section)).
			Int(int64(r.Offset)).
			Int(int64(r.Type)).
			Int(int64(r.Sym)).
			Int(r.Addend)
	}
	return b.Sum()
}

// Lift lifts an application to OM IR through the content-addressed IR
// cache: the executable is built into IR and encoded at most once per
// (contents, lifter version). The call that builds returns the Program
// it built; every later call decodes a fresh Program from the cached
// blob. Either way the returned Program is private to the caller:
// instrumentation attaches actions to it, so handles are consumed by
// InstrumentProgram/ApplyProgram and never shared or reused. A built
// Program refers to app itself (Program.Exe == app); a decoded one holds
// a private copy. Instrumentation never writes to either.
func Lift(app *aout.File) (*om.Program, error) { return LiftCtx(nil, app) }

// LiftCtx is Lift with a stage context: the whole stage runs under an
// "om.lift" span; a cold lift nests cache.get -> om.build + om.encode
// under it, a warm one cache.get and om.decode.
func LiftCtx(ctx *obs.Ctx, app *aout.File) (*om.Program, error) {
	lctx, sp := ctx.Start("om.lift")
	defer sp.End()
	// built is set only when this call's own build closure runs: the
	// cache stores the blob, never the Program, so nobody else sees it.
	var built *om.Program
	blob, err := liftBlob(lctx, app, func(p *om.Program) { built = p })
	if err != nil {
		return nil, err
	}
	sp.SetAttr(obs.Int("blob_bytes", int64(len(blob))))
	if built != nil {
		return built, nil
	}
	return om.DecodeCtx(lctx, blob)
}

// LiftBlob returns the application's encoded atom-ir/v1 blob from the
// IR cache, lifting and encoding on the first call. This is the
// exchange format of `atom -emit-ir`: the blob can be written out,
// shipped, and instrumented elsewhere with `atom -ir-in` (or decoded
// with om.Decode and passed to InstrumentProgram).
func LiftBlob(app *aout.File) ([]byte, error) { return LiftBlobCtx(nil, app) }

// LiftBlobCtx is LiftBlob with a stage context.
func LiftBlobCtx(ctx *obs.Ctx, app *aout.File) ([]byte, error) {
	return liftBlob(ctx, app, nil)
}

// liftBlob fetches the application's blob from the IR cache. On a miss
// this call builds and encodes the IR and, if keep is non-nil, hands it
// the freshly built Program.
func liftBlob(ctx *obs.Ctx, app *aout.File, keep func(*om.Program)) ([]byte, error) {
	key := build.IRKey(exeDigest(app), om.FormatVersion, om.LifterVersion)
	return build.IRBlobCtx(ctx, key, func(bctx *obs.Ctx) ([]byte, error) {
		prog, err := om.BuildCtx(bctx, app)
		if err != nil {
			return nil, err
		}
		blob, err := om.EncodeCtx(bctx, prog)
		if err == nil && keep != nil {
			keep(prog)
		}
		return blob, err
	})
}
