package build

import "atom/internal/obs"

// The IR-blob cache: encoded OM IR (atom-ir/v1 blobs), content-addressed
// by (executable digest, format version, lifter version). It sits beside
// the tool-image cache and serves the same cost model from the other
// side: the image cache makes "build the tool once" true, this cache
// makes "lift the application once" true — a suite run, or repeated
// Instrument/Apply calls against the same executable, pay for exactly
// one lift and decode cheap blobs thereafter. The cache stores BLOBS,
// not Programs: instrumentation mutates a Program (actions are attached
// to its instructions), so every consumer other than the one whose build
// ran decodes a fresh, private copy.
//
// Because the blobs are already wire-stable, the identity BlobCodec
// persists them through the configured Store unchanged: with a cache
// directory set, a second process skips the lift entirely.
//
// This package stays IR-agnostic — keys and blobs are opaque here; the
// digesting and the encode/decode live with their types (internal/core,
// internal/om). Lookups run under the usual "cache.get" span but count
// through the "store.ir.*" counters, so -metrics and bench JSON report
// IR-cache traffic separately from tool-image traffic.
var irCache = NewCache("ir", BlobCodec{})

// IRKey derives the content address of an encoded IR blob from the
// executable's digest and the format/lifter versions. Any of the three
// changing yields a different key, so stale blobs are never served.
func IRKey(exeDigest Key, format, lifter string) Key {
	return NewKey("ir").Bytes(exeDigest[:]).String(format).String(lifter).Sum()
}

// IRBlob returns the cached encoded IR blob for key, running lift at
// most once per key (singleflight: concurrent callers share one lift).
func IRBlob(key Key, lift func() ([]byte, error)) ([]byte, error) {
	return IRBlobCtx(nil, key, func(*obs.Ctx) ([]byte, error) { return lift() })
}

// IRBlobCtx is IRBlob with a stage context; the lift function receives
// the lookup's child context, so the om.build/om.encode spans of a cold
// lift nest under its cache.get span.
func IRBlobCtx(ctx *obs.Ctx, key Key, lift func(*obs.Ctx) ([]byte, error)) ([]byte, error) {
	return MemoCtx(ctx, irCache, "ir", key, lift)
}

// IRCacheStats reports IR-blob cache activity (hits, disk hits, misses,
// builds, errors) since the last reset.
func IRCacheStats() Stats { return irCache.Stats() }

// ResetIRCache drops cached blobs per scope and zeroes the counters.
// Tests and cold-start benchmarks use it.
func ResetIRCache(scope Scope) { irCache.Reset(scope) }
