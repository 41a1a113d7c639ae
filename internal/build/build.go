// Package build provides the content-addressed artifact cache behind the
// staged instrumentation pipeline. The paper's two-step model builds a
// custom tool once and applies it to any number of programs; this cache
// is what makes "once" true: compiled objects, linked analysis images,
// and runtime-library builds are keyed by the SHA-256 of their inputs
// (sources, options, toolchain version) and rebuilt only when any input
// changes.
//
// Each Cache keeps decoded values in memory. A kind with a Codec also
// layers over the process-wide DiskStore (see store.go), when one is
// configured: a lookup tries memory, then the blob file for its key, and
// only then runs the build, writing both on the way out. A second
// process against the same cache directory therefore serves every
// artifact from disk and builds nothing. The directory holds one
// verified blob file per key and is never pruned; delete it to reclaim
// the space.
//
// The cache is safe for concurrent use and deduplicates in-flight builds
// (singleflight) across ALL Cache instances: keys are full content
// addresses, so when several workers — even holding independent Cache
// handles — ask for the same artifact at the same time, exactly one runs
// the build function and the others wait for its result. Build errors
// are returned to every waiter but are NOT cached — a later Get with the
// same key retries the build, so a transient failure is never latched.
package build

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"sync"
	"sync/atomic"

	"atom/internal/obs"
)

// ToolchainVersion is mixed into every key. Bump it when the code
// generators (cc, asm, link) change in ways that invalidate previously
// built artifacts; with a persistent store configured this is what keeps
// old processes' blobs from being served to a new toolchain.
const ToolchainVersion = "atom-toolchain-1"

// Key is a content address: the SHA-256 of an artifact's inputs.
type Key [sha256.Size]byte

// String renders the key as hex, for diagnostics.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Short renders the first 12 hex digits of the key, for span attributes.
func (k Key) Short() string { return hex.EncodeToString(k[:6]) }

// KeyBuilder accumulates inputs into a Key. Every field is written
// length-prefixed, so concatenation ambiguities ("ab"+"c" vs "a"+"bc")
// cannot collide.
type KeyBuilder struct {
	h hash.Hash
}

// NewKey starts a key of the given kind. The kind and the toolchain
// version are part of the hash, so artifacts of different kinds (or
// toolchains) can never alias.
func NewKey(kind string) *KeyBuilder {
	b := &KeyBuilder{h: sha256.New()}
	return b.String(ToolchainVersion).String(kind)
}

func (b *KeyBuilder) writeLen(n int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(n))
	b.h.Write(buf[:])
}

// String mixes a length-prefixed string into the key.
func (b *KeyBuilder) String(s string) *KeyBuilder {
	b.writeLen(len(s))
	io.WriteString(b.h, s)
	return b
}

// Bytes mixes a length-prefixed byte slice into the key.
func (b *KeyBuilder) Bytes(p []byte) *KeyBuilder {
	b.writeLen(len(p))
	b.h.Write(p)
	return b
}

// Int mixes an integer into the key.
func (b *KeyBuilder) Int(v int64) *KeyBuilder {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	b.h.Write(buf[:])
	return b
}

// Bool mixes a boolean into the key.
func (b *KeyBuilder) Bool(v bool) *KeyBuilder {
	if v {
		return b.Int(1)
	}
	return b.Int(0)
}

// Sum finalizes the key.
func (b *KeyBuilder) Sum() Key {
	var k Key
	b.h.Sum(k[:0])
	return k
}

// Stats is a snapshot of cache activity.
type Stats struct {
	Hits     uint64 // Gets served from a decoded in-memory artifact
	DiskHits uint64 // Gets served by decoding a blob from the store
	Misses   uint64 // Gets that started a build
	Builds   uint64 // builds that completed successfully
	Errors   uint64 // builds that failed (and were not cached)
}

// Cache is a concurrent, singleflight, content-addressed artifact cache:
// decoded values in memory, layered over the process-wide DiskStore for
// kinds that have a Codec.
type Cache struct {
	kind  string // names the store.<kind>.* counters
	codec Codec  // nil: memory-only — the artifact has no wire form

	mu    sync.Mutex
	front map[Key]any // decoded values; pointer identity for hits

	hits     atomic.Uint64
	diskHits atomic.Uint64
	misses   atomic.Uint64
	builds   atomic.Uint64
	errs     atomic.Uint64
}

// The cross-instance singleflight table: one in-flight build per key,
// process-wide. Keys embed their kind, so flights of different caches
// can never alias, and twin caches of one kind share their flights.
var (
	flightMu sync.Mutex
	flights  = map[Key]*flight{}
)

type flight struct {
	done chan struct{}
	val  any
	err  error
}

// NewCache returns an empty cache for one artifact kind. The kind names
// the cache's store.<kind>.* counters; codec, if non-nil, gives the
// artifact a wire form so it persists through the configured DiskStore.
func NewCache(kind string, codec Codec) *Cache {
	return &Cache{kind: kind, codec: codec}
}

// Get returns the artifact for key, running build at most once per key at
// a time. Concurrent Gets for the same key share one build. A failed
// build's error is returned to every caller that observed it, then the
// key is cleared so the next Get retries.
func (c *Cache) Get(key Key, build func() (any, error)) (any, error) {
	return c.GetCtx(nil, "", key, func(*obs.Ctx) (any, error) { return build() })
}

// GetCtx is Get with observability: each lookup opens a span named
// "cache.get" (labelled with what artifact is being fetched and the short
// key) whose outcome attribute records how it was served — "hit" for a
// decoded in-memory artifact, "disk" for a blob decoded from the store,
// "wait" for joining an in-flight build (the singleflight path), "miss"
// for running the build, "error" for a failed build. The same outcomes
// feed the store.<kind>.<outcome> counters — since bench-JSON schema v5
// those are the ONLY counter names; the pre-unification
// cache.*/ircache.* aliases are gone. The build function receives the
// child context, so everything it compiles or links nests under the
// lookup.
func (c *Cache) GetCtx(ctx *obs.Ctx, what string, key Key, build func(*obs.Ctx) (any, error)) (any, error) {
	var sp *obs.Span
	bctx := ctx
	if ctx.Enabled() {
		bctx, sp = ctx.Start("cache.get",
			obs.String("artifact", what), obs.String("key", key.Short()))
	}
	outcome := func(o string) {
		sp.SetAttr(obs.String("outcome", o))
		sp.End()
		ctx.Count("store."+c.kind+"."+o, 1)
	}

	if v, ok := c.frontGet(key); ok {
		c.hits.Add(1)
		outcome("hit")
		return v, nil
	}

	// No decoded value: join the in-flight build for this key if one
	// exists, else register ours.
	flightMu.Lock()
	if f, ok := flights[key]; ok {
		flightMu.Unlock()
		<-f.done
		if f.err != nil {
			outcome("error")
			return f.val, f.err
		}
		c.frontPut(key, f.val)
		c.hits.Add(1)
		outcome("wait")
		return f.val, nil
	}
	f := &flight{done: make(chan struct{})}
	flights[key] = f
	flightMu.Unlock()

	// Double-check the front: a build may have completed between the
	// front miss and the flight registration.
	if v, ok := c.frontGet(key); ok {
		f.val = v
		unregisterFlight(key, f)
		close(f.done)
		c.hits.Add(1)
		outcome("hit")
		return v, nil
	}

	// Layer two: a codec-equipped kind checks the process-wide store
	// and decodes the blob instead of building.
	if c.codec != nil {
		if s := ActiveStore(); s != nil {
			if blob, ok := s.Get(bctx, key); ok {
				if v, err := c.codec.Unmarshal(blob); err == nil {
					c.frontPut(key, v)
					f.val = v
					unregisterFlight(key, f)
					close(f.done)
					c.diskHits.Add(1)
					outcome("disk")
					return v, nil
				}
				// Undecodable blob (a codec from another era): fall
				// through to a rebuild; the Put below overwrites it.
			}
		}
	}

	c.misses.Add(1)
	f.val, f.err = build(bctx)
	if f.err != nil {
		// Unlatch before waking waiters: any Get arriving after close
		// must find the key absent and retry the build.
		unregisterFlight(key, f)
		close(f.done)
		c.errs.Add(1)
		outcome("error")
		return f.val, f.err
	}
	c.frontPut(key, f.val)
	if c.codec != nil {
		if s := ActiveStore(); s != nil {
			// Persistence is best-effort: a full disk must not fail the
			// build that just succeeded.
			if blob, err := c.codec.Marshal(f.val); err == nil {
				s.Put(bctx, key, blob)
			}
		}
	}
	c.builds.Add(1)
	unregisterFlight(key, f)
	close(f.done)
	outcome("miss")
	return f.val, nil
}

func (c *Cache) frontGet(key Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.front[key]
	return v, ok
}

func (c *Cache) frontPut(key Key, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.front == nil {
		c.front = map[Key]any{}
	}
	c.front[key] = v
}

func unregisterFlight(key Key, f *flight) {
	flightMu.Lock()
	if flights[key] == f {
		delete(flights, key)
	}
	flightMu.Unlock()
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:     c.hits.Load(),
		DiskHits: c.diskHits.Load(),
		Misses:   c.misses.Load(),
		Builds:   c.builds.Load(),
		Errors:   c.errs.Load(),
	}
}

// Len reports the number of decoded in-memory artifacts.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.front)
}

// Reset drops the decoded values and zeroes the counters: what a fresh
// process sees against the same cache directory, whose blobs survive.
// Intended for tests and cold-start benchmarks; in-flight builds
// complete but are not re-registered.
func (c *Cache) Reset() {
	c.mu.Lock()
	c.front = nil
	c.mu.Unlock()
	c.hits.Store(0)
	c.diskHits.Store(0)
	c.misses.Store(0)
	c.builds.Store(0)
	c.errs.Store(0)
}

// Memo is the typed convenience wrapper over Get.
func Memo[T any](c *Cache, key Key, build func() (T, error)) (T, error) {
	return MemoCtx(nil, c, "", key, func(*obs.Ctx) (T, error) { return build() })
}

// MemoCtx is the typed convenience wrapper over GetCtx.
func MemoCtx[T any](ctx *obs.Ctx, c *Cache, what string, key Key, build func(*obs.Ctx) (T, error)) (T, error) {
	v, err := c.GetCtx(ctx, what, key, func(bctx *obs.Ctx) (any, error) { return build(bctx) })
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// ResetIRCache is a no-op: the lift has no cache. It exists only
// because perfbench still calls it; the next benchmark change (ROADMAP
// item 2) deletes it together with perfbench's build.ir.* rows.
func ResetIRCache(Scope) {}

// IRCacheStats returns a zero Stats: the lift has no cache. It exists
// only because perfbench still reports it; the next benchmark change
// (ROADMAP item 2) deletes it together with perfbench's build.ir.* rows.
func IRCacheStats() Stats { return Stats{} }
