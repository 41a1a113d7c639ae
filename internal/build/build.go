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
// A Cache is typed by its artifact and is safe for concurrent use. It
// deduplicates its own in-flight builds (singleflight): when several
// workers ask for the same key at the same time, exactly one runs the
// build function and the others wait for its result. Each artifact kind
// has exactly one Cache in the program, so no flight table is shared
// between instances. Build errors are returned to every waiter but are
// NOT cached — a later Get with the same key retries the build, so a
// transient failure is never latched.
package build

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"sync"

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

// Cache is a concurrent, singleflight, content-addressed cache of
// artifacts of type T: decoded values in memory, layered over the
// process-wide DiskStore when it has a Codec. Its decoded values, its
// in-flight builds and its counters live under one mutex.
type Cache[T any] struct {
	kind  string   // names the store.<kind>.* counters
	codec Codec[T] // nil: memory-only — the artifact has no wire form

	mu      sync.Mutex
	front   map[Key]T // decoded values; pointer identity for hits
	flights map[Key]*flight[T]
	stats   Stats
}

// flight is one in-flight build; done closes once val and err are set.
type flight[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// NewCache returns an empty cache for one artifact kind. The kind names
// the cache's store.<kind>.* counters; codec, if non-nil, gives the
// artifact a wire form so it persists through the configured DiskStore.
func NewCache[T any](kind string, codec Codec[T]) *Cache[T] {
	return &Cache[T]{kind: kind, codec: codec}
}

// GetCtx returns the artifact for key, running build at most once per
// key at a time. Concurrent lookups of the same key share one build. A
// failed build's error is returned to every caller that observed it,
// then the key is cleared so the next lookup retries.
//
// Each lookup opens a span named "cache.get" (labelled with what
// artifact is being fetched and the short key) whose outcome attribute
// records how it was served — "hit" for a decoded in-memory artifact,
// "disk" for a blob decoded from the store, "wait" for joining an
// in-flight build (the singleflight path), "miss" for running the build,
// "error" for a failed build. The same outcomes feed the
// store.<kind>.<outcome> counters. The build function receives the child
// context, so everything it compiles or links nests under the lookup.
func (c *Cache[T]) GetCtx(ctx *obs.Ctx, what string, key Key, build func(*obs.Ctx) (T, error)) (T, error) {
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

	c.mu.Lock()
	if v, ok := c.front[key]; ok {
		c.stats.Hits++
		c.mu.Unlock()
		outcome("hit")
		return v, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			outcome("error")
			return f.val, f.err
		}
		c.mu.Lock()
		c.stats.Hits++
		c.mu.Unlock()
		outcome("wait")
		return f.val, nil
	}
	f := &flight[T]{done: make(chan struct{})}
	if c.flights == nil {
		c.flights = map[Key]*flight[T]{}
	}
	c.flights[key] = f
	c.mu.Unlock()

	o := c.fill(bctx, key, f, build)
	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		if c.front == nil {
			c.front = map[Key]T{}
		}
		c.front[key] = f.val
	}
	switch o {
	case "disk":
		c.stats.DiskHits++
	case "miss":
		c.stats.Misses++
		c.stats.Builds++
	case "error":
		c.stats.Misses++
		c.stats.Errors++
	}
	c.mu.Unlock()
	// Waiters wake only after the flight is gone and the value is in the
	// front, so a lookup after a failure retries the build.
	close(f.done)
	outcome(o)
	return f.val, f.err
}

// fill serves a registered flight: from the process-wide store when the
// kind has a codec and the blob decodes, else by running build (and
// persisting its result). It returns the lookup's outcome.
func (c *Cache[T]) fill(ctx *obs.Ctx, key Key, f *flight[T], build func(*obs.Ctx) (T, error)) string {
	var s *DiskStore
	if c.codec != nil {
		s = ActiveStore()
	}
	if s != nil {
		if blob, ok := s.Get(ctx, key); ok {
			if v, err := c.codec.Unmarshal(blob); err == nil {
				f.val = v
				return "disk"
			}
			// Undecodable blob (a codec from another era): fall through
			// to a rebuild; the Put below overwrites it.
		}
	}
	f.val, f.err = build(ctx)
	if f.err != nil {
		var zero T
		f.val = zero
		return "error"
	}
	if s != nil {
		// Persistence is best-effort: a full disk must not fail the
		// build that just succeeded.
		if blob, err := c.codec.Marshal(f.val); err == nil {
			s.Put(ctx, key, blob)
		}
	}
	return "miss"
}

// Stats returns a snapshot of the counters.
func (c *Cache[T]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len reports the number of decoded in-memory artifacts.
func (c *Cache[T]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.front)
}

// Reset drops the decoded values and zeroes the counters: what a fresh
// process sees against the same cache directory, whose blobs survive.
// Intended for tests and cold-start benchmarks; a build in flight
// completes and stores its value.
func (c *Cache[T]) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.front = nil
	c.stats = Stats{}
}

// ResetIRCache is a no-op: the lift has no cache. It exists only
// because perfbench still calls it; the next benchmark change (ROADMAP
// item 2) deletes it together with perfbench's build.ir.* rows.
func ResetIRCache(Scope) {}

// IRCacheStats returns a zero Stats: the lift has no cache. It exists
// only because perfbench still reports it; the next benchmark change
// (ROADMAP item 2) deletes it together with perfbench's build.ir.* rows.
func IRCacheStats() Stats { return Stats{} }
