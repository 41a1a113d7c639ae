package build

import (
	"sync"
	"sync/atomic"

	"atom/internal/obs"
)

// Store is a content-addressed blob store: the persistence seam under the
// artifact caches. A Cache keeps decoded values in memory and, when it
// has a Codec for its kind, mirrors the encoded bytes through the
// process-wide store configured with SetCacheDir/SwapStore. Keys are full
// content addresses (kind + toolchain version + inputs), so one store can
// safely hold blobs of every kind.
//
// Implementations must be safe for concurrent use. Get returns
// (nil, false, nil) for absent blobs; an error means the store itself
// failed, not that the blob is missing.
type Store interface {
	Get(ctx *obs.Ctx, key Key) ([]byte, bool, error)
	Put(ctx *obs.Ctx, key Key, blob []byte) error
	Has(key Key) bool
	Clear() error
	Stats() StoreStats
	Close() error
}

// StoreStats is a snapshot of store activity since open.
type StoreStats struct {
	Hits    uint64 // Gets that returned a blob
	Misses  uint64 // Gets for absent blobs
	Puts    uint64 // blobs written
	Corrupt uint64 // blobs that failed verification and were quarantined
	Adopted uint64 // blobs written by a concurrent process and picked up on Get
	Evicted uint64 // blobs removed by the size-bounded prune
	Blobs   int    // blobs currently resident
	Bytes   int64  // approximate resident size (blob files, with headers)
}

// Scope selects how much cached state a Reset clears.
type Scope int

const (
	// ScopeMemory clears in-memory decoded values and counters only;
	// blobs in a configured persistent store survive. This is what a
	// fresh process looks like against a warm cache directory.
	ScopeMemory Scope = iota
	// ScopeAll additionally clears the configured shared store. Because
	// every artifact kind shares one store, this empties the whole
	// store, not just the resetting cache's kind.
	ScopeAll
)

// MemStore is the in-memory Store: a mutex-guarded blob map. It backs
// tests and callers that want store semantics without a cache directory.
// Blobs are copied on Put and Get, so callers can never alias the
// store's buffers.
type MemStore struct {
	mu    sync.Mutex
	blobs map[Key][]byte
	bytes int64

	hits, misses, puts atomic.Uint64
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Get returns a copy of the blob for key, if present.
func (s *MemStore) Get(ctx *obs.Ctx, key Key) ([]byte, bool, error) {
	s.mu.Lock()
	blob, ok := s.blobs[key]
	s.mu.Unlock()
	if !ok {
		s.misses.Add(1)
		ctx.Count("store.mem.miss", 1)
		return nil, false, nil
	}
	s.hits.Add(1)
	ctx.Count("store.mem.hit", 1)
	return append([]byte(nil), blob...), true, nil
}

// Put stores a copy of blob under key. Re-putting an existing key is a
// no-op: content addressing makes the bytes identical by construction.
func (s *MemStore) Put(ctx *obs.Ctx, key Key, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blobs[key]; ok {
		return nil
	}
	if s.blobs == nil {
		s.blobs = map[Key][]byte{}
	}
	s.blobs[key] = append([]byte(nil), blob...)
	s.bytes += int64(len(blob))
	s.puts.Add(1)
	ctx.Count("store.mem.put", 1)
	return nil
}

// Has reports whether key is present.
func (s *MemStore) Has(key Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.blobs[key]
	return ok
}

// Clear drops every blob. Counters are kept (they count activity, not
// contents).
func (s *MemStore) Clear() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blobs = nil
	s.bytes = 0
	return nil
}

// Stats returns a snapshot of the counters.
func (s *MemStore) Stats() StoreStats {
	s.mu.Lock()
	blobs, bytes := len(s.blobs), s.bytes
	s.mu.Unlock()
	return StoreStats{
		Hits:   s.hits.Load(),
		Misses: s.misses.Load(),
		Puts:   s.puts.Load(),
		Blobs:  blobs,
		Bytes:  bytes,
	}
}

// Close is a no-op for the in-memory store.
func (s *MemStore) Close() error { return nil }

// The process-wide store every codec-equipped Cache layers over. nil (the
// default) means memory-only: nothing in this package ever reads
// ATOM_CACHE_DIR or touches the filesystem unless a caller explicitly
// configures a store, so tests that assume a cold cache cannot be
// poisoned by a developer's environment.
var (
	storeMu     sync.Mutex
	activeStore Store
)

// ActiveStore returns the configured process-wide store, or nil.
func ActiveStore() Store {
	storeMu.Lock()
	defer storeMu.Unlock()
	return activeStore
}

// SwapStore installs s as the process-wide store and returns the previous
// one (which the caller now owns — Close it if it should be retired).
// Tests and benchmarks use the swap-in/swap-out pattern to measure
// disk-warm paths without leaking state.
func SwapStore(s Store) Store {
	storeMu.Lock()
	defer storeMu.Unlock()
	prev := activeStore
	activeStore = s
	return prev
}

// SetCacheDir opens (creating if needed) a persistent DiskStore rooted at
// dir and installs it as the process-wide store, closing any previous
// one. maxBytes > 0 bounds the store: Puts that push the resident size
// over the bound evict least-recently-used blobs. maxBytes <= 0 means
// unbounded.
func SetCacheDir(ctx *obs.Ctx, dir string, maxBytes int64) error {
	s, err := OpenDiskStore(ctx, dir, maxBytes)
	if err != nil {
		return err
	}
	if prev := SwapStore(s); prev != nil {
		prev.Close()
	}
	return nil
}

// CloseStore retires the process-wide store, if any, and returns its
// Close error. Subsequent cache traffic is memory-only.
func CloseStore() error {
	if s := SwapStore(nil); s != nil {
		return s.Close()
	}
	return nil
}
