package build

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"atom/internal/obs"
)

// DiskStore is the persistent artifact store: one content-addressed blob
// file per key under a cache directory, shared by every process pointed
// at the same directory. A Cache with a Codec mirrors its encoded
// artifacts through the process-wide DiskStore configured with
// SetCacheDir. Keys are full content addresses (kind + toolchain version
// + inputs), so one directory safely holds blobs of every kind.
//
// On-disk layout:
//
//	<dir>/objects/ab/cdef…   blob files, sharded by the first key byte
//	<dir>/tmp/               in-flight writes (swept at open)
//
// Each blob file is an 8-byte magic, the SHA-256 of the payload, then the
// payload. Put writes the file in tmp/, fsyncs, and atomically renames it
// into objects/, so a crash at any point leaves the old file or the new
// one — never a visible partial blob. Get re-verifies the payload digest;
// a file that fails (bit flip, truncation) is deleted and reported as a
// miss, so the caller silently rebuilds and re-puts. The file system is
// the only index, and nothing bounds the directory's size: delete it to
// reclaim the space.
//
// Its activity is counted only in the stage context: store.disk.hit,
// .miss, .put and .corrupt.
//
// A DiskStore is safe for concurrent use, within and across processes.
type DiskStore struct {
	dir string
}

// Scope is vestigial: a Reset only ever drops the in-memory layer, and
// the store is cleared by deleting its directory. The type and its one
// value remain because perfbench passes build.ScopeMemory to the cache
// reset functions (ROADMAP item 2 removes them with ResetIRCache).
type Scope int

// ScopeMemory is the only Scope.
const ScopeMemory Scope = 0

// blobMagic begins every blob file; it versions the header layout.
const blobMagic = "atomblb1"

// blobHeaderSize is the magic plus the payload SHA-256.
const blobHeaderSize = len(blobMagic) + sha256.Size

// OpenDiskStore opens (creating if needed) a DiskStore rooted at dir and
// removes temp files left by writers that crashed before their rename.
func OpenDiskStore(ctx *obs.Ctx, dir string) (*DiskStore, error) {
	_, sp := ctx.Start("store.open", obs.String("dir", dir))
	defer sp.End()

	for _, sub := range []string{"objects", "tmp"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o777); err != nil {
			return nil, fmt.Errorf("diskstore: %w", err)
		}
	}
	// A temp file is an in-flight write that never reached its atomic
	// rename: invisible to readers, safe to discard.
	if ents, err := os.ReadDir(filepath.Join(dir, "tmp")); err == nil {
		for _, e := range ents {
			os.Remove(filepath.Join(dir, "tmp", e.Name()))
		}
	}
	return &DiskStore{dir: dir}, nil
}

// blobPath returns the sharded object path for key.
func (s *DiskStore) blobPath(key Key) string {
	h := key.String()
	return filepath.Join(s.dir, "objects", h[:2], h[2:])
}

// Get returns the verified payload for key. An absent blob is a miss; a
// corrupt one is deleted, counted as store.disk.corrupt and reported as a
// miss, so the caller rebuilds.
func (s *DiskStore) Get(ctx *obs.Ctx, key Key) ([]byte, bool) {
	_, sp := ctx.Start("store.get", obs.String("key", key.Short()))
	defer sp.End()

	path := s.blobPath(key)
	data, err := os.ReadFile(path)
	outcome := "miss"
	if err == nil {
		payload, verr := verifyBlobFile(data)
		if verr == nil {
			ctx.Count("store.disk.hit", 1)
			sp.SetAttr(obs.String("outcome", "hit"), obs.Int("bytes", int64(len(payload))))
			return payload, true
		}
		os.Remove(path)
		ctx.Count("store.disk.corrupt", 1)
		outcome = "corrupt"
	}
	ctx.Count("store.disk.miss", 1)
	sp.SetAttr(obs.String("outcome", outcome))
	return nil, false
}

// verifyBlobFile checks the magic and payload digest of a raw blob file
// and returns the payload.
func verifyBlobFile(data []byte) ([]byte, error) {
	if len(data) < blobHeaderSize || string(data[:len(blobMagic)]) != blobMagic {
		return nil, fmt.Errorf("diskstore: bad blob header")
	}
	payload := data[blobHeaderSize:]
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(data[len(blobMagic):blobHeaderSize]) {
		return nil, fmt.Errorf("diskstore: blob digest mismatch")
	}
	return payload, nil
}

// Put writes blob under key via write-to-temp, fsync, atomic rename. It
// always writes, replacing any file already there: the caller puts only
// after a build, and a build runs only when the existing blob (if any)
// could not be served.
func (s *DiskStore) Put(ctx *obs.Ctx, key Key, blob []byte) error {
	_, sp := ctx.Start("store.put",
		obs.String("key", key.Short()), obs.Int("bytes", int64(len(blob))))
	defer sp.End()

	sum := sha256.Sum256(blob)
	data := make([]byte, 0, blobHeaderSize+len(blob))
	data = append(data, blobMagic...)
	data = append(data, sum[:]...)
	data = append(data, blob...)

	tmp, err := os.CreateTemp(filepath.Join(s.dir, "tmp"), "blob-*")
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	tmpName := tmp.Name()
	if _, err = tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	path := s.blobPath(key)
	if err == nil {
		err = os.MkdirAll(filepath.Dir(path), 0o777)
	}
	if err == nil {
		err = os.Rename(tmpName, path)
	}
	if err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("diskstore: %w", err)
	}
	ctx.Count("store.disk.put", 1)
	return nil
}

// The process-wide store every codec-equipped Cache layers over. nil (the
// default) means memory-only: nothing in this package ever reads
// ATOM_CACHE_DIR or touches the filesystem unless a caller explicitly
// configures a store, so tests that assume a cold cache cannot be
// poisoned by a developer's environment.
var (
	storeMu     sync.Mutex
	activeStore *DiskStore
)

// ActiveStore returns the configured process-wide store, or nil.
func ActiveStore() *DiskStore {
	storeMu.Lock()
	defer storeMu.Unlock()
	return activeStore
}

// SwapStore installs s as the process-wide store and returns the previous
// one. Tests and benchmarks use the swap-in/swap-out pattern to measure
// disk-warm paths without leaking state.
func SwapStore(s *DiskStore) *DiskStore {
	storeMu.Lock()
	defer storeMu.Unlock()
	prev := activeStore
	activeStore = s
	return prev
}

// SetCacheDir opens (creating if needed) a DiskStore rooted at dir and
// installs it as the process-wide store.
func SetCacheDir(ctx *obs.Ctx, dir string) error {
	s, err := OpenDiskStore(ctx, dir)
	if err != nil {
		return err
	}
	SwapStore(s)
	return nil
}
