package build

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"atom/internal/obs"
)

// bytesCodec is the identity codec: the artifacts are byte slices.
type bytesCodec struct{}

func (bytesCodec) Marshal(v any) ([]byte, error) { return v.([]byte), nil }

func (bytesCodec) Unmarshal(blob []byte) (any, error) { return blob, nil }

func testKey(s string) Key { return NewKey("store-test").String(s).Sum() }

// withTestStore installs a fresh DiskStore in a temp dir as the
// process-wide store and undoes everything on cleanup.
func withTestStore(t *testing.T, maxBytes int64) *DiskStore {
	t.Helper()
	ds, err := OpenDiskStore(nil, t.TempDir(), maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	prev := SwapStore(ds)
	t.Cleanup(func() {
		SwapStore(prev)
		ds.Close()
	})
	return ds
}

func TestMemStoreBasics(t *testing.T) {
	s := NewMemStore()
	k := testKey("mem")
	if _, ok, _ := s.Get(nil, k); ok {
		t.Fatal("empty store reported a hit")
	}
	blob := []byte("payload")
	if err := s.Put(nil, k, blob); err != nil {
		t.Fatal(err)
	}
	blob[0] = 'X' // the store must have copied on Put
	got, ok, err := s.Get(nil, k)
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v after Put", ok, err)
	}
	if !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("Get = %q, want %q (aliasing caller buffer?)", got, "payload")
	}
	got[0] = 'Y' // and on Get
	again, _, _ := s.Get(nil, k)
	if !bytes.Equal(again, []byte("payload")) {
		t.Fatal("mutating a returned blob changed the store")
	}
	if !s.Has(k) || s.Has(testKey("other")) {
		t.Fatal("Has wrong")
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Puts != 1 || st.Blobs != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if err := s.Clear(); err != nil {
		t.Fatal(err)
	}
	if s.Has(k) {
		t.Fatal("Has after Clear")
	}
}

func TestDiskStorePutGetReopen(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDiskStore(nil, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := testKey("one"), testKey("two")
	if err := ds.Put(nil, k1, []byte("first blob")); err != nil {
		t.Fatal(err)
	}
	if err := ds.Put(nil, k2, []byte("second blob")); err != nil {
		t.Fatal(err)
	}
	// Re-putting an indexed key is a no-op.
	if err := ds.Put(nil, k1, []byte("first blob")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ds.Get(nil, k1)
	if err != nil || !ok || !bytes.Equal(got, []byte("first blob")) {
		t.Fatalf("Get(k1) = %q, %v, %v", got, ok, err)
	}
	if st := ds.Stats(); st.Puts != 2 || st.Blobs != 2 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 2 puts, 2 blobs, 1 hit", st)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	// A second open replays the journal: both blobs indexed, readable.
	ds2, err := OpenDiskStore(nil, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	if !ds2.Has(k1) || !ds2.Has(k2) {
		t.Fatal("reopened store lost blobs")
	}
	got, ok, _ = ds2.Get(nil, k2)
	if !ok || !bytes.Equal(got, []byte("second blob")) {
		t.Fatalf("reopened Get(k2) = %q, %v", got, ok)
	}
}

func TestDiskStoreRebuildsIndexWithoutJournal(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDiskStore(nil, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("scan")
	if err := ds.Put(nil, k, []byte("blob")); err != nil {
		t.Fatal(err)
	}
	ds.Close()
	if err := os.Remove(filepath.Join(dir, "journal")); err != nil {
		t.Fatal(err)
	}

	ds2, err := OpenDiskStore(nil, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	if !ds2.Has(k) {
		t.Fatal("objects/ scan did not rebuild the index")
	}
	if _, err := os.Stat(filepath.Join(dir, "journal")); err != nil {
		t.Fatalf("journal not rewritten after scan: %v", err)
	}
}

// corruptOneBlob flips a payload byte of the single blob under objects/
// and returns its path.
func corruptOneBlob(t *testing.T, dir string) string {
	t.Helper()
	var path string
	err := filepath.Walk(filepath.Join(dir, "objects"), func(p string, info os.FileInfo, err error) error {
		if err == nil && info != nil && !info.IsDir() {
			path = p
		}
		return err
	})
	if err != nil || path == "" {
		t.Fatalf("no blob file found: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDiskStoreCorruptBlobQuarantined(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDiskStore(nil, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	k := testKey("corrupt")
	if err := ds.Put(nil, k, []byte("soon to rot")); err != nil {
		t.Fatal(err)
	}
	corruptOneBlob(t, dir)

	ctx := obs.New()
	if _, ok, err := ds.Get(ctx, k); ok || err != nil {
		t.Fatalf("Get of corrupt blob = %v, %v; want miss, nil", ok, err)
	}
	st := ds.Stats()
	if st.Corrupt != 1 || st.Blobs != 0 {
		t.Fatalf("stats = %+v, want 1 corrupt, 0 blobs", st)
	}
	var sawCounter bool
	for _, c := range ctx.Counters() {
		if c.Name == "store.disk.corrupt" && c.Value == 1 {
			sawCounter = true
		}
	}
	if !sawCounter {
		t.Fatalf("store.disk.corrupt not counted: %v", ctx.Counters())
	}
	// The bad file moved to quarantine/, so a re-put sticks and reads back.
	ents, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("quarantine/ has %d entries (err %v), want 1", len(ents), err)
	}
	if err := ds.Put(nil, k, []byte("soon to rot")); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := ds.Get(nil, k)
	if !ok || !bytes.Equal(got, []byte("soon to rot")) {
		t.Fatalf("rebuilt blob unreadable: %q, %v", got, ok)
	}
}

func TestDiskStoreTruncatedBlobQuarantined(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDiskStore(nil, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	k := testKey("truncated")
	if err := ds.Put(nil, k, []byte("a blob long enough to truncate meaningfully")); err != nil {
		t.Fatal(err)
	}
	path := ds.blobPath(k)
	if err := os.Truncate(path, int64(blobHeaderSize+3)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := ds.Get(nil, k); ok || err != nil {
		t.Fatalf("Get of truncated blob = %v, %v; want miss, nil", ok, err)
	}
	if st := ds.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt", st)
	}
}

// TestDiskStoreCrashBeforeRename simulates a writer killed between the
// temp write and the atomic rename: the leftover temp file must never be
// visible as a blob, and the next open sweeps it away.
func TestDiskStoreCrashBeforeRename(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDiskStore(nil, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("crashed")
	// What Put writes before the rename, dropped mid-flight.
	partial := append([]byte(blobMagic), []byte("partial-write-no-digest")...)
	if err := os.WriteFile(filepath.Join(dir, "tmp", "blob-crashed"), partial, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := ds.Get(nil, k); ok {
		t.Fatal("in-flight temp file visible as a blob")
	}
	if st := ds.Stats(); st.Blobs != 0 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v, want empty store, no corruption", st)
	}
	ds.Close()

	ds2, err := OpenDiskStore(nil, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	ents, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil || len(ents) != 0 {
		t.Fatalf("tmp/ has %d leftovers after reopen (err %v), want 0", len(ents), err)
	}
}

func TestDiskStorePruneLRU(t *testing.T) {
	dir := t.TempDir()
	blob := bytes.Repeat([]byte("x"), 100)
	// Each blob file is header + 100 bytes; allow roughly two.
	ds, err := OpenDiskStore(nil, dir, 2*int64(blobHeaderSize+100))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	k1, k2, k3 := testKey("lru1"), testKey("lru2"), testKey("lru3")
	for _, k := range []Key{k1, k2, k3} {
		if err := ds.Put(nil, k, blob); err != nil {
			t.Fatal(err)
		}
	}
	st := ds.Stats()
	if st.Evicted != 1 || st.Blobs != 2 {
		t.Fatalf("stats = %+v, want 1 evicted, 2 resident", st)
	}
	if ds.Has(k1) {
		t.Fatal("oldest blob survived the prune")
	}
	if !ds.Has(k2) || !ds.Has(k3) {
		t.Fatal("recent blobs were evicted")
	}
	// Touch k2 so k3 becomes the LRU victim of the next Put.
	if _, ok, _ := ds.Get(nil, k2); !ok {
		t.Fatal("Get(k2)")
	}
	if err := ds.Put(nil, testKey("lru4"), blob); err != nil {
		t.Fatal(err)
	}
	if ds.Has(k3) || !ds.Has(k2) {
		t.Fatal("prune did not follow the Get-refreshed LRU order")
	}
}

// TestTwinCachesShareStoreAndFlight: two Cache instances of the same kind
// layered over one DiskStore — the cross-process sharing model squeezed
// into one process. Concurrent Gets across both instances run the build
// exactly once (the singleflight table is keyed by content address, not
// by instance), and a later Get on the instance that did not build is
// served by the store, not a rebuild.
func TestTwinCachesShareStoreAndFlight(t *testing.T) {
	ds := withTestStore(t, 0)
	a := NewCache("twin", bytesCodec{})
	b := NewCache("twin", bytesCodec{})
	key := testKey("twin-artifact")

	var mu sync.Mutex
	builds := 0
	gate := make(chan struct{})
	build := func() (any, error) {
		mu.Lock()
		builds++
		mu.Unlock()
		<-gate // hold every concurrent Get in the flight
		return []byte("built once"), nil
	}

	var wg sync.WaitGroup
	results := make([][]byte, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := a
			if i%2 == 1 {
				c = b
			}
			v, err := c.Get(key, build)
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			results[i] = v.([]byte)
		}(i)
	}
	close(gate)
	wg.Wait()
	if builds != 1 {
		t.Fatalf("build ran %d times across twin caches, want 1", builds)
	}
	for i, r := range results {
		if !bytes.Equal(r, []byte("built once")) {
			t.Fatalf("goroutine %d got %q", i, r)
		}
	}
	if !ds.Has(key) {
		t.Fatal("built artifact not persisted to the shared store")
	}

	// Drop both memory layers: the next Get decodes from disk, no build.
	a.Reset(ScopeMemory)
	b.Reset(ScopeMemory)
	v, err := b.Get(key, func() (any, error) {
		t.Error("rebuild ran despite a warm store")
		return nil, nil
	})
	if err != nil || !bytes.Equal(v.([]byte), []byte("built once")) {
		t.Fatalf("disk-layer Get = %v, %v", v, err)
	}
	if st := b.Stats(); st.DiskHits != 1 || st.Builds != 0 {
		t.Fatalf("stats = %+v, want 1 disk hit, 0 builds", st)
	}
}

// TestCacheRebuildsCorruptStoreBlob: end-to-end over the layered cache —
// a bit-flipped blob under the store must be quarantined and transparently
// rebuilt, with no error surfacing to the caller.
func TestCacheRebuildsCorruptStoreBlob(t *testing.T) {
	ds := withTestStore(t, 0)
	c := NewCache("twin", bytesCodec{})
	key := testKey("rot")
	builds := 0
	build := func() (any, error) { builds++; return []byte("artifact"), nil }

	if _, err := c.Get(key, build); err != nil {
		t.Fatal(err)
	}
	corruptOneBlob(t, ds.Dir())
	c.Reset(ScopeMemory) // force the next Get through the store

	v, err := c.Get(key, build)
	if err != nil || !bytes.Equal(v.([]byte), []byte("artifact")) {
		t.Fatalf("Get after corruption = %v, %v", v, err)
	}
	if builds != 2 {
		t.Fatalf("builds = %d, want 2 (initial + silent rebuild)", builds)
	}
	if st := ds.Stats(); st.Corrupt != 1 || st.Puts != 2 {
		t.Fatalf("store stats = %+v, want 1 corrupt, 2 puts", st)
	}
	// The rebuilt blob is good again: a third Get is a pure disk hit.
	c.Reset(ScopeMemory)
	if _, err := c.Get(key, build); err != nil {
		t.Fatal(err)
	}
	if builds != 2 {
		t.Fatalf("builds = %d after rebuild, want still 2", builds)
	}
}

func TestResetScopeAllClearsStore(t *testing.T) {
	ds := withTestStore(t, 0)
	c := NewCache("twin", bytesCodec{})
	key := testKey("scoped")
	if _, err := c.Get(key, func() (any, error) { return []byte("v"), nil }); err != nil {
		t.Fatal(err)
	}
	if !ds.Has(key) {
		t.Fatal("artifact not persisted")
	}
	c.Reset(ScopeMemory)
	if !ds.Has(key) {
		t.Fatal("ScopeMemory reset reached into the store")
	}
	c.Reset(ScopeAll)
	if ds.Has(key) {
		t.Fatal("ScopeAll reset left the store populated")
	}
}

// TestEnvVarNeverReadByLibrary guards the test-isolation contract: the
// build package must not pick up ATOM_CACHE_DIR on its own — only the
// atom CLI turns the env var into a -cache-dir default. A developer
// running tests with the variable exported must still get memory-only
// caches and an untouched cache directory.
func TestEnvVarNeverReadByLibrary(t *testing.T) {
	if ActiveStore() != nil {
		t.Skip("a store is configured; isolation contract not checkable")
	}
	dir := t.TempDir()
	t.Setenv("ATOM_CACHE_DIR", dir)

	c := NewCache("twin", bytesCodec{})
	if _, err := c.Get(testKey("env"), func() (any, error) { return []byte("v"), nil }); err != nil {
		t.Fatal(err)
	}
	if ActiveStore() != nil {
		t.Fatal("a store appeared from the environment")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("library wrote %d entries into $ATOM_CACHE_DIR", len(ents))
	}
}

func BenchmarkDiskStorePut(b *testing.B) {
	ds, err := OpenDiskStore(nil, b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	blob := bytes.Repeat([]byte("atom"), 4<<10) // 16 KiB
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := NewKey("bench-put").Int(int64(i)).Sum()
		if err := ds.Put(nil, k, blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiskStoreGet(b *testing.B) {
	ds, err := OpenDiskStore(nil, b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	blob := bytes.Repeat([]byte("atom"), 4<<10)
	const resident = 64
	keys := make([]Key, resident)
	for i := range keys {
		keys[i] = NewKey("bench-get").Int(int64(i)).Sum()
		if err := ds.Put(nil, keys[i], blob); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := ds.Get(nil, keys[i%resident]); !ok || err != nil {
			b.Fatalf("Get = %v, %v", ok, err)
		}
	}
}

// TestDiskStoreAdoption: two DiskStore handles over one directory stand
// in for two processes sharing a cache. A blob written through one is
// picked up by the other's Get — and that pickup is observable: the
// Adopted stat, the store.disk.adopt counter, and the adopted span
// attribute all record it.
func TestDiskStoreAdoption(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenDiskStore(nil, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenDiskStore(nil, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	k := testKey("adopt-me")
	if err := a.Put(nil, k, []byte("shared blob")); err != nil {
		t.Fatal(err)
	}

	trace := &obs.TraceSink{}
	ctx := obs.New(trace)
	got, ok, err := b.Get(ctx, k)
	if err != nil || !ok || !bytes.Equal(got, []byte("shared blob")) {
		t.Fatalf("Get = %q, %v, %v; want the blob a put", got, ok, err)
	}
	if st := b.Stats(); st.Adopted != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 adopted, 1 hit", st)
	}
	counts := map[string]int64{}
	for _, c := range ctx.Counters() {
		counts[c.Name] = c.Value
	}
	if counts["store.disk.adopt"] != 1 || counts["store.disk.hit"] != 1 {
		t.Fatalf("counters = %v, want store.disk.adopt=1 and store.disk.hit=1", counts)
	}
	adopted := false
	for _, sd := range trace.Spans() {
		for _, at := range sd.Attrs {
			if at.Key == "adopted" && at.Val == "true" {
				adopted = true
			}
		}
	}
	if !adopted {
		t.Fatal("no span carried the adopted attribute")
	}

	// A second Get is an ordinary indexed hit: no further adoption.
	if _, ok, _ := b.Get(nil, k); !ok {
		t.Fatal("second Get missed")
	}
	if st := b.Stats(); st.Adopted != 1 || st.Hits != 2 {
		t.Fatalf("stats after re-Get = %+v, want adoption still 1", st)
	}
	// The writer's own store never counts adoption for its own blobs.
	if _, ok, _ := a.Get(nil, k); !ok || a.Stats().Adopted != 0 {
		t.Fatalf("writer stats = %+v, want 0 adopted", a.Stats())
	}
}
