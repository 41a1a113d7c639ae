package build

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"atom/internal/obs"
)

// bytesCodec is the identity codec: the artifacts are byte slices.
type bytesCodec struct{}

func (bytesCodec) Marshal(v []byte) ([]byte, error) { return v, nil }

func (bytesCodec) Unmarshal(blob []byte) ([]byte, error) { return blob, nil }

func testKey(s string) Key { return NewKey("store-test").String(s).Sum() }

// openTestStore opens a fresh DiskStore over dir.
func openTestStore(t *testing.T, dir string) *DiskStore {
	t.Helper()
	ds, err := OpenDiskStore(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// withTestStore installs a fresh DiskStore in a temp dir as the
// process-wide store and undoes it on cleanup.
func withTestStore(t *testing.T) *DiskStore {
	t.Helper()
	ds := openTestStore(t, t.TempDir())
	prev := SwapStore(ds)
	t.Cleanup(func() { SwapStore(prev) })
	return ds
}

// mustGet asserts that key reads back as want.
func mustGet(t *testing.T, ctx *obs.Ctx, ds *DiskStore, key Key, want string) {
	t.Helper()
	if got, ok := ds.Get(ctx, key); !ok || string(got) != want {
		t.Fatalf("Get = %q, %v; want %q", got, ok, want)
	}
}

// diskCounts is what a stage context counted of the store's activity.
type diskCounts struct{ hit, miss, put, corrupt int64 }

func countsOf(ctx *obs.Ctx) diskCounts {
	m := ctx.Metrics()
	return diskCounts{
		hit:     m.Counter("store.disk.hit"),
		miss:    m.Counter("store.disk.miss"),
		put:     m.Counter("store.disk.put"),
		corrupt: m.Counter("store.disk.corrupt"),
	}
}

func TestDiskStorePutGetReopen(t *testing.T) {
	dir := t.TempDir()
	ds := openTestStore(t, dir)
	ctx := obs.New()
	k1, k2 := testKey("one"), testKey("two")
	for _, kv := range []struct {
		k Key
		v string
	}{{k1, "first blob"}, {k2, "second blob"}, {k1, "first blob"}} {
		if err := ds.Put(ctx, kv.k, []byte(kv.v)); err != nil {
			t.Fatal(err)
		}
	}
	mustGet(t, ctx, ds, k1, "first blob")
	// Put always writes; re-putting a key replaces its file.
	if c := countsOf(ctx); c.put != 3 || c.hit != 1 {
		t.Fatalf("counts = %+v, want 3 puts, 1 hit", c)
	}

	// A second open reads what the first wrote: the files are the index.
	mustGet(t, nil, openTestStore(t, dir), k2, "second blob")
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
	ds := openTestStore(t, dir)
	k := testKey("corrupt")
	if err := ds.Put(nil, k, []byte("soon to rot")); err != nil {
		t.Fatal(err)
	}
	path := corruptOneBlob(t, dir)

	ctx := obs.New()
	if _, ok := ds.Get(ctx, k); ok {
		t.Fatal("Get of corrupt blob hit; want a miss")
	}
	if c := countsOf(ctx); c.corrupt != 1 || c.miss != 1 {
		t.Fatalf("counts = %+v, want 1 corrupt, 1 miss", c)
	}
	// The bad file is gone, and a re-put reads back.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt blob file still present (stat err %v)", err)
	}
	if err := ds.Put(nil, k, []byte("soon to rot")); err != nil {
		t.Fatal(err)
	}
	mustGet(t, nil, ds, k, "soon to rot")
}

func TestDiskStoreTruncatedBlobQuarantined(t *testing.T) {
	ds := openTestStore(t, t.TempDir())
	k := testKey("truncated")
	blob := []byte("a blob long enough to truncate meaningfully")
	if err := ds.Put(nil, k, blob); err != nil {
		t.Fatal(err)
	}
	path := ds.blobPath(k)
	if err := os.Truncate(path, int64(blobHeaderSize+3)); err != nil {
		t.Fatal(err)
	}
	ctx := obs.New()
	if _, ok := ds.Get(ctx, k); ok {
		t.Fatal("Get of truncated blob hit; want a miss")
	}
	if c := countsOf(ctx); c.corrupt != 1 {
		t.Fatalf("counts = %+v, want 1 corrupt", c)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("truncated blob file still present (stat err %v)", err)
	}
	if err := ds.Put(nil, k, blob); err != nil {
		t.Fatal(err)
	}
	mustGet(t, nil, ds, k, string(blob))
}

// TestDiskStoreCrashBeforeRename simulates a writer killed between the
// temp write and the atomic rename: the leftover temp file must never be
// visible as a blob, and the next open sweeps it away.
func TestDiskStoreCrashBeforeRename(t *testing.T) {
	dir := t.TempDir()
	ds := openTestStore(t, dir)
	k := testKey("crashed")
	// What Put writes before the rename, dropped mid-flight.
	partial := append([]byte(blobMagic), []byte("partial-write-no-digest")...)
	if err := os.WriteFile(filepath.Join(dir, "tmp", "blob-crashed"), partial, 0o666); err != nil {
		t.Fatal(err)
	}
	ctx := obs.New()
	if _, ok := ds.Get(ctx, k); ok {
		t.Fatal("in-flight temp file visible as a blob")
	}
	if c := countsOf(ctx); c.corrupt != 0 {
		t.Fatalf("counts = %+v, want no corruption", c)
	}

	openTestStore(t, dir)
	ents, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil || len(ents) != 0 {
		t.Fatalf("tmp/ has %d leftovers after reopen (err %v), want 0", len(ents), err)
	}
}

// TestCacheServesStoreAfterReset: a build persists its blob, and after
// Reset (what a fresh process sees against the same directory) the next
// Get is served by the store, not a rebuild.
func TestCacheServesStoreAfterReset(t *testing.T) {
	ds := withTestStore(t)
	c := NewCache[[]byte]("twin", bytesCodec{})
	key := testKey("twin-artifact")
	if _, err := c.GetCtx(nil, "", key, func(*obs.Ctx) ([]byte, error) { return []byte("built once"), nil }); err != nil {
		t.Fatal(err)
	}
	mustGet(t, nil, ds, key, "built once")

	c.Reset()
	v, err := c.GetCtx(nil, "", key, func(*obs.Ctx) ([]byte, error) {
		t.Error("rebuild ran despite a warm store")
		return nil, nil
	})
	if err != nil || !bytes.Equal(v, []byte("built once")) {
		t.Fatalf("disk-layer Get = %q, %v", v, err)
	}
	if st := c.Stats(); st.DiskHits != 1 || st.Builds != 0 {
		t.Fatalf("stats = %+v, want 1 disk hit, 0 builds", st)
	}
}

// TestCacheRebuildsCorruptStoreBlob: end-to-end over the layered cache —
// a bit-flipped blob under the store must be deleted and transparently
// rebuilt, with no error surfacing to the caller.
func TestCacheRebuildsCorruptStoreBlob(t *testing.T) {
	ds := withTestStore(t)
	c := NewCache[[]byte]("twin", bytesCodec{})
	key := testKey("rot")
	builds := 0
	build := func(*obs.Ctx) ([]byte, error) { builds++; return []byte("artifact"), nil }

	ctx := obs.New()
	if _, err := c.GetCtx(ctx, "", key, build); err != nil {
		t.Fatal(err)
	}
	corruptOneBlob(t, ds.dir)
	c.Reset() // force the next Get through the store

	v, err := c.GetCtx(ctx, "", key, build)
	if err != nil || !bytes.Equal(v, []byte("artifact")) {
		t.Fatalf("Get after corruption = %v, %v", v, err)
	}
	if builds != 2 {
		t.Fatalf("builds = %d, want 2 (initial + silent rebuild)", builds)
	}
	if n := countsOf(ctx); n.corrupt != 1 || n.put != 2 {
		t.Fatalf("store counts = %+v, want 1 corrupt, 2 puts", n)
	}
	// The rebuilt blob is good again: a third Get is a pure disk hit.
	c.Reset()
	if _, err := c.GetCtx(nil, "", key, build); err != nil {
		t.Fatal(err)
	}
	if builds != 2 {
		t.Fatalf("builds = %d after rebuild, want still 2", builds)
	}
}

// rejectBadCodec is bytesCodec, except that Unmarshal rejects the payload
// "bad": a blob that passes the store's digest check but not its codec.
type rejectBadCodec struct{ bytesCodec }

func (rejectBadCodec) Unmarshal(blob []byte) ([]byte, error) {
	if string(blob) == "bad" {
		return nil, errors.New("undecodable payload")
	}
	return blob, nil
}

// TestCacheReplacesUndecodableBlob: a verified blob its codec rejects (a
// format from another era) is rebuilt once, and the rebuild's Put
// replaces it, so later fresh lookups are disk hits instead of a rebuild
// in every process.
func TestCacheReplacesUndecodableBlob(t *testing.T) {
	ds := withTestStore(t)
	key := testKey("undecodable")
	if err := ds.Put(nil, key, []byte("bad")); err != nil {
		t.Fatal(err)
	}
	c := NewCache[[]byte]("twin", rejectBadCodec{})
	builds := 0
	for i := 0; i < 3; i++ {
		c.Reset() // each lookup is a fresh process against the directory
		v, err := c.GetCtx(nil, "", key, func(*obs.Ctx) ([]byte, error) { builds++; return []byte("good"), nil })
		if err != nil || string(v) != "good" {
			t.Fatalf("lookup %d = %v, %v", i, v, err)
		}
	}
	if builds != 1 {
		t.Fatalf("builds = %d over 3 fresh lookups, want 1", builds)
	}
	mustGet(t, nil, ds, key, "good")
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

	c := NewCache[[]byte]("twin", bytesCodec{})
	if _, err := c.GetCtx(nil, "", testKey("env"), func(*obs.Ctx) ([]byte, error) { return []byte("v"), nil }); err != nil {
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
	ds, err := OpenDiskStore(nil, b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
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
	ds, err := OpenDiskStore(nil, b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
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
		if _, ok := ds.Get(nil, keys[i%resident]); !ok {
			b.Fatal("Get missed")
		}
	}
}

// TestDiskStoreAdoption: two DiskStore handles over one directory stand
// in for two processes sharing a cache. A blob put through one is
// returned by the other's Get.
func TestDiskStoreAdoption(t *testing.T) {
	dir := t.TempDir()
	a, b := openTestStore(t, dir), openTestStore(t, dir)
	k := testKey("adopt-me")
	if err := a.Put(nil, k, []byte("shared blob")); err != nil {
		t.Fatal(err)
	}
	mustGet(t, nil, b, k, "shared blob")
}

// FuzzVerifyBlobFile: the blob-file reader accepts exactly the files
// whose payload matches the digest in their header, and rejects every
// other byte string with an error — never a panic.
func FuzzVerifyBlobFile(f *testing.F) {
	good := func(payload string) []byte {
		sum := sha256.Sum256([]byte(payload))
		return append(append([]byte(blobMagic), sum[:]...), payload...)
	}
	f.Add(good(""))
	f.Add(good("payload"))
	f.Add(good("payload")[:blobHeaderSize+3])
	f.Add([]byte(blobMagic))
	f.Add([]byte("atomblb0"))
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := verifyBlobFile(data)
		if err != nil {
			return
		}
		if !bytes.Equal(good(string(payload)), data) {
			t.Fatalf("accepted a file that is not magic+digest+payload: %x", data)
		}
	})
}
