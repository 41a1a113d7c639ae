package rtl_test

import (
	"errors"
	"strings"
	"testing"

	"atom/internal/build"
	"atom/internal/rtl"
)

// TestRuntimeBuildRetriesAfterFailure: a failed runtime-library build
// must not be latched (the sync.Once this replaced returned the first
// error forever). A later call retries and succeeds.
func TestRuntimeBuildRetriesAfterFailure(t *testing.T) {
	rtl.ResetRuntimeCache()
	boom := errors.New("transient build failure")
	rtl.SetBuildFault(func() error { return boom })
	defer rtl.SetBuildFault(nil)

	if _, err := rtl.LibCtx(nil); !errors.Is(err, boom) {
		t.Fatalf("faulted build: err = %v, want %v", err, boom)
	}
	if _, err := rtl.HeadersCtx(nil); !errors.Is(err, boom) {
		t.Fatalf("faulted build (second call): err = %v, want %v", err, boom)
	}

	rtl.SetBuildFault(nil)
	lib, err := rtl.LibCtx(nil)
	if err != nil {
		t.Fatalf("build after fault cleared: %v", err)
	}
	if lib == nil || len(lib.Members) == 0 {
		t.Fatal("rebuilt library is empty")
	}
	if _, err := rtl.Crt0Ctx(nil); err != nil {
		t.Fatalf("Crt0 after recovery: %v", err)
	}
}

// TestBuildObjectsMemoized: compiling the same sources twice returns the
// shared objects without recompiling; different sources recompile.
func TestBuildObjectsMemoized(t *testing.T) {
	rtl.ResetObjectCache(build.ScopeMemory)
	src := map[string]string{"m.c": "int f() { return 41; }\n"}
	a, err := rtl.BuildObjectsCtx(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rtl.BuildObjectsCtx(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
		t.Error("identical sources did not share compiled objects")
	}
	s := rtl.ObjectCacheStats()
	if s.Builds != 1 || s.Hits != 1 {
		t.Errorf("stats = %+v, want 1 build and 1 hit", s)
	}
	src2 := map[string]string{"m.c": "int f() { return 42; }\n"}
	c, err := rtl.BuildObjectsCtx(nil, src2)
	if err != nil {
		t.Fatal(err)
	}
	if c[0] == a[0] {
		t.Error("changed source returned the stale object")
	}
	if s := rtl.ObjectCacheStats(); s.Builds != 2 {
		t.Errorf("changed source did not recompile: stats = %+v", s)
	}
}

// TestBuildObjectsCompileErrorNotLatched: a source error is reported on
// every attempt and a fixed source then compiles.
func TestBuildObjectsCompileErrorNotLatched(t *testing.T) {
	bad := map[string]string{"b.c": "int f( {\n"}
	for i := 0; i < 2; i++ {
		if _, err := rtl.BuildObjectsCtx(nil, bad); err == nil {
			t.Fatalf("attempt %d: compile of malformed source succeeded", i)
		} else if strings.Contains(err.Error(), "latched") {
			t.Fatal(err)
		}
	}
	good := map[string]string{"b.c": "int f() { return 0; }\n"}
	if _, err := rtl.BuildObjectsCtx(nil, good); err != nil {
		t.Fatalf("fixed source: %v", err)
	}
}
