package build

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"atom/internal/obs"
)

func TestKeyFieldBoundaries(t *testing.T) {
	a := NewKey("k").String("ab").String("c").Sum()
	b := NewKey("k").String("a").String("bc").Sum()
	if a == b {
		t.Fatal("length prefixing failed: ab|c collides with a|bc")
	}
	if NewKey("k").String("x").Sum() == NewKey("j").String("x").Sum() {
		t.Fatal("kind not mixed into key")
	}
	if NewKey("k").Int(1).Sum() == NewKey("k").Int(2).Sum() {
		t.Fatal("ints not mixed into key")
	}
	if NewKey("k").Sum() != NewKey("k").Sum() {
		t.Fatal("key not deterministic")
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache[int]("test", nil)
	calls := 0
	k1 := NewKey("t").String("one").Sum()
	k2 := NewKey("t").String("two").Sum()
	get := func(k Key) int {
		v, err := c.GetCtx(nil, "", k, func(*obs.Ctx) (int, error) { calls++; return calls, nil })
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if get(k1) != 1 || get(k1) != 1 {
		t.Fatal("same key did not return the cached artifact")
	}
	if get(k2) != 2 {
		t.Fatal("distinct key did not build")
	}
	s := c.Stats()
	if s.Misses != 2 || s.Builds != 2 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want 2 misses, 2 builds, 1 hit", s)
	}
}

func TestCacheErrorNotLatched(t *testing.T) {
	c := NewCache[string]("test", nil)
	k := NewKey("t").String("flaky").Sum()
	boom := errors.New("transient")
	fail := true
	build := func(*obs.Ctx) (string, error) {
		if fail {
			return "", boom
		}
		return "ok", nil
	}
	if _, err := c.GetCtx(nil, "", k, build); !errors.Is(err, boom) {
		t.Fatalf("first build err = %v, want %v", err, boom)
	}
	if _, err := c.GetCtx(nil, "", k, build); !errors.Is(err, boom) {
		t.Fatalf("second build err = %v, want %v (retried, still failing)", err, boom)
	}
	fail = false
	v, err := c.GetCtx(nil, "", k, build)
	if err != nil || v != "ok" {
		t.Fatalf("after failure cleared: v=%q err=%v, want ok", v, err)
	}
	s := c.Stats()
	if s.Errors != 2 || s.Builds != 1 {
		t.Fatalf("stats = %+v, want 2 errors then 1 build", s)
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewCache[int64]("test", nil)
	k := NewKey("t").String("shared").Sum()
	var builds atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	vals := make([]int64, 16)
	for i := range vals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.GetCtx(nil, "", k, func(*obs.Ctx) (int64, error) {
				<-release
				return builds.Add(1), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			vals[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("build ran %d times, want 1", builds.Load())
	}
	for i, v := range vals {
		if v != 1 {
			t.Fatalf("goroutine %d saw %d, want 1", i, v)
		}
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache[int]("test", nil)
	k := NewKey("t").String("x").Sum()
	n := 0
	build := func(*obs.Ctx) (int, error) { n++; return n, nil }
	c.GetCtx(nil, "", k, build)
	c.Reset()
	v, _ := c.GetCtx(nil, "", k, build)
	if v != 2 {
		t.Fatalf("after Reset got %d, want rebuild (2)", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

// TestCacheWaitersShareFailure: lookups that join a failing build all
// get its error, and none latches it: the next lookup builds again.
func TestCacheWaitersShareFailure(t *testing.T) {
	c := NewCache[int]("test", nil)
	k := NewKey("t").String("shared-failure").Sum()
	boom := errors.New("transient")
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.GetCtx(nil, "", k, func(*obs.Ctx) (int, error) {
				<-release
				return 0, boom
			})
			if !errors.Is(err, boom) {
				t.Errorf("err = %v, want %v", err, boom)
			}
		}()
	}
	close(release)
	wg.Wait()
	if s := c.Stats(); s.Errors == 0 || s.Builds != 0 || c.Len() != 0 {
		t.Fatalf("stats = %+v, Len = %d; want errors, no builds, nothing cached", s, c.Len())
	}
	v, err := c.GetCtx(nil, "", k, func(*obs.Ctx) (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("after the failure: %d, %v; want a fresh build", v, err)
	}
}
