package spec_test

import (
	"sync"
	"testing"

	"atom/internal/aout"
	"atom/internal/spec"
)

// TestBuildConcurrent: concurrent Build calls are safe, share one
// compile per program (singleflight memoization — the global build lock
// is gone), and distinct programs may build in parallel.
func TestBuildConcurrent(t *testing.T) {
	names := []string{"espresso", "li", "eqntott", "compress"}
	const callers = 4
	var wg sync.WaitGroup
	got := make([][]*aout.File, len(names))
	for i := range got {
		got[i] = make([]*aout.File, callers)
	}
	for i, name := range names {
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(i, c int, name string) {
				defer wg.Done()
				exe, err := spec.BuildCtx(nil, name)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				got[i][c] = exe
			}(i, c, name)
		}
	}
	wg.Wait()
	for i, name := range names {
		for c := 1; c < callers; c++ {
			if got[i][c] != got[i][0] {
				t.Errorf("%s: caller %d got a different build than caller 0", name, c)
			}
		}
	}
}
