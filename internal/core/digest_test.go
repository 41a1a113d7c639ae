package core_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"atom/internal/aout"
	"atom/internal/core"
	"atom/internal/spec"
	"atom/internal/tools"
)

var update = flag.Bool("update", false, "rewrite testdata/outputs.sha256 from the current code")

const digestFile = "testdata/outputs.sha256"

// TestOutputDigests pins the bytes of every instrumented executable: each
// built-in tool on each suite program, under both save modes and both heap
// schemes (linked sbrks and a 1 MiB partition), must encode to the
// sha256 recorded in testdata/outputs.sha256. A change meant to keep the
// output the same proves it here; one meant to change it regenerates the
// file with `go test ./internal/core -run TestOutputDigests -update` and
// explains the new digests.
func TestOutputDigests(t *testing.T) {
	type job struct {
		key  string
		app  *aout.File
		tool core.Tool
		opts core.Options
	}
	var jobs []job
	for _, p := range spec.Suite() {
		app, err := spec.BuildCtx(nil, p.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range tools.Names() {
			tool, _ := tools.ByName(name)
			for _, mode := range []struct {
				name string
				mode core.SaveMode
			}{{"wrapper", core.SaveWrapper}, {"inanalysis", core.SaveInAnalysis}} {
				for _, heap := range []uint64{0, 1 << 20} {
					jobs = append(jobs, job{
						key:  fmt.Sprintf("%s/%s/%s/heap=%d", name, p.Name, mode.name, heap),
						app:  app,
						tool: tool,
						opts: core.Options{Mode: mode.mode, HeapOffset: heap},
					})
				}
			}
		}
	}

	got := make([]string, len(jobs))
	errs := make([]error, len(jobs))
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				k := i
				i++
				next.Unlock()
				if k >= len(jobs) {
					return
				}
				j := &jobs[k]
				res, err := core.InstrumentCtx(nil, j.app, j.tool, j.opts)
				if err != nil {
					errs[k] = err
					continue
				}
				sum := sha256.Sum256(res.Exe.Encode())
				got[k] = hex.EncodeToString(sum[:])
			}
		}()
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", jobs[k].key, err)
		}
	}

	if *update {
		var b strings.Builder
		for k, j := range jobs {
			fmt.Fprintf(&b, "%s  %s\n", got[k], j.key)
		}
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(jobs), digestFile)
		return
	}

	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, key, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestFile, sc.Text())
		}
		want[key] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(jobs) {
		t.Errorf("%s holds %d digests, the matrix has %d outputs", digestFile, len(want), len(jobs))
	}
	bad := 0
	for k, j := range jobs {
		w, ok := want[j.key]
		switch {
		case !ok:
			t.Errorf("%s: no recorded digest", j.key)
		case w != got[k]:
			bad++
			if bad <= 10 {
				t.Errorf("%s: sha256 %s, recorded %s", j.key, got[k], w)
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d outputs differ in all", bad)
	}
}
