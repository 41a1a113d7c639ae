package figures_test

import (
	"testing"

	"atom/internal/core"
	"atom/internal/figures"
	"atom/internal/tools"
)

// TestRatioForShape checks the shape of Figure 6 on queens: no tool
// speeds the program up, cache is dearer than the tools that fire less
// often, and the rare-event tools stay near 1. Every tool also has a row
// in both paper reference tables.
func TestRatioForShape(t *testing.T) {
	ratio := map[string]float64{}
	for _, tname := range tools.Names() {
		if _, ok := figures.PaperFig5[tname]; !ok {
			t.Errorf("%s missing from PaperFig5", tname)
		}
		if _, ok := figures.PaperFig6[tname]; !ok {
			t.Errorf("%s missing from PaperFig6", tname)
		}
		r, err := figures.RatioFor(tname, "queens", core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r < 1.0 {
			t.Errorf("%s: ratio %.2f < 1 (instrumentation cannot speed a program up)", tname, r)
		}
		ratio[tname] = r
	}
	for _, other := range []string{"branch", "dyninst", "inline", "io", "malloc", "syscall"} {
		if ratio["cache"] <= ratio[other] {
			t.Errorf("cache (%.2f) not above %s (%.2f)", ratio["cache"], other, ratio[other])
		}
	}
	for _, cheap := range []string{"io", "syscall", "malloc", "inline"} {
		if ratio[cheap] > 1.5 {
			t.Errorf("%s ratio %.2f, want near 1.0 on a compute-bound program", cheap, ratio[cheap])
		}
	}
}

func TestRatioForErrors(t *testing.T) {
	if _, err := figures.RatioFor("nope", "queens", core.Options{}); err == nil {
		t.Error("unknown tool accepted")
	}
	if _, err := figures.RatioFor("cache", "nope", core.Options{}); err == nil {
		t.Error("unknown program accepted")
	}
}
