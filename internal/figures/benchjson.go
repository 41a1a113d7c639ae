package figures

import (
	"encoding/json"
	"os"

	"atom/internal/build"
	"atom/internal/obs"
)

// Machine-readable run output (`atom -bench-json`), for dashboards and
// regression tracking. The schema is versioned so consumers can detect
// changes.
// Emission is deterministic: encoding/json renders struct fields in
// declaration order and map-free documents byte-identically, so two runs
// over identical measurements produce identical files.

// BenchPhases is a per-phase time breakdown in milliseconds, as measured
// by the observability layer (internal/obs) rather than ad-hoc timers.
// Phases that did not run are zero.
type BenchPhases struct {
	LiftMS  float64 `json:"lift_ms"`            // executable -> IR (cached encode, or blob decode when warm)
	BuildMS float64 `json:"build_ms"`           // tool-image compile + link
	PlanMS  float64 `json:"plan_ms"`            // instrumentation routine over the IR
	ApplyMS float64 `json:"apply_ms"`           // per-program rewrite + image stamp
	WriteMS float64 `json:"write_ms,omitempty"` // output serialization (cmd/atom only)
	// AnalyzeMS is time inside the static-analysis pass manager:
	// -analyze runs, and the analyze stages of -vet. Zero — and
	// omitted — when no pass ran (schema v6).
	AnalyzeMS float64 `json:"analyze_ms,omitempty"`
}

// BenchCacheStats is a snapshot of one artifact cache's activity.
// DiskHits (schema v4) counts lookups served by decoding a blob from the
// persistent store; it is zero — and omitted — without a -cache-dir.
type BenchCacheStats struct {
	Hits     uint64 `json:"hits"`
	DiskHits uint64 `json:"disk_hits,omitempty"`
	Misses   uint64 `json:"misses"`
	Builds   uint64 `json:"builds"`
	Errors   uint64 `json:"errors,omitempty"`
}

// CacheStats converts a cache snapshot into its JSON form.
func CacheStats(s build.Stats) BenchCacheStats {
	return BenchCacheStats{Hits: s.Hits, DiskHits: s.DiskHits, Misses: s.Misses, Builds: s.Builds, Errors: s.Errors}
}

// BenchStoreStats is a snapshot of the persistent store's activity
// (schema v4): blob-level traffic underneath the per-kind cache stats.
// Adopted (schema v5) counts blobs written by a concurrent process and
// picked up on Get.
type BenchStoreStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Puts    uint64 `json:"puts"`
	Corrupt uint64 `json:"corrupt,omitempty"`
	Adopted uint64 `json:"adopted,omitempty"`
	Evicted uint64 `json:"evicted,omitempty"`
	Blobs   int    `json:"blobs"`
	Bytes   int64  `json:"bytes"`
}

// StoreStats converts a store snapshot into its JSON form.
func StoreStats(s build.StoreStats) BenchStoreStats {
	return BenchStoreStats{
		Hits: s.Hits, Misses: s.Misses, Puts: s.Puts,
		Corrupt: s.Corrupt, Adopted: s.Adopted, Evicted: s.Evicted,
		Blobs: s.Blobs, Bytes: s.Bytes,
	}
}

// RunDoc is the document `atom -t tool -bench-json out.json prog.x ...`
// writes: one instrument-mode run with its per-phase breakdown and cache
// statistics.
type RunDoc struct {
	Schema   string   `json:"schema"` // "atom-run/v7"
	Tool     string   `json:"tool"`
	Programs []string `json:"programs"`
	Failed   []string `json:"failed,omitempty"`
	// VMMinstS is the VM's retirement rate for -run invocations, in
	// millions of instructions per second of wall time (schema v7).
	// Zero — and omitted — for instrument-only runs.
	VMMinstS float64         `json:"vm_minst_s,omitempty"`
	Phases   BenchPhases     `json:"phases"`
	Inline   *BenchInline    `json:"inline,omitempty"`
	Image    BenchCacheStats `json:"image_cache"`
	Objects  BenchCacheStats `json:"object_cache"`
	IR       BenchCacheStats `json:"ir_cache"`
	// Disk is the persistent store's traffic; nil without a -cache-dir
	// (schema v4).
	Disk     *BenchStoreStats `json:"disk_store,omitempty"`
	Counters []BenchCounter   `json:"counters,omitempty"`
	Hists    []BenchHistogram `json:"histograms,omitempty"`
}

// BenchInline summarizes the analysis-routine inliner's work across the
// run (schema v2): how many call sites received a spliced body and how
// many still call through a wrapper. The atom.inline_body_len histogram
// in Hists carries the spliced-body size distribution.
type BenchInline struct {
	SitesInlined int64 `json:"sites_inlined"`
	SitesCalled  int64 `json:"sites_called"`
}

// BenchCounter is one named pipeline counter (sorted by name upstream).
type BenchCounter struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// BenchHistogram is one named log-bucket distribution — per-program
// apply time, per-run profiler sample depth — as aggregated by
// internal/obs. Buckets are fixed powers of two, so identical runs emit
// identical documents.
type BenchHistogram struct {
	Name    string        `json:"name"`
	Count   uint64        `json:"count"`
	Sum     int64         `json:"sum"`
	Min     int64         `json:"min"`
	Max     int64         `json:"max"`
	Buckets []BenchBucket `json:"buckets,omitempty"`
}

// BenchBucket is one non-empty histogram bucket: Count observations in
// the value range [Lo, Hi).
type BenchBucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// Histograms converts obs histogram snapshots into their JSON form.
func Histograms(hs []obs.Hist) []BenchHistogram {
	out := make([]BenchHistogram, 0, len(hs))
	for _, h := range hs {
		bh := BenchHistogram{Name: h.Name, Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max}
		for _, b := range h.Buckets {
			bh.Buckets = append(bh.Buckets, BenchBucket{Lo: b.Lo, Hi: b.Hi, Count: b.Count})
		}
		out = append(out, bh)
	}
	return out
}

// WriteRunJSON writes an instrument-mode run document. Schema history:
// v1 had no inline block; v2 added it; v3 added the lift phase (lift_ms)
// and the IR-blob cache block (ir_cache); v4 added disk_hits to the
// cache blocks and the disk_store block for -cache-dir runs, and emitted
// the legacy cache.*/ircache.* counter names beside the unified
// store.<kind>.* names; v5 drops the legacy aliases — store.<kind>.*
// is the only counter family — and adds the adopted field to
// disk_store; v6 adds analyze_ms to phases, covering -analyze and the
// -vet analyze stages; v7 adds vm_minst_s, the VM retirement rate of
// -run invocations.
func WriteRunJSON(path string, doc RunDoc) error {
	doc.Schema = "atom-run/v7"
	return writeJSON(path, doc)
}

func writeJSON(path string, doc any) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
