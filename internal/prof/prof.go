// Package prof is a deterministic sampling profiler for programs
// executed under internal/vm — gprof-style statistical profiling (Graham
// et al.) layered on ATOM's deterministic machine.
//
// The machine drives the profiler through vm.Probe: a PC sample every N
// retired instructions, and a call/return event for every bsr/jsr/ret,
// from which the profiler maintains a lightweight shadow call stack.
// Because the period is counted in retired instructions rather than
// time, two runs of the same program produce byte-identical profiles.
//
// Attribution honors ATOM's pristine-behavior contract: every sampled PC
// is translated back through the static new->original PC map
// (om.Layout.OldAddr via Options.MapPC) and resolved against the
// ORIGINAL procedure ranges, so reports are in the application's own
// terms. Samples landing in injected code — spliced call sites, register
// wrappers, the analysis image — have no original PC and are attributed
// to a synthetic "[analysis]" frame, making tool overhead visible
// instead of smearing it across application procedures.
//
// Outputs: a flat+cumulative text report modeled on the paper's prof
// tool (WriteFlat), and a folded-stack file consumable by flamegraph
// tooling (WriteFolded).
package prof

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"atom/internal/aout"
	"atom/internal/obs"
	"atom/internal/om"
	"atom/internal/vm"
)

// Frame names for samples that resolve to no original procedure.
const (
	// AnalysisFrame attributes injected instrumentation: spliced call
	// sites, wrappers, and the analysis image.
	AnalysisFrame = "[analysis]"
	// UnknownFrame attributes original PCs covered by no procedure range
	// (it should not occur for well-formed executables).
	UnknownFrame = "[unknown]"
)

const (
	frameAnalysis int32 = -1
	frameUnknown  int32 = -2

	// maxStackDepth bounds the shadow stack; deeper recursion is counted
	// (so returns stay balanced) but not recorded frame by frame.
	maxStackDepth = 512
)

// Options parameterize a profiler.
type Options struct {
	// Period is the sampling period in retired instructions. Zero selects
	// 10000. Attach copies it into the vm.Config; it must match the
	// machine's SamplePeriod for the report header to be truthful.
	Period uint64
	// Procs are the procedure ranges samples attribute to, in ORIGINAL
	// addresses (core.Result.PCMap.OrigProcs() for instrumented programs,
	// ProcsFromSymbols for plain ones). Need not be sorted.
	Procs []om.ProcRange
	// MapPC translates an executing (new) PC to its original PC —
	// om.Layout.OldAddr for instrumented programs. PCs it rejects are
	// attributed to AnalysisFrame. Nil means the identity map: every PC
	// is already an original PC (uninstrumented programs).
	MapPC func(uint64) (uint64, bool)
	// Obs, when non-nil, receives a "prof.sample_depth" histogram
	// observation (the folded stack depth) per sample and a
	// "prof.samples" counter at Flush.
	Obs *obs.Ctx
	// KeepSamples records every individual sample (tests and debugging;
	// memory grows with the run).
	KeepSamples bool
}

// Sample is one recorded PC sample (Options.KeepSamples).
type Sample struct {
	PC     uint64 // executing (new) PC
	OrigPC uint64 // original PC; zero when Frame is AnalysisFrame
	Frame  string // attributed procedure name, AnalysisFrame, or UnknownFrame
}

// Profiler implements vm.Probe. It is not safe for concurrent use; each
// machine gets its own.
type Profiler struct {
	period uint64
	procs  []om.ProcRange
	mapPC  func(uint64) (uint64, bool)
	obs    *obs.Ctx
	keep   bool

	stack    []int32 // frame ids of calls not yet returned from
	overflow uint64  // calls beyond maxStackDepth

	nsamples uint64
	maxDepth int
	flat     map[int32]uint64
	cum      map[int32]uint64
	folded   map[string]uint64
	samples  []Sample

	frames []int32 // per-sample scratch, reused across samples
}

// New builds a profiler.
func New(o Options) *Profiler {
	if o.Period == 0 {
		o.Period = 10000
	}
	procs := append([]om.ProcRange(nil), o.Procs...)
	sort.Slice(procs, func(i, j int) bool { return procs[i].Start < procs[j].Start })
	return &Profiler{
		period: o.Period,
		procs:  procs,
		mapPC:  o.MapPC,
		obs:    o.Obs,
		keep:   o.KeepSamples,
		flat:   map[int32]uint64{},
		cum:    map[int32]uint64{},
		folded: map[string]uint64{},
	}
}

// ProcsFromSymbols derives procedure ranges from an executable's function
// symbols — the identity-map attribution table for uninstrumented
// programs.
func ProcsFromSymbols(syms []aout.Symbol) []om.ProcRange {
	var out []om.ProcRange
	for _, s := range syms {
		if s.Kind != aout.SymFunc || s.Section != aout.SecText {
			continue
		}
		out = append(out, om.ProcRange{Name: s.Name, Start: s.Value, End: s.Value + s.Size})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Attach wires the profiler into a machine configuration.
func (p *Profiler) Attach(cfg *vm.Config) {
	cfg.Probe = p
	cfg.SamplePeriod = p.period
}

// Period returns the sampling period in retired instructions.
func (p *Profiler) Period() uint64 { return p.period }

// TotalSamples returns how many samples were recorded.
func (p *Profiler) TotalSamples() uint64 { return p.nsamples }

// Samples returns the recorded individual samples (empty unless
// Options.KeepSamples was set).
func (p *Profiler) Samples() []Sample { return p.samples }

// attribute resolves an executing PC to a frame id and original PC.
func (p *Profiler) attribute(pc uint64) (int32, uint64) {
	orig := pc
	if p.mapPC != nil {
		o, ok := p.mapPC(pc)
		if !ok {
			return frameAnalysis, 0
		}
		orig = o
	}
	i := sort.Search(len(p.procs), func(i int) bool { return p.procs[i].Start > orig }) - 1
	if i >= 0 && orig < p.procs[i].End {
		return int32(i), orig
	}
	return frameUnknown, orig
}

// frameName renders a frame id.
func (p *Profiler) frameName(id int32) string {
	switch id {
	case frameAnalysis:
		return AnalysisFrame
	case frameUnknown:
		return UnknownFrame
	default:
		return p.procs[id].Name
	}
}

// Call implements vm.Probe: push the callee's frame.
func (p *Profiler) Call(pc, target uint64) {
	if len(p.stack) >= maxStackDepth {
		p.overflow++
		return
	}
	id, _ := p.attribute(target)
	p.stack = append(p.stack, id)
}

// Return implements vm.Probe: pop the innermost unreturned call. A ret
// with no matching call (longjmp-style unwinding, or a program that
// returns out of its entry frame) is ignored.
func (p *Profiler) Return(pc, target uint64) {
	switch {
	case p.overflow > 0:
		p.overflow--
	case len(p.stack) > 0:
		p.stack = p.stack[:len(p.stack)-1]
	}
}

// Sample implements vm.Probe: fold the shadow stack plus the sampled
// leaf into the profile.
func (p *Profiler) Sample(pc uint64) {
	leaf, orig := p.attribute(pc)
	p.nsamples++
	p.flat[leaf]++
	if p.keep {
		p.samples = append(p.samples, Sample{PC: pc, OrigPC: orig, Frame: p.frameName(leaf)})
	}

	// Fold the stack: shadow frames root-first, then the leaf unless it
	// is already on top (samples inside a procedure entered by call).
	// Consecutive identical AnalysisFrame entries collapse — an inserted
	// call site, its wrapper, and the analysis routine are one injected
	// region, not three levels of application structure.
	frames := p.frames[:0]
	for _, id := range p.stack {
		if id == frameAnalysis && len(frames) > 0 && frames[len(frames)-1] == frameAnalysis {
			continue
		}
		frames = append(frames, id)
	}
	if n := len(frames); n == 0 || frames[n-1] != leaf {
		frames = append(frames, leaf)
	}
	p.frames = frames

	if len(frames) > p.maxDepth {
		p.maxDepth = len(frames)
	}
	p.obs.Observe("prof.sample_depth", int64(len(frames)))

	var key strings.Builder
	seen := make(map[int32]bool, len(frames))
	for i, id := range frames {
		if i > 0 {
			key.WriteByte(';')
		}
		key.WriteString(p.frameName(id))
		if !seen[id] {
			seen[id] = true
			p.cum[id]++
		}
	}
	p.folded[key.String()]++
}

// Flush reports summary counters to the obs context (once per run; a
// no-op when Options.Obs is nil).
func (p *Profiler) Flush() {
	p.obs.Count("prof.samples", int64(p.nsamples))
}

// flatRow is one aggregated report row.
type flatRow struct {
	name      string
	flat, cum uint64
}

// rows returns the per-procedure aggregates, sorted by flat samples
// descending (ties: cumulative descending, then name ascending) — the
// deterministic order WriteFlat renders.
func (p *Profiler) rows() []flatRow {
	ids := make(map[int32]bool, len(p.flat)+len(p.cum))
	for id := range p.flat {
		ids[id] = true
	}
	for id := range p.cum {
		ids[id] = true
	}
	out := make([]flatRow, 0, len(ids))
	for id := range ids {
		out = append(out, flatRow{name: p.frameName(id), flat: p.flat[id], cum: p.cum[id]})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.flat != b.flat {
			return a.flat > b.flat
		}
		if a.cum != b.cum {
			return a.cum > b.cum
		}
		return a.name < b.name
	})
	return out
}

// WriteFlat renders the flat+cumulative report, modeled on the paper's
// prof tool output ("procedure / insts") with sampling columns: flat is
// samples whose PC landed in the procedure, cumulative counts samples
// with the procedure anywhere on the folded stack. Byte-identical across
// identical runs.
func (p *Profiler) WriteFlat(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# atom prof: period=%d samples=%d (~%d instructions) max-depth=%d\n",
		p.period, p.nsamples, p.nsamples*p.period, p.maxDepth)
	b.WriteString("#  %total     flat      cum  procedure\n")
	for _, r := range p.rows() {
		pct := 0.0
		if p.nsamples > 0 {
			pct = 100 * float64(r.flat) / float64(p.nsamples)
		}
		fmt.Fprintf(&b, "%8.2f %8d %8d  %s\n", pct, r.flat, r.cum, r.name)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteFolded renders the profile in folded-stack form — one line per
// distinct stack, "frame;frame;leaf count" — the input format of
// flamegraph tooling. Lines are sorted by stack, so the output is
// byte-identical across identical runs.
func (p *Profiler) WriteFolded(w io.Writer) error {
	keys := make([]string, 0, len(p.folded))
	for k := range p.folded {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %d\n", k, p.folded[k])
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ValidateFolded checks folded-stack syntax: every line must be
// "frame(;frame)* count" with a positive count and non-empty frames.
// It returns the number of stacks.
func ValidateFolded(data []byte) (int, error) {
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) == 1 && lines[0] == "" {
		return 0, fmt.Errorf("prof: folded profile is empty")
	}
	for i, ln := range lines {
		sp := strings.LastIndexByte(ln, ' ')
		if sp <= 0 {
			return 0, fmt.Errorf("prof: folded line %d: no count: %q", i+1, ln)
		}
		var n uint64
		if _, err := fmt.Sscanf(ln[sp+1:], "%d", &n); err != nil || n == 0 {
			return 0, fmt.Errorf("prof: folded line %d: bad count %q", i+1, ln[sp+1:])
		}
		for _, f := range strings.Split(ln[:sp], ";") {
			if f == "" {
				return 0, fmt.Errorf("prof: folded line %d: empty frame: %q", i+1, ln)
			}
		}
	}
	return len(lines), nil
}
