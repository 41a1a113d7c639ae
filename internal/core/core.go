// Package core implements ATOM itself: the tool-building framework from
// "ATOM: A System for Building Customized Program Analysis Tools"
// (Srivastava & Eustace, PLDI 1994).
//
// A tool supplies two things, exactly as in the paper:
//
//   - instrumentation routines (the Tool.Instrument function), which
//     traverse the application — a program is a sequence of procedures,
//     a procedure a sequence of basic blocks, a block a sequence of
//     instructions — declare analysis-procedure prototypes
//     (AddCallProto) and attach procedure calls before or after any
//     program, procedure, basic block, or instruction (AddCallProgram,
//     AddCallProc, AddCallBlock, AddCallInst), with arguments that may be
//     integer constants, strings, arrays, run-time register contents
//     (REGV), effective memory addresses (EffAddrValue), or branch
//     outcomes (BrCondValue);
//
//   - analysis routines (Tool.Analysis), ordinary MiniC code compiled
//     and linked into the final executable. They share no procedures or
//     data with the application: each side gets its own copy of the
//     runtime library, including its own sbrk.
//
// InstrumentCtx rewrites the application at link time using OM. Information
// flows from the application to the analysis routines through plain
// procedure calls — no interprocess communication, no trace files, no
// shared-buffer dispatch, no simulation.
//
// Pristine behavior (paper, Section 4): application data, bss, stack and
// heap addresses are unchanged — the analysis image lives in the gap
// between the application's text and data segments, its bss converted to
// zero-initialized data. Application text addresses change, but the
// old<->new PC map is static and InstPC reports original addresses.
// Register state is preserved by saving exactly the caller-save registers
// the analysis routine's interprocedural data-flow summary says may be
// modified, split between the call site (ra, argument registers, at) and
// a per-routine wrapper (default) or save/restore code spliced into the
// analysis routine itself (SaveInAnalysis, the paper's "higher
// optimization option"); registers the application cannot read at a
// site are not saved there, and a site whose wrapper would save only
// such registers calls the routine directly.
package core

import (
	"fmt"
	"strings"
	"time"

	"atom/internal/alpha"
	"atom/internal/aout"
	"atom/internal/link"
	"atom/internal/obs"
	"atom/internal/om"
	"atom/internal/om/analysis"
	"atom/internal/om/dataflow"
)

// Tool is a complete ATOM tool: instrumentation routine plus analysis
// sources.
type Tool struct {
	Name        string
	Description string
	// Analysis maps file names to MiniC source for the analysis routines.
	Analysis map[string]string
	// Instrument is the tool's instrumentation routine (the paper's
	// Instrument(iargc, iargv)); it receives the traversal/insertion API.
	Instrument func(q *Instrumentation) error
}

// SaveMode selects where caller-save registers are saved.
type SaveMode int

const (
	// SaveWrapper interposes a generated wrapper per analysis procedure
	// that saves/restores the summary registers. "This is the default
	// mechanism" (paper, Section 4): the analysis code is unmodified, so
	// source-level debugging keeps working. A site where every register
	// the wrapper would save is dead calls the procedure directly.
	SaveWrapper SaveMode = iota
	// SaveInAnalysis splices the saves/restores into the analysis
	// routines themselves and calls them directly — "more work but more
	// efficient"; the paper's higher optimization option. A leaf
	// routine's saves are left to its sites, which save only the live
	// ones.
	SaveInAnalysis
)

// Options control an instrumentation run.
type Options struct {
	Mode SaveMode
	// HeapOffset selects the dynamic-memory scheme. Zero links the two
	// sbrks (application and analysis allocate from one heap, each
	// starting where the other left off). Non-zero partitions the heap:
	// the analysis zone starts HeapOffset bytes past the heap base, so
	// application heap addresses match the uninstrumented run; it must
	// be a multiple of 8, and the output records it as its
	// aout.HeapZoneSymbol. There is deliberately no runtime check that
	// the application heap stays below the analysis zone, as in the
	// paper.
	HeapOffset uint64
	// NoRegSummary disables the data-flow summary and saves every
	// caller-save register around every call (ablation baseline).
	NoRegSummary bool
	// NoLiveness disables the interprocedural register-liveness pass
	// (internal/om/dataflow), reverting each site's save set to ra, the
	// written argument registers, and at regardless of what the
	// application could actually read afterwards. The zero value —
	// liveness on — is the default; set it for ablation.
	NoLiveness bool
	// NoInline disables the analysis-routine inliner. By default (the
	// zero value) short leaf analysis routines are spliced directly into
	// their call sites — no bsr/ret, no wrapper, site save set reduced
	// to live ∩ clobbered-by-body; bodies above a fixed size limit are
	// called normally. Set it to always call through the wrapper, as the
	// paper does.
	NoInline bool
	// Verify runs the IR verifier (om.Verify) over the application before
	// rewriting and re-verifies the layout PC maps and the emitted text
	// afterwards, failing the run on any diagnostic (cmd/atom -vet).
	Verify bool
	// ToolArgs are passed to the instrumentation routine (iargc/iargv).
	ToolArgs []string
}

// Stats reports what an instrumentation run did.
type Stats struct {
	Calls         int    // inserted call sites
	InlinedSites  int    // call sites whose analysis routine was inlined
	DirectSites   int    // call sites calling the analysis procedure itself, no wrapper
	FramedSites   int    // call sites that adjust sp around their code
	InsertedInsts int    // total spliced instructions in the application
	SavedRegs     int    // registers saved at call sites, summed over sites
	OrigText      uint64 // application text before instrumentation
	InstrText     uint64 // application text after instrumentation
	AnalysisText  uint64 // analysis image text size
	AnalysisData  uint64 // analysis image data size (bss folded in)
	// Figure 4 landmarks of the final executable.
	AnalysisTextAddr uint64
	AnalysisDataAddr uint64
}

// Result is an instrumented executable plus metadata.
type Result struct {
	// Exe is the instrumented program. It carries its own heap scheme:
	// a partitioned heap is recorded as its aout.HeapZoneSymbol, which
	// the VM reads at load time.
	Exe *aout.File
	// HeapOffset reports Options.HeapOffset, the zone offset recorded
	// in Exe (zero: linked sbrks, no record).
	HeapOffset uint64
	// PCMap exposes the static old<->new text address maps.
	PCMap *om.Layout
	Stats Stats
}

// InstrumentCtx applies a tool to a fully linked application (which must
// retain symbols and relocations) and produces the instrumented
// executable. This is the paper's
//
//	atom prog inst.c anal.c -o prog.atom
//
// step: the custom tool is Tool, prog is app, and the result is the
// final organized executable.
//
// Internally this is a staged pipeline: lift (build the application
// IR), plan (run the instrumentation routine over the IR), tool image
// (compile and link the analysis routines — cached, so a suite of
// programs builds it once), and apply (rewrite the application and
// stamp the image into its text-data gap). The lift, plan, tool-image
// and apply stages each run under their own span ("om.lift",
// "atom.plan", "atom.image.build" behind a "cache.get" lookup,
// "atom.apply"), so a trace of a suite run shows exactly which program
// paid for the lift and the image build and which ones reused them.
func InstrumentCtx(ctx *obs.Ctx, app *aout.File, tool Tool, opts Options) (*Result, error) {
	prog, err := LiftCtx(ctx, app)
	if err != nil {
		return nil, err
	}
	return InstrumentProgramCtx(ctx, prog, tool, opts)
}

// InstrumentProgramCtx is InstrumentCtx starting from an already-lifted
// Program (LiftCtx). The Program is only read: the plan's call sites go
// to layout as a splice list, so one Program serves any number of runs,
// also concurrently.
func InstrumentProgramCtx(ctx *obs.Ctx, prog *om.Program, tool Tool, opts Options) (*Result, error) {
	q, err := planOn(ctx, prog, tool, opts)
	if err != nil {
		return nil, err
	}
	ti, err := toolImageFor(ctx, tool, opts, q)
	if err != nil {
		return nil, err
	}
	return applyPlan(ctx, q, ti, opts)
}

// ApplyCtx stamps a prebuilt tool image into an application: the second
// step of the paper's two-step model, with the first step (BuildToolImageCtx)
// already paid for. The tool's instrumentation routine still runs per
// application — call sites are application-specific — but no analysis
// code is compiled or linked. If the plan turns out to need a different
// image than the one supplied (the tool's options changed, or the
// in-analysis save mode is being applied to a program mix that calls
// different procedures), the right image is fetched — or built — from
// the cache transparently.
func ApplyCtx(ctx *obs.Ctx, app *aout.File, ti *ToolImage, opts Options) (*Result, error) {
	prog, err := LiftCtx(ctx, app)
	if err != nil {
		return nil, err
	}
	return ApplyProgramCtx(ctx, prog, ti, opts)
}

// ApplyProgramCtx is ApplyCtx starting from an already-lifted Program,
// which it only reads (see InstrumentProgramCtx).
func ApplyProgramCtx(ctx *obs.Ctx, prog *om.Program, ti *ToolImage, opts Options) (*Result, error) {
	if ti == nil {
		return nil, fmt.Errorf("atom: Apply called with a nil tool image")
	}
	q, err := planOn(ctx, prog, ti.tool, opts)
	if err != nil {
		return nil, err
	}
	use := ti
	if key := imageKey(ti.tool, opts, q.protos, calledTargets(q)); key != ti.key {
		if use, err = toolImageFor(ctx, ti.tool, opts, q); err != nil {
			return nil, err
		}
	}
	return applyPlan(ctx, q, use, opts)
}

// planOn runs the tool's instrumentation routine over a lifted Program
// and returns the resulting plan: declared prototypes, the journal of
// call insertions, and interned constant blobs. The lift itself is a
// separate, earlier stage (LiftCtx).
func planOn(ctx *obs.Ctx, prog *om.Program, tool Tool, opts Options) (*Instrumentation, error) {
	if tool.Instrument == nil {
		return nil, fmt.Errorf("atom: tool %q has no instrumentation routine", tool.Name)
	}
	if opts.HeapOffset%8 != 0 {
		return nil, fmt.Errorf("atom: heap offset %#x is not a multiple of 8", opts.HeapOffset)
	}
	_, sp := ctx.Start("atom.plan", obs.String("tool", tool.Name))
	defer sp.End()
	q := &Instrumentation{
		prog:   prog,
		protos: map[string]*Proto{},
		args:   opts.ToolArgs,
	}
	if err := tool.Instrument(q); err != nil {
		return nil, fmt.Errorf("atom: instrumentation routine for %q: %w", tool.Name, err)
	}
	sp.SetAttr(obs.Int("sites", int64(len(q.journal))))
	return q, nil
}

// applyPlan rewrites the application according to a plan and composes the
// final executable with the (rebased) analysis image in its text-data gap
// (Figure 4). This is the only per-application work in the pipeline. The
// application is reached through the plan's Program handle.
func applyPlan(ctx *obs.Ctx, q *Instrumentation, ti *ToolImage, opts Options) (*Result, error) {
	app := q.prog.Exe
	actx, sp := ctx.Start("atom.apply", obs.String("tool", ti.tool.Name))
	defer sp.End()
	if ctx.Enabled() {
		// Per-program apply-time distribution: a suite fan-out renders as
		// a histogram instead of a single smeared total.
		start := time.Now()
		defer func() { ctx.Observe("atom.apply_us", time.Since(start).Microseconds()) }()
	}
	if opts.Verify {
		if ds := q.prog.VerifyCtx(actx); len(ds) > 0 {
			return nil, verifyError("input IR", ds)
		}
		if err := analyzeVerify(actx, "application", q.prog, analysis.Application); err != nil {
			return nil, err
		}
	}
	// Verify every called analysis procedure against the image.
	seen := map[string]bool{}
	for _, req := range q.journal {
		name := req.proto.Name
		if seen[name] {
			continue
		}
		seen[name] = true
		if !ti.hasProc[name] {
			return nil, fmt.Errorf("atom: analysis procedure %q not defined in analysis routines", name)
		}
		if !ti.isGlobal[name] {
			return nil, fmt.Errorf("atom: analysis procedure %q is not a global symbol", name)
		}
	}

	sites := planSites(actx, q, ti, opts)

	stats := Stats{Calls: len(q.journal), OrigText: uint64(len(app.Text))}
	splices, err := spliceSites(ctx, q, sites, &stats)
	if err != nil {
		return nil, err
	}

	// Lay out the instrumented application, then move the prebuilt
	// analysis image right behind it (Figure 4). Rebase is a rigid shift:
	// the image was linked once at a canonical base and keeps its
	// relocation records, so no relink happens here.
	lay, err := q.prog.LayoutCtx(actx, splices)
	if err != nil {
		return nil, err
	}
	if opts.Verify {
		if ds := lay.VerifyCtx(actx); len(ds) > 0 {
			return nil, verifyError("layout PC maps", ds)
		}
	}
	stats.InstrText = lay.TextSize()

	// Place the composed text segment (Figure 4): the instrumented
	// application text, then the analysis image rebased right behind it,
	// then the constant blobs (strings and arrays the instrumentation
	// passes by address), which are application-dependent and so live
	// outside the cached image, each 8-aligned after the image's data.
	analysisBase := (app.TextAddr + lay.TextSize() + 15) &^ 15
	imgData := analysisBase + (ti.img.DataAddr - ti.img.TextAddr)
	constAddr := make([]uint64, len(q.consts))
	imgEnd := imgData + uint64(len(ti.img.Data))
	for i, c := range q.consts {
		imgEnd = (imgEnd + 7) &^ 7
		constAddr[i] = imgEnd
		imgEnd += uint64(len(c.data))
	}
	// The blobs land inside the composed text segment, whose byte length
	// must stay word-aligned or the written executable won't reload.
	imgEnd = (imgEnd + 7) &^ 7
	if imgEnd > app.DataAddr {
		return nil, fmt.Errorf(
			"atom: instrumented text (%#x) plus analysis image (text %#x, data %#x) ends at %#x, beyond the application data segment at %#x; rebuild the application with a larger text-data gap",
			lay.TextSize(), len(ti.img.Text), imgEnd-imgData, imgEnd, app.DataAddr)
	}

	// Every part is written straight into the composed text: Rebase
	// moves the prebuilt image into its windows (a rigid shift — the
	// image was linked once at a canonical base and keeps its relocation
	// records, so no relink happens here), and Finish emits the
	// instrumented application in front of it.
	text := make([]byte, imgEnd-app.TextAddr)
	section := func(addr uint64, n int) []byte {
		off := addr - app.TextAddr
		return text[off : off+uint64(n) : off+uint64(n)]
	}
	img, err := link.RebaseCtx(actx, ti.img, analysisBase,
		section(analysisBase, len(ti.img.Text)), section(imgData, len(ti.img.Data)))
	if err != nil {
		return nil, err
	}
	for i, c := range q.consts {
		copy(section(constAddr[i], len(c.data)), c.data)
	}

	stats.AnalysisText = uint64(len(img.Text))
	stats.AnalysisData = imgEnd - img.DataAddr
	stats.AnalysisTextAddr = img.TextAddr
	stats.AnalysisDataAddr = img.DataAddr

	// Resolve inserted references against the analysis image's globals
	// and the constant blobs.
	globals := map[string]uint64{}
	for _, s := range img.Symbols {
		if s.Global && s.Section != aout.SecUndef {
			globals[s.Name] = s.Value
		}
	}
	for i, c := range q.consts {
		globals[c.label] = constAddr[i]
	}
	// Inlined bodies express their address constants as base+offset
	// against the rebased image's text base (Rebase shifts text, data
	// and bss rigidly, so one base covers every section).
	globals[inlineBaseSym] = img.TextAddr
	res, err := lay.FinishCtx(actx, section(app.TextAddr, int(lay.TextSize())), func(name string) (uint64, bool) {
		v, ok := globals[name]
		return v, ok
	})
	if err != nil {
		return nil, err
	}
	if opts.Verify {
		if ds := lay.VerifyRewriteCtx(actx, res); len(ds) > 0 {
			return nil, verifyError("rewritten text", ds)
		}
	}

	// The symbol table, sized once: the moved application symbols, the
	// image's, the constant blobs and the heap-zone record.
	symbols := make([]aout.Symbol, 0, len(res.Symbols)+len(img.Symbols)+len(q.consts)+1)
	symbols = append(symbols, res.Symbols...)
	symbols = append(symbols, img.Symbols...)
	for i, c := range q.consts {
		symbols = append(symbols, aout.Symbol{
			Name:    c.label,
			Section: aout.SecData,
			Value:   constAddr[i],
			Size:    uint64(len(c.data)),
			Global:  true,
		})
	}
	if opts.HeapOffset != 0 {
		symbols = append(symbols, aout.Symbol{
			Name:    aout.HeapZoneSymbol,
			Section: aout.SecAbs,
			Value:   opts.HeapOffset,
		})
	}

	out := &aout.File{
		Linked:   true,
		Entry:    res.Entry,
		Text:     text,
		TextAddr: app.TextAddr,
		Data:     res.Data,
		DataAddr: app.DataAddr,
		Bss:      app.Bss,
		BssAddr:  app.BssAddr,
		Symbols:  symbols,
	}
	sp.SetAttr(
		obs.Int("sites", int64(stats.Calls)),
		obs.Int("inserted_insts", int64(stats.InsertedInsts)))
	ctx.Count("atom.sites", int64(stats.Calls))
	ctx.Count("atom.sites_inlined", int64(stats.InlinedSites))
	ctx.Count("atom.sites_called", int64(stats.Calls-stats.InlinedSites))
	ctx.Count("atom.sites_direct", int64(stats.DirectSites))
	ctx.Count("atom.bytes_marshalled", int64(len(out.Text)+len(out.Data)))
	return &Result{Exe: out, HeapOffset: opts.HeapOffset, PCMap: lay, Stats: stats}, nil
}

// planSites shapes every call site of a plan, in splice order: what the
// site calls or splices, and the registers it saves.
func planSites(ctx *obs.Ctx, q *Instrumentation, ti *ToolImage, opts Options) []site {
	// The per-site save set: with the liveness pass on (the default) a
	// register is saved only if the application may still read it AND the
	// analysis routine may modify it — the paper's live ∩ modified
	// refinement. One subtlety: instrumentation itself reads application
	// registers (REGV arguments), possibly at a LATER site than the one
	// deciding a save, so every register any site passes by REGV is kept
	// live program-wide. Sources read at the deciding site itself are
	// already protected by siteSaves (their save slot doubles as the
	// source copy).
	var lv *dataflow.Liveness
	var regvRead om.RegSet
	if !opts.NoLiveness {
		lv = dataflow.ComputeCtx(ctx, q.prog)
		for _, req := range q.journal {
			for _, a := range req.args {
				if a.kind == argRegV {
					regvRead = regvRead.Add(a.reg)
				}
			}
		}
	}

	// Inlining applies per plan, not per image: the cached image always
	// carries the templates, and NoInline is free to vary without
	// invalidating it. SaveInAnalysis already splices saves into
	// the routines themselves, which an inlined copy would duplicate, so
	// the inliner only runs in the (default) wrapper mode.
	inlineOK := !opts.NoInline && opts.Mode == SaveWrapper

	// Shape every site, in splice order. Within one insertion point calls
	// run in the order they were added, except that ProgramBefore calls
	// always precede (and ProgramAfter calls always follow) other
	// instrumentation sharing their instruction: analysis state must be
	// initialized before the first block/instruction event at the entry
	// point fires, and final reports must observe the last events at
	// exit.
	sites := make([]site, 0, len(q.journal))
	for r := rankProgramBefore; r <= rankProgramAfter; r++ {
		for i := range q.journal {
			req := &q.journal[i]
			if req.rank != r {
				continue
			}
			var tmpl *inlineTemplate
			if inlineOK {
				if t := ti.inline[req.proto.Name]; t != nil && t.bodyLen <= inlineLimit {
					tmpl = t
				}
			}
			var dead om.RegSet
			if lv != nil {
				live := lv.LiveIn(req.inst)
				if req.after {
					live = lv.LiveOut(req.inst)
				}
				dead = dataflow.ConservativeCallerSave() &^ live &^ regvRead
				// Histogram of caller-save live-set sizes at sites: the set
				// the save planner cannot drop below.
				ctx.Observe("atom.site_live_regs", int64((dataflow.ConservativeCallerSave() &^ dead).Count()))
			}
			// clobbers are what the callee may overwrite that only this site
			// saves: an inlined body's clobbers, or a directly called
			// routine's site save set. A wrapper-mode call whose wrapper
			// would save only registers dead here calls the analysis
			// procedure itself: same site code, without the wrapper's frame,
			// saves and extra call and return. Wrappers relaying stack
			// arguments are always used.
			clobbers := ti.siteSave[req.proto.Name]
			wrapped := false
			if tmpl != nil {
				clobbers = tmpl.clobbers
			} else if opts.Mode == SaveWrapper &&
				(len(req.args) > alpha.MaxRegArgs || clobbers&^dead != 0) {
				wrapped = true
				clobbers = 0
			}
			sites = append(sites, site{req: req, tmpl: tmpl, saved: siteSaves(req, dead, clobbers, tmpl), wrapped: wrapped})
		}
	}
	return sites
}

// spliceSites sizes every site by writing it into scratch buffers, then
// writes all of them into one instruction buffer and one relocation
// buffer, each site's code a capacity-limited window of them, and
// returns one splice per site, in site order. It counts the sites into
// stats.
func spliceSites(ctx *obs.Ctx, q *Instrumentation, sites []site, stats *Stats) ([]om.Splice, error) {
	b := &siteBuilder{consts: q.consts}
	var ninsts, nrelocs int
	for i := range sites {
		b.s, b.insts, b.relocs = &sites[i], b.insts[:0], b.relocs[:0]
		if err := b.build(); err != nil {
			return nil, err
		}
		sites[i].ninsts, sites[i].nrelocs = len(b.insts), len(b.relocs)
		ninsts += len(b.insts)
		nrelocs += len(b.relocs)
	}
	insts := make([]alpha.Inst, ninsts)
	relocs := make([]om.CodeReloc, nrelocs)
	splices := make([]om.Splice, len(sites))
	for i := range sites {
		st := &sites[i]
		slot, ok := q.prog.Slot(st.req.inst)
		if !ok {
			return nil, fmt.Errorf("atom: call site at %#x is not an instruction of the program", st.req.inst.Addr)
		}
		b.s, b.insts, b.relocs = st, insts[:0:st.ninsts], relocs[:0:st.nrelocs]
		if err := b.build(); err != nil {
			return nil, err
		}
		if len(b.insts) != st.ninsts || len(b.relocs) != st.nrelocs {
			return nil, fmt.Errorf("atom: internal: site at %#x wrote %d instructions and %d relocations, sized %d and %d",
				st.req.inst.Addr, len(b.insts), len(b.relocs), st.ninsts, st.nrelocs)
		}
		insts, relocs = insts[st.ninsts:], relocs[st.nrelocs:]
		splices[i] = om.Splice{Slot: slot, After: st.req.after, Insts: b.insts, Relocs: b.relocs}

		if st.tmpl != nil {
			stats.InlinedSites++
			ctx.Observe("atom.inline_body_len", int64(len(st.tmpl.insts)))
		} else if !st.wrapped {
			stats.DirectSites++
		}
		if b.frame != 0 {
			stats.FramedSites++
		}
		nsaved := st.saved.Count()
		stats.InsertedInsts += st.ninsts
		stats.SavedRegs += nsaved
		ctx.Observe("atom.site_saved_regs", int64(nsaved))
	}
	return splices, nil
}

// verifyError folds verifier diagnostics into one error, original PCs
// and procedures first so a failure points at source-level code.
func verifyError(stage string, diags []om.Diag) error {
	const show = 8
	var b strings.Builder
	fmt.Fprintf(&b, "atom: verifier: %s: %d diagnostic(s)", stage, len(diags))
	for i, d := range diags {
		if i == show {
			fmt.Fprintf(&b, "\n\t... and %d more", len(diags)-show)
			break
		}
		b.WriteString("\n\t")
		b.WriteString(d.String())
	}
	return fmt.Errorf("%s", b.String())
}
