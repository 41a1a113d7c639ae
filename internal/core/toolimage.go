package core

import (
	"fmt"
	"sort"

	"atom/internal/alpha"
	"atom/internal/aout"
	"atom/internal/build"
	"atom/internal/link"
	"atom/internal/obs"
	"atom/internal/om"
	"atom/internal/om/analysis"
	"atom/internal/om/dataflow"
	"atom/internal/rtl"
)

// The build-the-tool-once half of the paper's cost model. A tool's
// analysis routines do not depend on the application being instrumented:
// they are compiled, linked against their private runtime library, given
// their register-save wrappers (or in-analysis splices), and sbrk-
// redirected exactly once per (tool, options) pair. The linked image is
// produced at a canonical base address and moved into each application's
// text-data gap with link.RebaseCtx — a rigid shift plus relocation
// re-patch, not a relink. Applying a tool to the Nth program therefore
// costs only the per-program rewrite, as in the paper's two-step model.

// ToolImage is a tool's compiled and linked analysis image, independent
// of any application. Build one with BuildToolImageCtx (or implicitly via
// InstrumentCtx, which caches them) and stamp it into applications with
// ApplyCtx. A ToolImage is immutable and safe for concurrent use.
type ToolImage struct {
	tool Tool
	key  build.Key

	// img is linked at link.DefaultTextAddr and retains its relocation
	// records so it can be rebased rigidly. Read-only.
	img *aout.File

	// hasProc marks prototype names defined as procedures in the image;
	// isGlobal marks those whose symbol is exported. ApplyCtx verifies every
	// called analysis procedure against these.
	hasProc  map[string]bool
	isGlobal map[string]bool

	// inline holds a splice-ready template for every analysis procedure
	// that classified as inlinable (wrapper mode only). Templates are
	// extracted unconditionally — whether a site uses one is decided per
	// plan by Options.NoInline and inlineLimit, so the cache key is
	// unaffected.
	inline map[string]*inlineTemplate

	// siteSave is, per defined analysis procedure, the registers a site
	// calling it directly must save where they are live, beyond ra and
	// the argument registers: its wrapper's save set, or nothing when
	// the in-analysis mode spliced the saves into the procedure itself.
	// A wrapper-mode site calls directly only where all of them are
	// dead, so its code is the wrapper call's with another target.
	siteSave map[string]om.RegSet
}

// ToolName returns the name of the tool the image was built for.
func (ti *ToolImage) ToolName() string { return ti.tool.Name }

// CacheKey returns the content address of the image, for diagnostics.
func (ti *ToolImage) CacheKey() string { return ti.key.String() }

// imageCache holds linked analysis images keyed by their content address.
// Instrumenting a whole program suite with one tool builds the image for
// the first program and reuses it for the rest — concurrently, thanks to
// the cache's singleflight semantics.
var imageCache = build.NewCache[*ToolImage]("image", imageCodec{})

// ImageCacheStats reports tool-image cache activity (hits, disk hits,
// misses, builds, errors) since the last reset.
func ImageCacheStats() build.Stats { return imageCache.Stats() }

// ResetImageCache drops the in-memory tool images and zeroes the
// counters; a configured store keeps its blobs. Tests and cold-start
// benchmarks use it; production callers never need to. The Scope
// argument is ignored (see build.Scope).
func ResetImageCache(build.Scope) { imageCache.Reset() }

// calledTargets returns the sorted set of analysis procedures the plan
// actually calls.
func calledTargets(q *Instrumentation) []string {
	seen := map[string]bool{}
	var targets []string
	for _, req := range q.journal {
		if name := req.proto.Name; !seen[name] {
			seen[name] = true
			targets = append(targets, name)
		}
	}
	sort.Strings(targets)
	return targets
}

// imageKey computes the content address of a tool image: everything that
// can change the image's bytes. The analysis sources, the save mode and
// register-summary setting, and the declared prototypes (wrappers are
// generated per prototype) all feed the key. The called-target set does
// too, but only in SaveInAnalysis mode, where the save/restore code is
// spliced into the targets themselves; the default wrapper image is
// target-independent, so any program mix shares one image.
func imageKey(tool Tool, opts Options, protos map[string]*Proto, targets []string) build.Key {
	b := rtl.NewKey("toolimage").
		String(imageCodecVersion).
		String(tool.Name).
		Int(int64(opts.Mode)).
		Bool(opts.NoRegSummary)
	srcNames := make([]string, 0, len(tool.Analysis))
	for n := range tool.Analysis {
		srcNames = append(srcNames, n)
	}
	sort.Strings(srcNames)
	b.Int(int64(len(srcNames)))
	for _, n := range srcNames {
		b.String(n).String(tool.Analysis[n])
	}
	protoNames := make([]string, 0, len(protos))
	for n := range protos {
		protoNames = append(protoNames, n)
	}
	sort.Strings(protoNames)
	b.Int(int64(len(protoNames)))
	for _, n := range protoNames {
		b.String(n)
		p := protos[n]
		b.Int(int64(len(p.Params)))
		for _, k := range p.Params {
			b.Int(int64(k))
		}
	}
	if opts.Mode == SaveInAnalysis {
		b.Int(int64(len(targets)))
		for _, t := range targets {
			b.String(t)
		}
	}
	return b.Sum()
}

// toolImageFor returns the (cached) analysis image matching a plan.
func toolImageFor(ctx *obs.Ctx, tool Tool, opts Options, q *Instrumentation) (*ToolImage, error) {
	targets := calledTargets(q)
	key := imageKey(tool, opts, q.protos, targets)
	ti, err := imageCache.GetCtx(ctx, "toolimage", key, func(bctx *obs.Ctx) (*ToolImage, error) {
		ti, err := buildToolImage(bctx, tool, opts, q.protos, targets)
		if err != nil {
			return nil, err
		}
		ti.key = key
		return ti, nil
	})
	if err != nil {
		return nil, err
	}
	if ti.tool.Instrument == nil {
		// The image was decoded from the persistent store, which cannot
		// carry the tool's Go closure. Re-attach the identity on a
		// private copy — the cached value is shared across goroutines,
		// so it is never mutated in place. The content address already
		// proves this tool's sources and options produced the image.
		c := *ti
		c.tool = tool
		c.key = key
		ti = &c
	}
	return ti, nil
}

// probeCache holds the tiny probe application BuildToolImageCtx runs a
// tool's instrumentation routine against to learn its prototypes.
// It is stored as a one-element file list.
var probeCache = build.NewCache[[]*aout.File]("probe", rtl.FilesCodec{})

// BuildToolImageCtx compiles and links a tool's analysis image without
// an application in hand — the explicit form of the paper's first step
// ("build the tool"). The tool's instrumentation routine is run against
// a trivial probe program to collect its prototype declarations; since
// tools declare prototypes unconditionally, the resulting image is the
// one InstrumentCtx and ApplyCtx will use. The image is cached; building
// it again, or instrumenting any program with the same tool and options,
// is a cache hit.
func BuildToolImageCtx(ctx *obs.Ctx, tool Tool, opts Options) (*ToolImage, error) {
	if tool.Instrument == nil {
		return nil, fmt.Errorf("atom: tool %q has no instrumentation routine", tool.Name)
	}
	probe, err := probeCache.GetCtx(ctx, "probe-app", rtl.NewKey("probe-app").Sum(),
		func(bctx *obs.Ctx) ([]*aout.File, error) {
			exe, err := rtl.BuildProgramMultiCtx(bctx, map[string]string{"atom$probe.c": "int main() { return 0; }"})
			if err != nil {
				return nil, err
			}
			return []*aout.File{exe}, nil
		})
	if err == nil && len(probe) != 1 {
		err = fmt.Errorf("cached build holds %d files, want 1", len(probe))
	}
	if err != nil {
		return nil, fmt.Errorf("atom: building probe program: %w", err)
	}
	prog, err := LiftCtx(ctx, probe[0])
	if err != nil {
		return nil, err
	}
	q, err := planOn(ctx, prog, tool, opts)
	if err != nil {
		return nil, err
	}
	return toolImageFor(ctx, tool, opts, q)
}

// buildToolImage does the actual compile/link work: analysis objects,
// register summary, wrappers or in-analysis splices, canonical-base link,
// sbrk redirection.
func buildToolImage(ctx *obs.Ctx, tool Tool, opts Options, protos map[string]*Proto, targets []string) (*ToolImage, error) {
	ictx, isp := ctx.Start("atom.image.build", obs.String("tool", tool.Name))
	defer isp.End()
	if len(tool.Analysis) == 0 {
		return nil, fmt.Errorf("atom: tool has no analysis routines")
	}
	objs, err := rtl.BuildObjectsCtx(ictx, tool.Analysis)
	if err != nil {
		return nil, fmt.Errorf("atom: analysis routines: %w", err)
	}
	lib, err := rtl.LibCtx(ictx)
	if err != nil {
		return nil, err
	}
	prov, err := link.LinkCtx(ictx, link.Config{
		TextAddr:      link.DefaultTextAddr,
		DataAfterText: true,
		Entry:         "-",
		ZeroBss:       true,
	}, objs, lib)
	if err != nil {
		return nil, fmt.Errorf("atom: linking analysis routines: %w", err)
	}
	aprog, err := om.BuildCtx(ictx, prov)
	if err != nil {
		return nil, fmt.Errorf("atom: analysis image: %w", err)
	}

	ti := &ToolImage{
		tool:     tool,
		hasProc:  map[string]bool{},
		isGlobal: map[string]bool{},
		siteSave: map[string]om.RegSet{},
	}
	protoNames := make([]string, 0, len(protos))
	for n := range protos {
		protoNames = append(protoNames, n)
	}
	sort.Strings(protoNames)
	var defined []string
	for _, name := range protoNames {
		if aprog.Proc(name) == nil {
			continue
		}
		ti.hasProc[name] = true
		if sym, ok := prov.Lookup(name); ok && sym.Global {
			ti.isGlobal[name] = true
			defined = append(defined, name)
		}
	}

	// Rename the scratch registers of the routines only ATOM enters
	// (rename.go). The summary is taken on the renamed code, and the
	// final image gets the same renaming once it is linked.
	renames := scratchRenames(aprog, defined)
	renameProg(aprog, renames)
	summary := dataflow.ModifiedRegsCtx(ictx, aprog)

	// Save set per defined prototype: the registers the procedure's
	// interprocedural summary says may be modified, minus ra and the
	// argument registers, which the call site itself saves. Wrappers are
	// generated for every defined prototype, not just the procedures this
	// particular program mix happens to call — that is what makes the
	// image application-independent.
	wrapSave := map[string]om.RegSet{}
	args := alpha.ArgRegs()
	for _, name := range defined {
		mod := summary[name]
		if opts.NoRegSummary {
			mod = om.AllCallerSave()
		}
		save := mod
		save &^= om.RegSet(0).Add(alpha.RA)
		argc := len(protos[name].Params)
		if argc > alpha.MaxRegArgs {
			argc = alpha.MaxRegArgs
		}
		for i := 0; i < argc; i++ {
			save &^= om.RegSet(0).Add(args[i])
		}
		wrapSave[name] = save
		ti.siteSave[name] = save
	}

	// The in-analysis save mode splices save/restore code into the called
	// procedures themselves, so the image depends on the target set (which
	// is part of its cache key) and every target must check out now. A
	// leaf target is the exception: its save set is just its own scratch
	// registers, which its sites save where live (siteSave), as they do
	// for an inlined body — never more than the splice would save on
	// every call.
	var extraText uint64
	spliceSave := map[string]om.RegSet{}
	if opts.Mode == SaveInAnalysis {
		for _, name := range targets {
			if !ti.hasProc[name] {
				return nil, fmt.Errorf("atom: analysis procedure %q not defined in analysis routines", name)
			}
			if !ti.isGlobal[name] {
				return nil, fmt.Errorf("atom: analysis procedure %q is not a global symbol", name)
			}
			if len(protos[name].Params) > alpha.MaxRegArgs {
				return nil, fmt.Errorf("atom: %q: the in-analysis save mode supports at most %d parameters", name, alpha.MaxRegArgs)
			}
			// Every exit must be a ret for the restore splice to cover it.
			pr := aprog.Proc(name)
			for _, b := range pr.Blocks {
				last := b.Insts[len(b.Insts)-1].I
				if last.Op == alpha.OpBr {
					target := b.Insts[len(b.Insts)-1].Addr + 4 + uint64(int64(last.Disp)*4)
					if target < pr.Addr || target >= pr.Addr+pr.Size {
						return nil, fmt.Errorf("atom: %q exits via a cross-procedure branch; in-analysis saves unsupported", name)
					}
				}
			}
			if _, leaf := leafRegs(pr); !leaf {
				spliceSave[name] = wrapSave[name]
				ti.siteSave[name] = 0
			}
		}
		splices, err := spliceSaves(aprog, targets, spliceSave)
		if err != nil {
			return nil, err
		}
		for _, s := range splices {
			extraText += uint64(len(s.Insts)) * 4
		}
	}

	if opts.Mode == SaveWrapper && len(defined) > 0 {
		wrap, err := wrapperModule(ictx, defined, protos, wrapSave)
		if err != nil {
			return nil, fmt.Errorf("atom: wrappers: %w", err)
		}
		objs = append(append([]*aout.File(nil), objs...), wrap)
	}

	cfg := link.Config{TextAddr: link.DefaultTextAddr, Entry: "-", ZeroBss: true}
	if extraText == 0 {
		cfg.DataAfterText = true
	} else {
		// Leave room for the splice growth between text and data. No
		// wrapper module joins objs in this mode, so this link's text is
		// prov's.
		cfg.DataAddr = (link.DefaultTextAddr + uint64(len(prov.Text)) + extraText + 15) &^ 15
	}
	img, err := link.LinkCtx(ictx, cfg, objs, lib)
	if err != nil {
		return nil, fmt.Errorf("atom: linking analysis image: %w", err)
	}
	if err := renameImage(img, renames); err != nil {
		return nil, err
	}

	if opts.Mode == SaveInAnalysis && extraText > 0 {
		sprog, err := om.BuildCtx(ictx, img)
		if err != nil {
			return nil, err
		}
		splices, err := spliceSaves(sprog, targets, spliceSave)
		if err != nil {
			return nil, err
		}
		lay, err := sprog.LayoutCtx(ictx, splices)
		if err != nil {
			return nil, err
		}
		if lay.TextSize() != uint64(len(img.Text))+extraText {
			return nil, fmt.Errorf("atom: internal: splice growth %d != predicted %d",
				lay.TextSize()-uint64(len(img.Text)), extraText)
		}
		res, err := lay.FinishCtx(ictx, make([]byte, lay.TextSize()), func(string) (uint64, bool) { return 0, false })
		if err != nil {
			return nil, err
		}
		// The re-emitted image keeps its (remapped) relocation records, so
		// it is still rigidly rebasable like a directly linked one.
		img = &aout.File{
			Linked: true,
			Text:   res.Text, TextAddr: img.TextAddr,
			Data: res.Data, DataAddr: img.DataAddr,
			Bss: img.Bss, BssAddr: img.BssAddr,
			Symbols: res.Symbols,
			Relocs:  res.Relocs,
		}
	}

	// The sbrk redirection mutates image text, so it happens here, once;
	// Rebase copies the sections into each application's output.
	if err := redirectSbrk(img); err != nil {
		return nil, err
	}
	ti.img = img

	// Lift the FINAL image (post-sbrk-redirection, so templates carry
	// the patched text) once, for both of its readers below.
	var fprog *om.Program
	if opts.Mode == SaveWrapper || opts.Verify {
		if fprog, err = om.BuildCtx(ictx, img); err != nil {
			return nil, fmt.Errorf("atom: analysis image (final): %w", err)
		}
	}

	// Classify the defined analysis procedures for inlining. SaveInAnalysis
	// images have save/restore code spliced into the routines themselves,
	// which an inlined copy would duplicate; only the wrapper-mode image
	// grows templates.
	if opts.Mode == SaveWrapper {
		ti.inline = extractInlineTemplates(fprog, img, defined, summary)
	}

	// Under -vet, lint the final image's analysis code statically before
	// it can ever be stamped into an application.
	if opts.Verify {
		if err := analyzeVerify(ictx, "analysis image", fprog, analysis.ToolImage); err != nil {
			return nil, err
		}
	}

	isp.SetAttr(
		obs.Int("text_bytes", int64(len(img.Text))),
		obs.Int("data_bytes", int64(len(img.Data))),
		obs.Int("inlinable_procs", int64(len(ti.inline))),
		obs.Int("renamed_procs", int64(len(renames))))
	return ti, nil
}
