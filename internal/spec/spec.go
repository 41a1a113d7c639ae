// Package spec provides the synthetic workload suite standing in for the
// 20 SPEC92 programs of the paper's evaluation (Figures 5 and 6).
//
// SPEC92 itself is licensed, Fortran-heavy, and sized for 1990s hardware,
// so each member here is a small deterministic MiniC program named after
// the SPEC92 component whose *instrumentation-site profile* it imitates:
// the mix of conditional branches, memory references, basic-block sizes,
// procedure calls, mallocs and system calls is what drives every ratio in
// Figure 6, not the particular numerics. Floating-point members are
// replaced by integer kernels with the same access patterns (the ISA
// subset is integer-only; see DESIGN.md).
//
// Every program prints a checksum so instrumented-run output can be
// compared bit-for-bit against the uninstrumented run, and runs a few
// hundred thousand to a few million instructions — large enough to
// amortize tool startup/report costs the way SPEC-scale runs do.
package spec

import (
	"fmt"

	"atom/internal/aout"
	"atom/internal/build"
	"atom/internal/obs"
	"atom/internal/rtl"
)

// Program is one suite member.
type Program struct {
	Name string
	Src  string
	// Stdin and FS are supplied to the VM when running.
	Stdin []byte
	FS    map[string][]byte
}

// Suite returns the 20 programs in a stable order.
func Suite() []Program { return programs }

// ByName returns the named program.
func ByName(name string) (Program, bool) {
	for _, p := range programs {
		if p.Name == name {
			return p, true
		}
	}
	return Program{}, false
}

// buildCache holds the built suite programs, each as a one-element file
// list; they persist through the process-wide build.DiskStore alongside
// the other artifact kinds.
var buildCache = build.NewCache[[]*aout.File]("spec", rtl.FilesCodec{})

// BuildCtx compiles and links a suite program, memoizing the result by
// the program's source content. Concurrent callers of the same program
// share one build (and distinct programs build in parallel — no global
// lock). The returned file must not be mutated. The whole
// compile-and-link runs under a "spec.build" span, and the memoized
// lookup records hit/miss attribution.
func BuildCtx(ctx *obs.Ctx, name string) (*aout.File, error) {
	p, ok := ByName(name)
	if !ok {
		return nil, fmt.Errorf("spec: unknown program %q", name)
	}
	key := rtl.NewKey("spec-program").String(p.Name).String(p.Src).Sum()
	exe, err := buildCache.GetCtx(ctx, "spec-program", key, func(bctx *obs.Ctx) ([]*aout.File, error) {
		sctx, sp := bctx.Start("spec.build", obs.String("program", p.Name))
		defer sp.End()
		exe, err := rtl.BuildProgramMultiCtx(sctx, map[string]string{p.Name + ".c": p.Src})
		if err != nil {
			return nil, err
		}
		return []*aout.File{exe}, nil
	})
	if err == nil && len(exe) != 1 {
		err = fmt.Errorf("cached build holds %d files, want 1", len(exe))
	}
	if err != nil {
		return nil, fmt.Errorf("spec: %s: %w", name, err)
	}
	return exe[0], nil
}
