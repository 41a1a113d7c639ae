package core

import (
	"fmt"
	"strings"

	"atom/internal/aout"
	"atom/internal/obs"
	"atom/internal/om"
	"atom/internal/om/analysis"
)

// Bridges between the pipeline and the static-analysis pass manager
// (internal/om/analysis): atom analyze analyzes applications and built
// tool images on demand, and -vet folds the defect-finding passes into
// the verify stages so an image with a save-discipline bug is rejected
// before it is ever applied.

// Image returns the tool's linked analysis image (read-only), for
// callers that want to inspect or analyze it.
func (ti *ToolImage) Image() *aout.File { return ti.img }

// Analyze lifts the built image and runs the pass selection over it as a
// ToolImage unit named "tool:NAME".
func (ti *ToolImage) Analyze(ctx *obs.Ctx, passes []analysis.Pass) (*analysis.Report, error) {
	prog, err := om.BuildCtx(ctx, ti.img)
	if err != nil {
		return nil, fmt.Errorf("atom: lifting analysis image for %q: %w", ti.tool.Name, err)
	}
	u := &analysis.Unit{Name: "tool:" + ti.tool.Name, Kind: analysis.ToolImage, Prog: prog}
	return analysis.Run(ctx, u, passes), nil
}

// AnalyzeProgram runs the pass selection over a lifted program.
func AnalyzeProgram(ctx *obs.Ctx, name string, prog *om.Program, kind analysis.UnitKind, passes []analysis.Pass) *analysis.Report {
	return analysis.Run(ctx, &analysis.Unit{Name: name, Kind: kind, Prog: prog}, passes)
}

// analyzeVerify is the -vet stage: the defect-finding passes run over
// the unit and any Error-severity finding fails the build, formatted
// like the IR verifier's diagnostics.
func analyzeVerify(ctx *obs.Ctx, what string, prog *om.Program, kind analysis.UnitKind) error {
	r := analysis.Run(ctx, &analysis.Unit{Name: what, Kind: kind, Prog: prog}, analysis.VetPasses())
	errs := r.Errors()
	if len(errs) == 0 {
		return nil
	}
	const show = 8
	var b strings.Builder
	fmt.Fprintf(&b, "atom: analyze: %s: %d error finding(s)", what, len(errs))
	for i, f := range errs {
		if i == show {
			fmt.Fprintf(&b, "\n\t... and %d more", len(errs)-show)
			break
		}
		b.WriteString("\n\t")
		b.WriteString(f.String())
	}
	return fmt.Errorf("%s", b.String())
}
