package core

import (
	"atom/internal/aout"
	"atom/internal/obs"
	"atom/internal/om"
)

// The lift stage: executable -> OM IR. As in the paper, the IR never
// leaves the process: every InstrumentCtx/ApplyCtx lifts the linked
// executable afresh, which costs about as much as decoding a serialized
// copy would.

// LiftCtx lifts an application to OM IR. Each call returns a new Program
// whose Exe is app itself. Nothing writes a lifted Program or its
// executable: instrumentation hands its call sites to layout as a splice
// list, so one Program can serve any number of
// InstrumentProgramCtx/ApplyProgramCtx calls, also concurrently. The
// stage runs under an "om.lift" span with om.build nested inside it.
func LiftCtx(ctx *obs.Ctx, app *aout.File) (*om.Program, error) {
	lctx, sp := ctx.Start("om.lift")
	defer sp.End()
	return om.BuildCtx(lctx, app)
}
