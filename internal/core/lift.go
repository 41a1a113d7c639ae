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

// LiftCtx lifts an application to OM IR. Each call returns a fresh
// Program whose Exe is app itself. The Program is private to the caller:
// instrumentation attaches actions to it, so handles are consumed by
// InstrumentProgramCtx/ApplyProgramCtx and never shared or reused. The
// executable is shared, and instrumentation never writes to it. The
// stage runs under an "om.lift" span with om.build nested inside it.
func LiftCtx(ctx *obs.Ctx, app *aout.File) (*om.Program, error) {
	lctx, sp := ctx.Start("om.lift")
	defer sp.End()
	return om.BuildCtx(lctx, app)
}
