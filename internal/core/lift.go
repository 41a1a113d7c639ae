package core

import (
	"atom/internal/aout"
	"atom/internal/obs"
	"atom/internal/om"
)

// The lift stage: executable -> OM IR. As in the paper, the IR never
// leaves the process: every Instrument/Apply lifts the linked executable
// afresh, which costs about as much as decoding a serialized copy would.

// Lift lifts an application to OM IR. Each call returns a fresh Program
// whose Exe is app itself. The Program is private to the caller:
// instrumentation attaches actions to it, so handles are consumed by
// InstrumentProgram/ApplyProgram and never shared or reused. The
// executable is shared, and instrumentation never writes to it.
func Lift(app *aout.File) (*om.Program, error) { return LiftCtx(nil, app) }

// LiftCtx is Lift with a stage context: the stage runs under an
// "om.lift" span with om.build nested inside it.
func LiftCtx(ctx *obs.Ctx, app *aout.File) (*om.Program, error) {
	lctx, sp := ctx.Start("om.lift")
	defer sp.End()
	return om.BuildCtx(lctx, app)
}
