package core

import (
	"atom/internal/alpha"
	"atom/internal/aout"
)

// SiteCode is one call site's code as the apply stage splices it.
type SiteCode struct {
	Insts []alpha.Inst // the spliced sequence
	Body  []alpha.Inst // the inlined body within it; nil for a call
	Args  int          // arguments the site passes
}

// PlannedSites lifts and plans app under tool like InstrumentCtx and
// writes every call site, in splice order, without laying out the
// program.
func PlannedSites(app *aout.File, tool Tool, opts Options) ([]SiteCode, error) {
	prog, err := LiftCtx(nil, app)
	if err != nil {
		return nil, err
	}
	q, err := planOn(nil, prog, tool, opts)
	if err != nil {
		return nil, err
	}
	ti, err := toolImageFor(nil, tool, opts, q)
	if err != nil {
		return nil, err
	}
	sites := planSites(nil, q, ti, opts)
	splices, err := spliceSites(nil, q, sites, &Stats{})
	if err != nil {
		return nil, err
	}
	out := make([]SiteCode, len(sites))
	for i, s := range sites {
		out[i] = SiteCode{Insts: splices[i].Insts, Args: len(s.req.args)}
		if s.tmpl != nil {
			out[i].Body = s.tmpl.insts
		}
	}
	return out, nil
}
