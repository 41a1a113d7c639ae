package core

import (
	"atom/internal/alpha"
	"atom/internal/aout"
	"atom/internal/om"
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
	ti, err := toolImageFor(nil, tool, opts, q.protos)
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

// ImageCodecRoundTrip encodes ti with the tool-image store codec and
// decodes the blob again.
func ImageCodecRoundTrip(ti *ToolImage) (blob []byte, got *ToolImage, err error) {
	if blob, err = (imageCodec{}).Marshal(ti); err != nil {
		return nil, nil, err
	}
	got, err = imageCodec{}.Unmarshal(blob)
	return blob, got, err
}

// ImageTables returns what apply reads of ti besides its image: the site
// save sets and the inline templates.
func ImageTables(ti *ToolImage) (siteSave map[string]om.RegSet, inline map[string]*inlineTemplate) {
	return ti.siteSave, ti.inline
}

// ImageTool returns the tool identity ti carries: the tool it was built
// for, or the zero Tool for a value decoded from the store.
func ImageTool(ti *ToolImage) Tool { return ti.tool }
