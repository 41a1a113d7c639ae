// Package analysis is a pluggable static-analysis pass manager over the
// OM IR. Where the rest of the pipeline exploits the IR dynamically
// (instrumenting and counting), this package asks static questions of
// the same substrate: does the application read a register no definition
// reaches, is every procedure's stack balanced, what does the call graph
// look like, and — before an image is ever applied — do the tool's own
// analysis routines respect the save discipline the instrumenter relies
// on.
//
// A Pass runs over one Unit (an application executable's IR, or the
// lifted IR of a built tool image) and reports Findings keyed by
// ORIGINAL program counter and procedure name, so reports are stable
// across instrumentation runs and byte-identical across processes.
// Passes register themselves at init; Run executes a selection under
// "om.analyze" observability spans. Future tool families (shadow-memory
// memcheck, taint) register their own passes the same way.
package analysis

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"atom/internal/obs"
	"atom/internal/om"
)

// Severity ranks a finding. Info findings are reports (a dead procedure
// may be intentional); Warn and Error findings make a unit non-clean and
// fail the atom analyze exit status, and Error findings additionally fail
// the -vet verify stages.
type Severity int

const (
	Info Severity = iota
	Warn
	Error
)

// String returns the lower-case severity name.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	}
	return fmt.Sprintf("sev%d?", int(s))
}

// Finding is one diagnostic. Addr is the ORIGINAL PC of the offending
// instruction (the procedure's entry address for procedure-level
// findings, 0 for whole-program findings); Proc is the enclosing
// procedure's name ("" for whole-program findings).
type Finding struct {
	Pass string
	Sev  Severity
	Proc string
	Addr uint64
	Msg  string
}

// String renders the finding in the fixed single-line form the text
// report and the CI gates consume.
func (f Finding) String() string {
	loc := ""
	if f.Proc != "" || f.Addr != 0 {
		loc = fmt.Sprintf("pc %#x (%s): ", f.Addr, f.Proc)
	}
	return fmt.Sprintf("[%s] %s: %s%s", f.Pass, f.Sev, loc, f.Msg)
}

// UnitKind says what a Unit's IR was lifted from; passes declare which
// kinds they apply to (the call graph needs an application entry point,
// the tool lint only makes sense on analysis code).
type UnitKind int

const (
	Application UnitKind = iota
	ToolImage
)

// String returns the kind's report name.
func (k UnitKind) String() string {
	if k == ToolImage {
		return "tool image"
	}
	return "application"
}

// Unit is one analysis subject: a lifted program and what it is.
type Unit struct {
	Name string
	Kind UnitKind
	Prog *om.Program
}

// Pass is one registered static analysis.
type Pass interface {
	// Name is the stable identifier used by -passes, report lines, and
	// span attributes.
	Name() string
	// Desc is a one-line description for listings.
	Desc() string
	// Applies reports whether the pass is meaningful for a unit kind.
	Applies(k UnitKind) bool
	// Run analyzes the unit. Findings need not be sorted; the manager
	// orders the merged report deterministically.
	Run(ctx *obs.Ctx, u *Unit) []Finding
}

var registry []Pass

// Register adds a pass to the global registry. Built-in passes register
// at init; future tools may register their own before calling Run.
func Register(p Pass) { registry = append(registry, p) }

// Passes returns the registered passes sorted by name.
func Passes() []Pass {
	out := make([]Pass, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Select resolves a comma-separated pass-name list ("" means every
// registered pass) against the registry.
func Select(names string) ([]Pass, error) {
	all := Passes()
	if names == "" {
		return all, nil
	}
	byName := make(map[string]Pass, len(all))
	for _, p := range all {
		byName[p.Name()] = p
	}
	var out []Pass
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		p, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analysis pass %q (have %s)", n, strings.Join(passNames(all), ", "))
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func passNames(ps []Pass) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name()
	}
	return out
}

// Report is the merged result of running a pass selection over one unit.
type Report struct {
	Unit     string
	Kind     UnitKind
	Procs    int
	Insts    int
	Passes   []string // the passes that actually ran (applicable ones)
	Findings []Finding
}

// Counts tallies findings by severity.
func (r *Report) Counts() (info, warn, errs int) {
	for _, f := range r.Findings {
		switch f.Sev {
		case Info:
			info++
		case Warn:
			warn++
		default:
			errs++
		}
	}
	return
}

// Clean reports whether the unit has no Warn or Error findings.
func (r *Report) Clean() bool {
	_, warn, errs := r.Counts()
	return warn == 0 && errs == 0
}

// Errors returns the Error-severity findings (the -vet gate's failure
// set).
func (r *Report) Errors() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Sev == Error {
			out = append(out, f)
		}
	}
	return out
}

// Run executes every applicable pass over the unit and merges the
// findings into one deterministically ordered report. The whole run is
// an "om.analyze" span; each pass runs under an "om.analyze.pass" child
// span tagged with its name, and the "om.analyze.passes" /
// "om.analyze.findings" counters aggregate across units.
func Run(ctx *obs.Ctx, u *Unit, passes []Pass) *Report {
	actx, sp := ctx.Start("om.analyze",
		obs.String("unit", u.Name),
		obs.String("kind", u.Kind.String()),
		obs.Int("procs", int64(len(u.Prog.Procs))))
	defer sp.End()

	r := &Report{Unit: u.Name, Kind: u.Kind, Procs: len(u.Prog.Procs), Insts: u.Prog.NumInsts()}
	for _, p := range passes {
		if !p.Applies(u.Kind) {
			continue
		}
		pctx, psp := actx.Start("om.analyze.pass", obs.String("pass", p.Name()))
		fs := p.Run(pctx, u)
		psp.SetAttr(obs.Int("findings", int64(len(fs))))
		psp.End()
		actx.Count("om.analyze.passes", 1)
		actx.Count("om.analyze.findings", int64(len(fs)))
		r.Passes = append(r.Passes, p.Name())
		r.Findings = append(r.Findings, fs...)
	}
	sort.Strings(r.Passes)
	sortFindings(r.Findings)
	info, warn, errs := r.Counts()
	sp.SetAttr(obs.Int("info", int64(info)), obs.Int("warn", int64(warn)), obs.Int("error", int64(errs)))
	return r
}

// sortFindings orders findings for stable reports: program-level first
// (Addr 0), then by original PC, pass, procedure, and message.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		return a.Msg < b.Msg
	})
}

// plural renders "1 error" / "2 errors".
func plural(n int, what string) string {
	if n == 1 {
		return fmt.Sprintf("1 %s", what)
	}
	return fmt.Sprintf("%d %ss", n, what)
}

// WriteText renders the report in the fixed text form: a unit header,
// one line per finding, and a final verdict line ("NAME: clean" when
// nothing is warn-or-worse).
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "== %s (%s): %s, %s; passes: %s\n",
		r.Unit, r.Kind, plural(r.Procs, "proc"), plural(r.Insts, "inst"),
		strings.Join(r.Passes, " "))
	for _, f := range r.Findings {
		fmt.Fprintf(w, "%s\n", f.String())
	}
	info, warn, errs := r.Counts()
	switch {
	case warn == 0 && errs == 0 && info == 0:
		fmt.Fprintf(w, "%s: clean\n", r.Unit)
	case warn == 0 && errs == 0:
		fmt.Fprintf(w, "%s: clean (%s)\n", r.Unit, plural(info, "note"))
	default:
		parts := []string{}
		if errs > 0 {
			parts = append(parts, plural(errs, "error"))
		}
		if warn > 0 {
			parts = append(parts, plural(warn, "warning"))
		}
		fmt.Fprintf(w, "%s: %s\n", r.Unit, strings.Join(parts, ", "))
	}
}
