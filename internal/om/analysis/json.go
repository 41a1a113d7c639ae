package analysis

import (
	"encoding/json"
)

// Machine-readable report form. Deterministic for the same reason the
// bench documents are: struct fields render in declaration order and the
// findings are pre-sorted, so two runs over the same inputs emit
// byte-identical documents.

// JSONSchema identifies the layout of the document atom analyze -json
// writes.
const JSONSchema = "atom-analyze/v1"

// JSONDoc is the top-level atom analyze -json document: one entry per
// analyzed unit.
type JSONDoc struct {
	Schema string     `json:"schema"`
	Units  []JSONUnit `json:"units"`
}

// JSONUnit is one unit's report.
type JSONUnit struct {
	Name     string        `json:"name"`
	Kind     string        `json:"kind"`
	Procs    int           `json:"procs"`
	Insts    int           `json:"insts"`
	Passes   []string      `json:"passes"`
	Findings []JSONFinding `json:"findings,omitempty"`
	Infos    int           `json:"infos"`
	Warnings int           `json:"warnings"`
	Errors   int           `json:"errors"`
	Clean    bool          `json:"clean"`
}

// JSONFinding is one finding; PC is the ORIGINAL program counter (0 for
// whole-program findings).
type JSONFinding struct {
	Pass     string `json:"pass"`
	Severity string `json:"severity"`
	Proc     string `json:"proc,omitempty"`
	PC       uint64 `json:"pc,omitempty"`
	Msg      string `json:"msg"`
}

// MarshalReports renders reports as the indented atom-analyze document.
func MarshalReports(reports []*Report) ([]byte, error) {
	doc := JSONDoc{Schema: JSONSchema, Units: []JSONUnit{}}
	for _, r := range reports {
		info, warn, errs := r.Counts()
		u := JSONUnit{
			Name: r.Unit, Kind: r.Kind.String(),
			Procs: r.Procs, Insts: r.Insts, Passes: r.Passes,
			Infos: info, Warnings: warn, Errors: errs, Clean: r.Clean(),
		}
		for _, f := range r.Findings {
			u.Findings = append(u.Findings, JSONFinding{
				Pass: f.Pass, Severity: f.Sev.String(), Proc: f.Proc, PC: f.Addr, Msg: f.Msg,
			})
		}
		doc.Units = append(doc.Units, u)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// VetPasses is the pass selection the -vet verify stages run: the
// defect-finding passes (the call graph is a report, not a gate). Only
// Error findings fail a -vet run.
func VetPasses() []Pass {
	ps, err := Select("stackheight,toollint,uninit")
	if err != nil {
		panic(err) // built-in names; cannot fail
	}
	return ps
}
