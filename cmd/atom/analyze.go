package main

// atom analyze: run the static-analysis pass manager over lifted
// programs and report findings without instrumenting anything. Units
// come from two places, composable in one invocation: positional .x
// executables and a tool's freshly built analysis image (-t). Reports
// are deterministic — findings are keyed by original PC and procedure
// name and sorted — so two runs over the same inputs render
// byte-identical text and JSON.

import (
	"fmt"
	"os"
	"path/filepath"

	"atom/internal/aout"
	"atom/internal/core"
	"atom/internal/obs"
	"atom/internal/om/analysis"
)

func cmdAnalyze(args []string) int {
	fs, p := newPipeline("atom analyze", "usage: atom analyze [-passes p1,p2] [-json file] [-as app|tool] [-t tool] [prog.x ...]")
	passSpec := fs.String("passes", "", "comma-separated pass subset (default: all; names: uninit, stackheight, callgraph, toollint)")
	jsonPath := fs.String("json", "", "also write the reports as JSON (atom-analyze/v1) to this file")
	as := fs.String("as", "app", "treat inputs as an application or a tool image: app | tool")
	inputs, err := parse(fs, args, 0, -1)
	if err != nil {
		return parseStatus(err)
	}
	// With only -t, the built image is the one unit.
	if len(inputs) == 0 && p.tool == "" {
		fs.Usage()
		return 2
	}
	kind, ok := map[string]analysis.UnitKind{"app": analysis.Application, "tool": analysis.ToolImage}[*as]
	if !ok {
		return fail(fmt.Errorf("bad -as %q (app or tool)", *as))
	}
	passes, err := analysis.Select(*passSpec)
	if err != nil {
		return fail(err)
	}
	tool, opts, err := p.resolve()
	if err != nil {
		return fail(err)
	}
	return p.observe(func(ctx *obs.Ctx) int {
		return analyze(ctx, inputs, tool, opts, kind, passes, *jsonPath)
	})
}

// analyze reports on every input, read as kind, and on the tool's
// image when a tool is given. It returns 0 when every report is clean
// (no warnings or errors), 1 when any unit has findings above Info or
// any input fails to load.
func analyze(ctx *obs.Ctx, inputs []string, tool core.Tool, opts core.Options, kind analysis.UnitKind, passes []analysis.Pass, jsonPath string) int {
	var reports []*analysis.Report
	for _, path := range inputs {
		app, err := aout.ReadFile(path)
		if err != nil {
			return fail(err)
		}
		prog, err := core.LiftCtx(ctx, app)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", path, err))
		}
		reports = append(reports, core.AnalyzeProgram(ctx, filepath.Base(path), prog, kind, passes))
	}
	if tool.Name != "" {
		ti, err := core.BuildToolImageCtx(ctx, tool, opts)
		if err != nil {
			return fail(err)
		}
		r, err := ti.Analyze(ctx, passes)
		if err != nil {
			return fail(err)
		}
		reports = append(reports, r)
	}

	clean := true
	for i, r := range reports {
		if i > 0 {
			fmt.Println()
		}
		r.WriteText(os.Stdout)
		if !r.Clean() {
			clean = false
		}
	}
	if jsonPath != "" {
		data, err := analysis.MarshalReports(reports)
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
			return fail(err)
		}
	}
	if !clean {
		return 1
	}
	return 0
}
