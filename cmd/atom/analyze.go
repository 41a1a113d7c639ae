package main

// -analyze mode: run the static-analysis pass manager over lifted
// programs and report findings without instrumenting anything. Units
// come from two places, composable in one invocation: positional .x
// executables and a tool's freshly built analysis image (-t). Reports are deterministic — findings are
// keyed by original PC and procedure name and sorted — so two runs over
// the same inputs render byte-identical text and JSON.

import (
	"fmt"
	"os"
	"path/filepath"

	"atom/internal/aout"
	"atom/internal/core"
	"atom/internal/obs"
	"atom/internal/om/analysis"
)

type analyzeConfig struct {
	inputs   []string // positional .x executables
	tool     core.Tool
	haveTool bool
	opts     core.Options
	passSpec string // -passes: comma-separated names, "" = all
	asKind   string // -analyze-as: "app" | "tool" for inputs
	jsonPath string // -analyze-json: write the machine report here
}

// runAnalyze returns 0 when every report is clean (no warnings or
// errors), 1 when any unit has findings above Info or any input fails
// to load.
func runAnalyze(ctx *obs.Ctx, cfg analyzeConfig) int {
	passes, err := analysis.Select(cfg.passSpec)
	if err != nil {
		return fail(err)
	}
	kind := analysis.Application
	if cfg.asKind == "tool" {
		kind = analysis.ToolImage
	}

	var reports []*analysis.Report
	for _, path := range cfg.inputs {
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
	if cfg.haveTool {
		ti, err := core.BuildToolImageCtx(ctx, cfg.tool, cfg.opts)
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
	if cfg.jsonPath != "" {
		data, err := analysis.MarshalReports(reports)
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(cfg.jsonPath, data, 0o644); err != nil {
			return fail(err)
		}
	}
	if !clean {
		return 1
	}
	return 0
}
