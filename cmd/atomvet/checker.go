package main

// The checks. All are syntactic — go/ast over single files, no type
// information — which keeps the tool dependency-free and fast enough to
// run on every package in CI. The cost is that a shadowed `os` or an
// aliased import evades them; neither occurs in this repo, and the
// point is to stop honest regressions, not adversaries.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
)

// cacheEnvOwner is the one import path allowed to read ATOM_CACHE_DIR:
// the CLI, which turns it into an explicit -cache-dir default. The
// library must stay inert unless a caller opts in (see
// internal/build/store.go), so any other read is a layering bug.
const cacheEnvOwner = "atom/cmd/atom"

// diag is one finding, already positioned.
type diag struct {
	pos token.Position
	msg string
}

func (d diag) String() string { return fmt.Sprintf("%s: %s", d.pos, d.msg) }

// checkFile runs every check over one parsed file. importPath is the
// package's import path ("atom/internal/build"); pkgName is the
// package's declared name, used to recognize *Ctx inside package obs
// itself.
func checkFile(fset *token.FileSet, f *ast.File, importPath string) []diag {
	var out []diag
	out = append(out, checkCacheEnv(fset, f, importPath)...)
	out = append(out, checkCtxPosition(fset, f)...)
	out = append(out, checkCtxTwin(fset, f)...)
	return out
}

// checkCacheEnv flags os.Getenv("ATOM_CACHE_DIR") and
// os.LookupEnv("ATOM_CACHE_DIR") outside cmd/atom.
func checkCacheEnv(fset *token.FileSet, f *ast.File, importPath string) []diag {
	if importPath == cacheEnvOwner {
		return nil
	}
	var out []diag
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != "os" {
			return true
		}
		if sel.Sel.Name != "Getenv" && sel.Sel.Name != "LookupEnv" {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		if v, err := strconv.Unquote(lit.Value); err == nil && v == "ATOM_CACHE_DIR" {
			out = append(out, diag{
				pos: fset.Position(call.Pos()),
				msg: fmt.Sprintf("os.%s(\"ATOM_CACHE_DIR\") outside %s: the library must not read the cache directory from the environment (plumb it through the caller)", sel.Sel.Name, cacheEnvOwner),
			})
		}
		return true
	})
	return out
}

// checkCtxPosition flags exported functions whose *obs.Ctx parameter is
// not the first parameter. The stage context threads through the whole
// pipeline as the leading argument (BuildCtx(ctx, exe), LiftCtx(ctx,
// app), ...); an exported signature that buries it breaks the
// convention every caller pattern-matches on.
func checkCtxPosition(fset *token.FileSet, f *ast.File) []diag {
	inObs := f.Name.Name == "obs"
	var out []diag
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || !fn.Name.IsExported() || fn.Type.Params == nil {
			continue
		}
		pos := 0
		for _, field := range fn.Type.Params.List {
			n := len(field.Names)
			if n == 0 {
				n = 1 // unnamed parameter occupies one position
			}
			if isObsCtxPtr(field.Type, inObs) && pos > 0 {
				out = append(out, diag{
					pos: fset.Position(field.Pos()),
					msg: fmt.Sprintf("exported function %s takes *obs.Ctx at parameter position %d: the stage context must be the first parameter", fn.Name.Name, pos),
				})
			}
			pos += n
		}
	}
	return out
}

// checkCtxTwin flags an exported function or method whose whole body is
// `return NameCtx(nil, ...)`: a nil-context twin of its own package's
// Name + "Ctx". A nil *obs.Ctx already disables every span and counter,
// so the twin only adds a second name for one stage. Calls into another
// package (the root facade's core.InstrumentCtx(nil, ...)) and calls to
// a differently named function (rtl.BuildProgram's
// BuildProgramMultiCtx) are not twins.
func checkCtxTwin(fset *token.FileSet, f *ast.File) []diag {
	var out []diag
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || !fn.Name.IsExported() || fn.Body == nil || len(fn.Body.List) != 1 {
			continue
		}
		ret, ok := fn.Body.List[0].(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			continue
		}
		call, ok := ret.Results[0].(*ast.CallExpr)
		if !ok || len(call.Args) == 0 || !isIdent(call.Args[0], "nil") {
			continue
		}
		// A function twin calls its package's function by name; a method
		// twin calls through its own receiver.
		callee := call.Fun
		if sel, ok := callee.(*ast.SelectorExpr); ok && fn.Recv != nil && len(fn.Recv.List[0].Names) == 1 && isIdent(sel.X, fn.Recv.List[0].Names[0].Name) {
			callee = sel.Sel
		} else if fn.Recv != nil {
			continue
		}
		if twin := fn.Name.Name + "Ctx"; isIdent(callee, twin) {
			out = append(out, diag{
				pos: fset.Position(fn.Pos()),
				msg: fmt.Sprintf("exported %s only returns %s(nil, ...): call %s with a nil context instead of keeping a twin", fn.Name.Name, twin, twin),
			})
		}
	}
	return out
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// isObsCtxPtr recognizes *obs.Ctx — and plain *Ctx when the file is in
// package obs.
func isObsCtxPtr(t ast.Expr, inObs bool) bool {
	star, ok := t.(*ast.StarExpr)
	if !ok {
		return false
	}
	switch x := star.X.(type) {
	case *ast.SelectorExpr:
		pkg, ok := x.X.(*ast.Ident)
		return ok && pkg.Name == "obs" && x.Sel.Name == "Ctx"
	case *ast.Ident:
		return inObs && x.Name == "Ctx"
	}
	return false
}

// checkSource parses and checks one file's source text; the entry point
// both drivers and the tests share.
func checkSource(fset *token.FileSet, filename, importPath string, src any) ([]diag, error) {
	f, err := parser.ParseFile(fset, filename, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	return checkFile(fset, f, importPath), nil
}

// importPathForDir maps a repo-relative directory to its import path
// under the atom module ("." -> "atom", "cmd/atom" -> "atom/cmd/atom").
func importPathForDir(rel string) string {
	rel = strings.TrimPrefix(rel, "./")
	if rel == "." || rel == "" {
		return "atom"
	}
	return "atom/" + rel
}
