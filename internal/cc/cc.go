// Package cc implements a compiler for MiniC, the C subset in which this
// reproduction writes application programs and ATOM analysis routines.
//
// The paper's tools are ordinary C code (Figures 2 and 3); analysis
// routines must become real machine code linked into the instrumented
// executable, sharing nothing with the application. MiniC is rich enough
// to port that code nearly verbatim:
//
//   - types: char (unsigned byte), int/long (64-bit signed), pointers,
//     arrays, structs; sizeof; casts
//   - control flow: if/else, while, do-while, for, switch, break,
//     continue, return
//   - expressions: the full C operator set minus the comma operator;
//     ++/-- in both positions; short-circuit && and ||; ?:
//   - functions with up to six register arguments plus stack arguments,
//     variadic functions (printf) via a register-save area and the
//     __arg(i) intrinsic
//   - globals with constant initializers (including brace lists, string
//     literals, and addresses of globals); extern and static linkage
//   - a miniature preprocessor: #include of caller-supplied headers and
//     object-like #define macros
//
// Deviations from C are deliberate simplifications of the substrate, not
// of ATOM: int is 64-bit, char is unsigned, there is no floating point,
// and function pointers are rejected. Division and modulo compile to
// calls to __divq/__remq (the Alpha has no integer divide instruction).
//
// Compile produces assembly text for internal/asm; Build goes all the
// way to a relocatable aout object module.
package cc

import (
	"atom/internal/aout"
	"atom/internal/asm"
	"atom/internal/obs"
)

// CompileCtx translates MiniC source to assembly text. name is used in
// diagnostics; include maps header names (as written in #include) to
// their contents. The whole translation unit compiles under a
// "cc.compile" span, and code generation opens one "cc.func" span per
// function (the compiler's unit of work), so traces show where compile
// time goes file by file and function by function.
func CompileCtx(ctx *obs.Ctx, name, src string, include map[string]string) (string, error) {
	ctx, sp := ctx.Start("cc.compile", obs.String("file", name))
	defer sp.End()
	toks, err := lex(name, src, include)
	if err != nil {
		return "", err
	}
	prog, err := parse(name, toks)
	if err != nil {
		return "", err
	}
	if err := check(name, prog); err != nil {
		return "", err
	}
	return generate(ctx, prog)
}

// BuildCtx compiles MiniC source into a relocatable object module, with
// ctx threaded through compilation and assembly.
func BuildCtx(ctx *obs.Ctx, name, src string, include map[string]string) (*aout.File, error) {
	asmText, err := CompileCtx(ctx, name, src, include)
	if err != nil {
		return nil, err
	}
	return asm.AssembleCtx(ctx, name, asmText)
}
