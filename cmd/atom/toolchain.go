package main

// The toolchain subcommands the paper's atom sits beside: atom cc, as, ld
// and dis.

import (
	"encoding/binary"
	"fmt"
	"os"

	"atom/internal/alpha"
	"atom/internal/aout"
	"atom/internal/asm"
	"atom/internal/cc"
	"atom/internal/link"
	"atom/internal/rtl"
)

// cmdCC compiles one MiniC file to a relocatable object, or to assembly
// text with -S (on stdout unless -o names a file).
func cmdCC(args []string) int {
	fs := newFlags("atom cc", "usage: atom cc [-S] [-o file.o] file.c")
	out := fs.String("o", "", "output path (default: input with .o)")
	asmOnly := fs.Bool("S", false, "emit assembly text instead of an object")
	paths, err := parse(fs, args, 1, 1)
	if err != nil {
		return parseStatus(err)
	}
	path := paths[0]
	src, err := os.ReadFile(path)
	if err != nil {
		return fail(err)
	}
	hdrs, err := rtl.HeadersCtx(nil)
	if err != nil {
		return fail(err)
	}
	if *asmOnly {
		text, err := cc.CompileCtx(nil, path, string(src), hdrs)
		if err != nil {
			return fail(err)
		}
		if *out == "" || *out == "-" {
			fmt.Print(text)
			return 0
		}
		return failIf(os.WriteFile(*out, []byte(text), 0o644))
	}
	obj, err := cc.BuildCtx(nil, path, string(src), hdrs)
	if err != nil {
		return fail(err)
	}
	return failIf(obj.WriteFile(outputName(path, *out, ".o")))
}

// cmdAs assembles one assembly file to a relocatable object.
func cmdAs(args []string) int {
	fs := newFlags("atom as", "usage: atom as [-o file.o] file.s")
	out := fs.String("o", "", "output path (default: input with .o)")
	paths, err := parse(fs, args, 1, 1)
	if err != nil {
		return parseStatus(err)
	}
	src, err := os.ReadFile(paths[0])
	if err != nil {
		return fail(err)
	}
	obj, err := asm.AssembleCtx(nil, paths[0], string(src))
	if err != nil {
		return fail(err)
	}
	return failIf(obj.WriteFile(outputName(paths[0], *out, ".o")))
}

// cmdLd links object modules into an executable, adding crt0 and
// resolving against the runtime library like cc's driver handing objects
// to ld.
func cmdLd(args []string) int {
	fs := newFlags("atom ld", "usage: atom ld [-o a.x] file.o...")
	out := fs.String("o", "a.x", "output executable")
	paths, err := parse(fs, args, 1, -1)
	if err != nil {
		return parseStatus(err)
	}
	c0, err := rtl.Crt0Ctx(nil)
	if err != nil {
		return fail(err)
	}
	objs := []*aout.File{c0}
	for _, p := range paths {
		obj, err := aout.ReadFile(p)
		if err != nil {
			return fail(err)
		}
		objs = append(objs, obj)
	}
	lib, err := rtl.LibCtx(nil)
	if err != nil {
		return fail(err)
	}
	exe, err := link.LinkCtx(nil, link.Config{}, objs, lib)
	if err != nil {
		return fail(err)
	}
	return failIf(exe.WriteFile(*out))
}

// cmdDis disassembles the text section of an object module or
// executable, one procedure per section; branch targets are annotated
// with the procedure they enter, and a word that does not decode prints
// as .word.
func cmdDis(args []string) int {
	fs := newFlags("atom dis", "usage: atom dis file")
	paths, err := parse(fs, args, 1, 1)
	if err != nil {
		return parseStatus(err)
	}
	f, err := aout.ReadFile(paths[0])
	if err != nil {
		return fail(err)
	}
	nameAt := map[uint64]string{}
	for _, fn := range f.Funcs() {
		nameAt[fn.Value] = fn.Name
	}
	for off := 0; off+4 <= len(f.Text); off += 4 {
		addr := f.TextAddr + uint64(off)
		if n, ok := nameAt[addr]; ok {
			fmt.Printf("\n%s:\n", n)
		}
		w := binary.LittleEndian.Uint32(f.Text[off:])
		in, err := alpha.Decode(w)
		if err != nil {
			fmt.Printf("%#10x:  .word %#08x\n", addr, w)
			continue
		}
		s := in.String()
		if in.Op.Format() == alpha.FormatBranch {
			target := addr + 4 + uint64(int64(in.Disp)*4)
			s = fmt.Sprintf("%s %s, %#x", in.Op, in.Ra, target)
			if tn, ok := nameAt[target]; ok {
				s += " <" + tn + ">"
			}
		}
		fmt.Printf("%#10x:  %s\n", addr, s)
	}
	return 0
}

// failIf is fail for a non-nil err and 0 otherwise.
func failIf(err error) int {
	if err != nil {
		return fail(err)
	}
	return 0
}
