package cc

import "atom/internal/aout"

// BuildForTest exposes Build to the external test package.
func BuildForTest(src string, include map[string]string) (*aout.File, error) {
	return BuildCtx(nil, "test.c", src, include)
}
