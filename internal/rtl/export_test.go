package rtl

// Test hooks: inject a transient failure into the runtime build and
// clear the memoized runtime, so rtl_test can prove a failed build is
// retried rather than latched.

// SetBuildFault installs (or, with nil, removes) a fault consulted at
// the start of every runtime build.
func SetBuildFault(f func() error) { buildFault = f }

// ResetRuntimeCache drops the memoized runtime library build.
func ResetRuntimeCache() { rtCache.Reset() }
