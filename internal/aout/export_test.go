package aout

// Test hooks for the external aout_test package, whose fuzz seeds
// include a linked suite executable (internal/spec imports aout, so
// only an external test package may import spec).

var (
	SampleFile = sampleFile
	FilesEqual = filesEqual
)
