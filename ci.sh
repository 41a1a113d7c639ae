#!/bin/sh
# The CI gate, and its only copy (`make ci` runs this script):
# formatting, vet, the atomvet lint, build, race-enabled tests, vet and
# tests of the nested perfbench module, a one-iteration smoke of the Go
# benchmarks (ablations, parallel and disk-warm instrumentation, substrate
# costs) so they cannot rot silently, and a short fuzz smoke of every
# on-disk decoder: the executable reader, the blob-file reader and each
# store codec. The end-to-end CLI gates — trace, profile, vet,
# inline, persistence, telemetry, analyze, heap scheme, batch output
# collision, argument order and run stdin — are Go tests that the test
# runs execute: cmd/atom/e2e_test.go drives the one built atom command,
# and examples_test.go runs the examples.
set -eux

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt: needs formatting: $fmt" >&2
    exit 1
fi

go vet ./...
go build ./...

# Repo lint gate: the custom vettool enforces project conventions the
# stock vet cannot — no ATOM_CACHE_DIR reads outside cmd/atom, the
# *obs.Ctx stage context leading every exported signature, and no
# exported nil-context twin (X that only returns its package's
# XCtx(nil, ...)) — through the cmd/go vettool protocol.
vettmp=$(mktemp -d)
go build -o "$vettmp/atomvet" ./cmd/atomvet
go vet -vettool="$vettmp/atomvet" ./...
rm -rf "$vettmp"

go test -race ./...

# The benchmark is a nested module (perfbench/), so the commands above
# do not see it: vet and test it here, so an internal API change breaks
# CI instead of the next benchmark run.
(cd perfbench && go vet ./... && go test ./...)

# Benchmark smoke: every Go benchmark once, no measurement — proves the
# ablation and substrate benchmarks still run.
go test -bench=. -benchtime=1x -run='^$' ./...

# Fuzz smoke: a few seconds of coverage-guided fuzzing on each decoder
# of bytes read back from disk — the executable reader (aout.FuzzDecode)
# and the lift over what it accepts (om.FuzzBuild: an error or a
# Program that verifies clean, never a panic),
# the cache directory's blob-file reader (build.FuzzVerifyBlobFile) and
# the two store codecs: tool images (FuzzImageDecode) and the file lists
# that carry object sets, the runtime library and linked executables
# (FuzzObjectsDecode) — beyond their committed seeds, on
# the loader and machine over any executable the reader accepts
# (vm.FuzzNew: New and Run fail, never panic), on the superblock loop
# against the Step loop over generated programs
# (vm.FuzzSuperblockVsStep), on the layout's slot tables under
# fuzzed splices (om.FuzzLayout), and on the liveness solver against its
# naive reference over generated programs (dataflow.FuzzLiveness).
go test -run='^$' -fuzz='^FuzzDecode$' -fuzztime=5s ./internal/aout
go test -run='^$' -fuzz='^FuzzBuild$' -fuzztime=5s ./internal/om
go test -run='^$' -fuzz='^FuzzNew$' -fuzztime=5s ./internal/vm
go test -run='^$' -fuzz='^FuzzVerifyBlobFile$' -fuzztime=5s ./internal/build
go test -run='^$' -fuzz='^FuzzImageDecode$' -fuzztime=5s ./internal/core
go test -run='^$' -fuzz='^FuzzObjectsDecode$' -fuzztime=5s ./internal/rtl
go test -run='^$' -fuzz='^FuzzSuperblockVsStep$' -fuzztime=5s ./internal/vm
go test -run='^$' -fuzz='^FuzzLayout$' -fuzztime=5s ./internal/om
go test -run='^$' -fuzz='^FuzzLiveness$' -fuzztime=5s ./internal/om/dataflow
