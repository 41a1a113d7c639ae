#!/bin/sh
# The CI gate, and its only copy (`make ci` runs this script):
# formatting, vet, the atomvet lint, build, race-enabled tests, vet and
# tests of the nested perfbench module, a one-iteration smoke of the Go
# benchmarks (ablations, parallel and disk-warm instrumentation, substrate
# costs) so they cannot rot silently, a short fuzz smoke of
# the on-disk decoders, then the end-to-end CLI
# gates — trace, profile, vet, inline, IR, persistence, telemetry, and
# analyze — each introduced by a comment naming it below.
set -eux

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt: needs formatting: $fmt" >&2
    exit 1
fi

go vet ./...
go build ./...

# Repo lint gate: the custom vettool enforces project conventions the
# stock vet cannot — no ATOM_CACHE_DIR reads outside cmd/atom, and the
# *obs.Ctx stage context leading every exported signature — through the
# cmd/go vettool protocol.
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
# of bytes read back from disk — the IR blob (om.FuzzDecode) and the
# tool-image codec (FuzzImageDecode) — beyond their committed seeds.
go test -run='^$' -fuzz='^FuzzDecode$' -fuzztime=5s ./internal/om
go test -run='^$' -fuzz='^FuzzImageDecode$' -fuzztime=5s ./internal/core

# Trace smoke: compile and link a program, instrument it with tracing
# on, and validate the trace file (non-empty, well-formed, covering
# compile/link/plan/image-build/apply with cache attribution).
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cat > "$tmp/smoke.c" <<'EOF'
#include <stdio.h>
int main() { printf("ok\n"); return 0; }
EOF
go run ./cmd/minicc -o "$tmp/smoke.o" "$tmp/smoke.c"
go run ./cmd/alink -o "$tmp/smoke.x" "$tmp/smoke.o"
go run ./cmd/atom -t branch -trace "$tmp/smoke.trace.json" -o "$tmp/smoke.atom" "$tmp/smoke.x"
go run ./cmd/atom -verify-trace "$tmp/smoke.trace.json"

# Profile smoke: instrument and run the program with the sampling
# profiler attached, twice; the folded-stack profiles must be
# syntactically valid and byte-identical (deterministic sampling).
go run ./cmd/atom -t branch -run -profile "$tmp/p1.folded" -profile-format=folded -profile-period 500 "$tmp/smoke.x" > /dev/null
go run ./cmd/atom -t branch -run -profile "$tmp/p2.folded" -profile-format=folded -profile-period 500 "$tmp/smoke.x" > /dev/null
go run ./cmd/atom -verify-folded "$tmp/p1.folded"
cmp "$tmp/p1.folded" "$tmp/p2.folded"
go run ./cmd/atom -t branch -run -profile "$tmp/p.flat" -profile-period 500 "$tmp/smoke.x" > /dev/null
grep -q '# atom prof: period=500' "$tmp/p.flat"

# Vet gate: instrument the smoke program with EVERY built-in tool under
# -vet, so the IR verifier checks the input program, the layout PC maps,
# and the rewritten text of each tool's output.
go build -o "$tmp/atom" ./cmd/atom
for t in $("$tmp/atom" -list | awk '{print $1}'); do
    "$tmp/atom" -vet -t "$t" -o "$tmp/smoke.$t.atom" "$tmp/smoke.x"
done

# Inline gate: every tool verifies under -vet with the inliner both on
# (the default, checked just above) and off, and the examples must
# produce identical program and analysis output with and without
# -noinline (the "instrumented:" size line legitimately differs between
# modes, so it is filtered before comparing).
for t in $("$tmp/atom" -list | awk '{print $1}'); do
    "$tmp/atom" -vet -noinline -t "$t" -o "$tmp/smoke.$t.noinline.atom" "$tmp/smoke.x"
done
go run ./examples/quickstart | grep -v '^instrumented:' > "$tmp/q.on"
go run ./examples/quickstart -noinline | grep -v '^instrumented:' > "$tmp/q.off"
cmp "$tmp/q.on" "$tmp/q.off"
go run ./examples/cachesim > "$tmp/c.on"
go run ./examples/cachesim -noinline > "$tmp/c.off"
cmp "$tmp/c.on" "$tmp/c.off"

# IR gate: serialize the smoke program's lifted IR, then instrument from
# the blob with EVERY tool (in a separate process from the emit); each
# output must be byte-identical to the vet gate's in-memory result.
"$tmp/atom" -emit-ir "$tmp/ir" "$tmp/smoke.x"
for t in $("$tmp/atom" -list | awk '{print $1}'); do
    "$tmp/atom" -vet -t "$t" -ir-in "$tmp/ir/smoke.ir" -o "$tmp/smoke.$t.ir.atom"
    cmp "$tmp/smoke.$t.atom" "$tmp/smoke.$t.ir.atom"
done

# Persistence gate: two fresh processes sharing one -cache-dir. The first
# (cold) builds and persists every artifact; the second must instrument
# with ZERO builds in every cache — the tool image and the IR blob served
# from disk — and byte-identical output. Then every blob is corrupted in
# place: the third run must quarantine what it reads, rebuild silently
# (exit 0), and still produce identical output.
"$tmp/atom" -t branch -cache-dir "$tmp/cache" -o "$tmp/smoke.cold.atom" "$tmp/smoke.x"
"$tmp/atom" -t branch -cache-dir "$tmp/cache" -stats -o "$tmp/smoke.warm.atom" "$tmp/smoke.x" > "$tmp/warm.stats"
cmp "$tmp/smoke.cold.atom" "$tmp/smoke.warm.atom"
grep -q 'image cache:.*, 0 builds' "$tmp/warm.stats"
grep -q 'object cache:.*, 0 builds' "$tmp/warm.stats"
grep -q 'ir cache:.*, 0 builds' "$tmp/warm.stats"
grep -Eq 'image cache:.* [1-9][0-9]* disk hits' "$tmp/warm.stats"
grep -Eq 'ir cache:.* [1-9][0-9]* disk hits' "$tmp/warm.stats"
for f in $(find "$tmp/cache/objects" -type f); do
    head -c 20 "$f" > "$f.trunc" && mv "$f.trunc" "$f"
done
"$tmp/atom" -t branch -cache-dir "$tmp/cache" -stats -o "$tmp/smoke.rebuilt.atom" "$tmp/smoke.x" > "$tmp/rebuild.stats"
cmp "$tmp/smoke.cold.atom" "$tmp/smoke.rebuilt.atom"
grep -Eq 'disk store:.* [1-9][0-9]* corrupt' "$tmp/rebuild.stats"

# Telemetry gate: the embedded debug server, live. First a multi-program
# instrument batch brings the server up and down cleanly and counts its
# programs (atom.batch.done) in the metrics snapshot. Then a long VM run
# with -debug-addr is scraped mid-flight — /healthz, /metrics twice (the
# second monotonically >= the first on every _total, and the series
# ordering byte-identical), and 100 NDJSON events — using atom's own
# -scrape so the gate needs no curl; the run must still exit 0.
cp "$tmp/smoke.x" "$tmp/smoke2.x"
cp "$tmp/smoke.x" "$tmp/smoke3.x"
"$tmp/atom" -t branch -j 2 -debug-addr 127.0.0.1:0 -metrics "$tmp/batch.metrics" \
    "$tmp/smoke.x" "$tmp/smoke2.x" "$tmp/smoke3.x" 2> "$tmp/batch.err"
grep -q 'telemetry listening on http://' "$tmp/batch.err"
grep -Eq 'atom\.batch\.done +3' "$tmp/batch.metrics"
cat > "$tmp/long.c" <<'EOF'
#include <stdio.h>
int main() { long i, s = 0; for (i = 0; i < 5000000; i++) s += i; printf("%ld\n", s); return 0; }
EOF
go run ./cmd/minicc -o "$tmp/long.o" "$tmp/long.c"
go run ./cmd/alink -o "$tmp/long.x" "$tmp/long.o"
"$tmp/atom" -t branch -run -debug-addr 127.0.0.1:0 "$tmp/long.x" > /dev/null 2> "$tmp/tel.err" &
telpid=$!
addr=""
i=0
while [ $i -lt 200 ]; do
    addr=$(sed -n 's|.*telemetry listening on http://||p' "$tmp/tel.err")
    [ -n "$addr" ] && break
    i=$((i + 1))
    sleep 0.1
done
test -n "$addr"
"$tmp/atom" -scrape "http://$addr/healthz" | grep -qx ok
"$tmp/atom" -scrape "http://$addr/metrics" > "$tmp/m1.txt"
"$tmp/atom" -scrape "http://$addr/debug/events?n=100" > "$tmp/ev.txt"
"$tmp/atom" -scrape "http://$addr/metrics" > "$tmp/m2.txt"
test "$(wc -l < "$tmp/ev.txt")" -eq 100
test "$(grep -c '"seq"' "$tmp/ev.txt")" -eq 100
grep -q '^atom_store_image_miss_total' "$tmp/m1.txt"
awk '!/^#/{print $1}' "$tmp/m1.txt" > "$tmp/names1"
awk '!/^#/{print $1}' "$tmp/m2.txt" > "$tmp/names2"
grep -Fxf "$tmp/names1" "$tmp/names2" > "$tmp/names2.common"
cmp "$tmp/names1" "$tmp/names2.common"
awk 'NR==FNR { if ($1 ~ /_total/) v[$1]=$2; next }
     ($1 in v) && ($2+0 < v[$1]+0) { print "regressed:", $1, v[$1], "->", $2; bad=1 }
     END { exit bad }' "$tmp/m1.txt" "$tmp/m2.txt"
wait "$telpid"

# Analyze gate: the static-analysis pass manager reports every built-in
# tool image clean, byte-identically (text and JSON) across two runs,
# and the smoke programs analyze clean as applications; then a seeded
# save-discipline defect must be caught — an image that clobbers a
# callee-save register fails -analyze with the toollint diagnostic.
for t in $("$tmp/atom" -list | awk '{print $1}'); do
    "$tmp/atom" -analyze -t "$t" -analyze-json "$tmp/an1.$t.json" > "$tmp/an1.$t.txt"
    "$tmp/atom" -analyze -t "$t" -analyze-json "$tmp/an2.$t.json" > "$tmp/an2.$t.txt"
    cmp "$tmp/an1.$t.txt" "$tmp/an2.$t.txt"
    cmp "$tmp/an1.$t.json" "$tmp/an2.$t.json"
    grep -q "tool:$t: clean" "$tmp/an1.$t.txt"
done
"$tmp/atom" -analyze "$tmp/smoke.x" "$tmp/long.x" > "$tmp/an.apps.txt"
grep -q 'smoke.x: clean' "$tmp/an.apps.txt"
grep -q 'long.x: clean' "$tmp/an.apps.txt"
cat > "$tmp/defect.s" <<'EOS'
	.text
	.globl main
	.ent main
main:
	clr v0
	ret (ra)
	.end main

	.globl Clobber
	.ent Clobber
Clobber:
	addq s0, 1, s0
	ret (ra)
	.end Clobber
EOS
go run ./cmd/aasm -o "$tmp/defect.o" "$tmp/defect.s"
go run ./cmd/alink -o "$tmp/defect.x" "$tmp/defect.o"
if "$tmp/atom" -analyze -analyze-as tool "$tmp/defect.x" > "$tmp/an.defect.txt"; then
    echo "analyze: seeded save-discipline defect not caught" >&2
    exit 1
fi
grep -q 'clobbers callee-save register s0' "$tmp/an.defect.txt"
