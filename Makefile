# Development targets. `make ci` is the gate: formatting, vet, build,
# race-enabled tests, a one-iteration benchmark smoke so the Figure 5/6
# harness cannot rot silently, and a trace smoke that validates the
# observability pipeline end to end.

GO ?= go

.PHONY: all build fmt vet vettool test race benchsmoke tracesmoke profsmoke vetsmoke inlinesmoke irsmoke persistsmoke telemetrysmoke analyzesmoke bench ci

all: build

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt: needs formatting: $$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Every benchmark once, no measurement: proves the harness still runs.
benchsmoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Instrument a program with tracing on and validate the emitted trace.
tracesmoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	printf '#include <stdio.h>\nint main() { printf("ok\\n"); return 0; }\n' > $$tmp/smoke.c; \
	$(GO) run ./cmd/minicc -o $$tmp/smoke.o $$tmp/smoke.c; \
	$(GO) run ./cmd/alink -o $$tmp/smoke.x $$tmp/smoke.o; \
	$(GO) run ./cmd/atom -t branch -trace $$tmp/smoke.trace.json -o $$tmp/smoke.atom $$tmp/smoke.x; \
	$(GO) run ./cmd/atom -verify-trace $$tmp/smoke.trace.json

# Instrument and run a program with the sampling profiler, twice;
# folded output must validate and be byte-identical across runs.
profsmoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	printf '#include <stdio.h>\nint main() { printf("ok\\n"); return 0; }\n' > $$tmp/smoke.c; \
	$(GO) run ./cmd/minicc -o $$tmp/smoke.o $$tmp/smoke.c; \
	$(GO) run ./cmd/alink -o $$tmp/smoke.x $$tmp/smoke.o; \
	$(GO) run ./cmd/atom -t branch -run -profile $$tmp/p1.folded -profile-format=folded -profile-period 500 $$tmp/smoke.x > /dev/null; \
	$(GO) run ./cmd/atom -t branch -run -profile $$tmp/p2.folded -profile-format=folded -profile-period 500 $$tmp/smoke.x > /dev/null; \
	$(GO) run ./cmd/atom -verify-folded $$tmp/p1.folded; \
	cmp $$tmp/p1.folded $$tmp/p2.folded

# Instrument a program with every built-in tool under -vet: the IR
# verifier checks the input, the PC maps, and each rewritten output.
vetsmoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	printf '#include <stdio.h>\nint main() { printf("ok\\n"); return 0; }\n' > $$tmp/smoke.c; \
	$(GO) run ./cmd/minicc -o $$tmp/smoke.o $$tmp/smoke.c; \
	$(GO) run ./cmd/alink -o $$tmp/smoke.x $$tmp/smoke.o; \
	$(GO) build -o $$tmp/atom ./cmd/atom; \
	for t in $$($$tmp/atom -list | awk '{print $$1}'); do \
		$$tmp/atom -vet -t $$t -o $$tmp/smoke.$$t.atom $$tmp/smoke.x || exit 1; \
	done

# Inliner gate: every tool verifies under -vet with the inliner both on
# (the default) and off, and the examples produce identical program and
# analysis output with and without -noinline (the "instrumented:" size
# line legitimately differs, so it is filtered).
inlinesmoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	printf '#include <stdio.h>\nint main() { printf("ok\\n"); return 0; }\n' > $$tmp/smoke.c; \
	$(GO) run ./cmd/minicc -o $$tmp/smoke.o $$tmp/smoke.c; \
	$(GO) run ./cmd/alink -o $$tmp/smoke.x $$tmp/smoke.o; \
	$(GO) build -o $$tmp/atom ./cmd/atom; \
	for t in $$($$tmp/atom -list | awk '{print $$1}'); do \
		$$tmp/atom -vet -t $$t -o $$tmp/smoke.$$t.on.atom $$tmp/smoke.x || exit 1; \
		$$tmp/atom -vet -noinline -t $$t -o $$tmp/smoke.$$t.off.atom $$tmp/smoke.x || exit 1; \
	done; \
	$(GO) run ./examples/quickstart | grep -v '^instrumented:' > $$tmp/q.on; \
	$(GO) run ./examples/quickstart -noinline | grep -v '^instrumented:' > $$tmp/q.off; \
	cmp $$tmp/q.on $$tmp/q.off; \
	$(GO) run ./examples/cachesim > $$tmp/c.on; \
	$(GO) run ./examples/cachesim -noinline > $$tmp/c.off; \
	cmp $$tmp/c.on $$tmp/c.off

# IR gate: serialize the smoke program's lifted IR (-emit-ir), then
# instrument from the blob (-ir-in) with every tool in a separate
# process; each output must be byte-identical to the in-memory path.
irsmoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	printf '#include <stdio.h>\nint main() { printf("ok\\n"); return 0; }\n' > $$tmp/smoke.c; \
	$(GO) run ./cmd/minicc -o $$tmp/smoke.o $$tmp/smoke.c; \
	$(GO) run ./cmd/alink -o $$tmp/smoke.x $$tmp/smoke.o; \
	$(GO) build -o $$tmp/atom ./cmd/atom; \
	$$tmp/atom -emit-ir $$tmp/ir $$tmp/smoke.x; \
	for t in $$($$tmp/atom -list | awk '{print $$1}'); do \
		$$tmp/atom -vet -t $$t -o $$tmp/smoke.$$t.atom $$tmp/smoke.x || exit 1; \
		$$tmp/atom -vet -t $$t -ir-in $$tmp/ir/smoke.ir -o $$tmp/smoke.$$t.ir.atom || exit 1; \
		cmp $$tmp/smoke.$$t.atom $$tmp/smoke.$$t.ir.atom || exit 1; \
	done

# Persistence gate: two fresh processes share one -cache-dir; the second
# must instrument with zero builds (artifacts decoded from disk) and
# byte-identical output, and corrupted blobs must be quarantined and
# silently rebuilt.
persistsmoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	printf '#include <stdio.h>\nint main() { printf("ok\\n"); return 0; }\n' > $$tmp/smoke.c; \
	$(GO) run ./cmd/minicc -o $$tmp/smoke.o $$tmp/smoke.c; \
	$(GO) run ./cmd/alink -o $$tmp/smoke.x $$tmp/smoke.o; \
	$(GO) build -o $$tmp/atom ./cmd/atom; \
	$$tmp/atom -t branch -cache-dir $$tmp/cache -o $$tmp/smoke.cold.atom $$tmp/smoke.x; \
	$$tmp/atom -t branch -cache-dir $$tmp/cache -stats -o $$tmp/smoke.warm.atom $$tmp/smoke.x > $$tmp/warm.stats; \
	cmp $$tmp/smoke.cold.atom $$tmp/smoke.warm.atom; \
	grep -q 'image cache:.*, 0 builds' $$tmp/warm.stats; \
	grep -q 'object cache:.*, 0 builds' $$tmp/warm.stats; \
	grep -q 'ir cache:.*, 0 builds' $$tmp/warm.stats; \
	grep -Eq 'image cache:.* [1-9][0-9]* disk hits' $$tmp/warm.stats; \
	grep -Eq 'ir cache:.* [1-9][0-9]* disk hits' $$tmp/warm.stats; \
	for f in $$(find $$tmp/cache/objects -type f); do \
		head -c 20 $$f > $$f.trunc && mv $$f.trunc $$f; \
	done; \
	$$tmp/atom -t branch -cache-dir $$tmp/cache -stats -o $$tmp/smoke.rebuilt.atom $$tmp/smoke.x > $$tmp/rebuild.stats; \
	cmp $$tmp/smoke.cold.atom $$tmp/smoke.rebuilt.atom; \
	grep -Eq 'disk store:.* [1-9][0-9]* corrupt' $$tmp/rebuild.stats

# Telemetry gate: a batch brings the debug server up and down cleanly
# (batch counters land in the metrics snapshot), then a long VM run with
# -debug-addr is scraped mid-flight: /healthz, /metrics twice (second
# monotonically >= first on every _total, series ordering identical),
# and 100 NDJSON events — via atom's own -scrape, so no curl needed.
telemetrysmoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	printf '#include <stdio.h>\nint main() { printf("ok\\n"); return 0; }\n' > $$tmp/smoke.c; \
	$(GO) run ./cmd/minicc -o $$tmp/smoke.o $$tmp/smoke.c; \
	$(GO) run ./cmd/alink -o $$tmp/smoke.x $$tmp/smoke.o; \
	$(GO) build -o $$tmp/atom ./cmd/atom; \
	cp $$tmp/smoke.x $$tmp/smoke2.x; cp $$tmp/smoke.x $$tmp/smoke3.x; \
	$$tmp/atom -t branch -j 2 -debug-addr 127.0.0.1:0 -metrics $$tmp/batch.metrics \
		$$tmp/smoke.x $$tmp/smoke2.x $$tmp/smoke3.x 2> $$tmp/batch.err; \
	grep -q 'telemetry listening on http://' $$tmp/batch.err; \
	grep -Eq 'atom\.batch\.done +3' $$tmp/batch.metrics; \
	printf '#include <stdio.h>\nint main() { long i, s = 0; for (i = 0; i < 5000000; i++) s += i; printf("%%ld\\n", s); return 0; }\n' > $$tmp/long.c; \
	$(GO) run ./cmd/minicc -o $$tmp/long.o $$tmp/long.c; \
	$(GO) run ./cmd/alink -o $$tmp/long.x $$tmp/long.o; \
	$$tmp/atom -t branch -run -debug-addr 127.0.0.1:0 $$tmp/long.x > /dev/null 2> $$tmp/tel.err & telpid=$$!; \
	addr=""; i=0; \
	while [ $$i -lt 200 ]; do \
		addr=$$(sed -n 's|.*telemetry listening on http://||p' $$tmp/tel.err); \
		[ -n "$$addr" ] && break; i=$$((i + 1)); sleep 0.1; \
	done; \
	test -n "$$addr"; \
	$$tmp/atom -scrape http://$$addr/healthz | grep -qx ok; \
	$$tmp/atom -scrape http://$$addr/metrics > $$tmp/m1.txt; \
	$$tmp/atom -scrape "http://$$addr/debug/events?n=100" > $$tmp/ev.txt; \
	$$tmp/atom -scrape http://$$addr/metrics > $$tmp/m2.txt; \
	test "$$(wc -l < $$tmp/ev.txt)" -eq 100; \
	test "$$(grep -c '"seq"' $$tmp/ev.txt)" -eq 100; \
	grep -q '^atom_store_image_miss_total' $$tmp/m1.txt; \
	awk '!/^\#/{print $$1}' $$tmp/m1.txt > $$tmp/names1; \
	awk '!/^\#/{print $$1}' $$tmp/m2.txt > $$tmp/names2; \
	grep -Fxf $$tmp/names1 $$tmp/names2 > $$tmp/names2.common; \
	cmp $$tmp/names1 $$tmp/names2.common; \
	awk 'NR==FNR { if ($$1 ~ /_total/) v[$$1]=$$2; next } ($$1 in v) && ($$2+0 < v[$$1]+0) { print "regressed:", $$1, v[$$1], "->", $$2; bad=1 } END { exit bad }' $$tmp/m1.txt $$tmp/m2.txt; \
	wait $$telpid

# Project-convention lint: the custom vettool (cmd/atomvet) through the
# cmd/go vettool protocol — no ATOM_CACHE_DIR reads outside cmd/atom,
# *obs.Ctx leads every exported signature.
vettool:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/atomvet ./cmd/atomvet; \
	$(GO) vet -vettool=$$tmp/atomvet ./...

# Analyze gate: every built-in tool image reports clean under -analyze,
# byte-identically across two runs, and a seeded save-discipline defect
# is caught with a non-zero exit.
analyzesmoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	printf '#include <stdio.h>\nint main() { printf("ok\\n"); return 0; }\n' > $$tmp/smoke.c; \
	$(GO) run ./cmd/minicc -o $$tmp/smoke.o $$tmp/smoke.c; \
	$(GO) run ./cmd/alink -o $$tmp/smoke.x $$tmp/smoke.o; \
	$(GO) build -o $$tmp/atom ./cmd/atom; \
	for t in $$($$tmp/atom -list | awk '{print $$1}'); do \
		$$tmp/atom -analyze -t $$t > $$tmp/an1.$$t.txt || exit 1; \
		$$tmp/atom -analyze -t $$t > $$tmp/an2.$$t.txt || exit 1; \
		cmp $$tmp/an1.$$t.txt $$tmp/an2.$$t.txt || exit 1; \
		grep -q "tool:$$t: clean" $$tmp/an1.$$t.txt || exit 1; \
	done; \
	$$tmp/atom -analyze $$tmp/smoke.x > $$tmp/an.app.txt; \
	grep -q 'smoke.x: clean' $$tmp/an.app.txt; \
	printf '\t.text\n\t.globl main\n\t.ent main\nmain:\n\tclr v0\n\tret (ra)\n\t.end main\n\n\t.globl Clobber\n\t.ent Clobber\nClobber:\n\taddq s0, 1, s0\n\tret (ra)\n\t.end Clobber\n' > $$tmp/defect.s; \
	$(GO) run ./cmd/aasm -o $$tmp/defect.o $$tmp/defect.s; \
	$(GO) run ./cmd/alink -o $$tmp/defect.x $$tmp/defect.o; \
	if $$tmp/atom -analyze -analyze-as tool $$tmp/defect.x > $$tmp/an.defect.txt; then \
		echo "analyze: seeded save-discipline defect not caught" >&2; exit 1; \
	fi; \
	grep -q 'clobbers callee-save register s0' $$tmp/an.defect.txt

# Real measurements (slow); see EXPERIMENTS.md for recorded numbers.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

ci: fmt vet vettool build race benchsmoke tracesmoke profsmoke vetsmoke inlinesmoke irsmoke persistsmoke telemetrysmoke analyzesmoke
