# Development targets. The CI gate lives in one script, ci.sh
# (formatting, vet, the atomvet lint, build, race-enabled tests, which
# include the end-to-end CLI gates, a one-iteration benchmark smoke and
# a fuzz smoke); `make ci` runs it.

GO ?= go

.PHONY: all build vet test race bench ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Real measurements (slow); see EXPERIMENTS.md for recorded numbers.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

ci:
	sh ci.sh
