GO ?= go
# bench-pair's recipe is bash (pipefail, arithmetic, functions).
SHELL := /bin/bash

.PHONY: check build vet lint test-race test-allocs results-check results-check-full bench bench-e2e bench-pair bench-all fuzz results loc clean

## check: build + vet + drainvet (four analyzers) + race tests + the
## hot-path allocation guards + the committed quick tables regenerated
## and compared.
# The race run uses -short (race instrumentation makes the simulator ~10x
# slower); the allocation guards need a separate non-race run because the
# detector's bookkeeping allocations would trip them (they skip
# themselves under race).
check: build vet lint test-race test-allocs results-check

build:
	$(GO) build ./...

## vet: go vet, and gofmt over everything but the analyzers' fixtures
## (one of which is misformatted on purpose).
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l . | grep -v /testdata/ || true); test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

## lint: the repo's own four static analyzers (maprange, nondet,
## hotalloc, ctxflow) over the whole module; see internal/lint and
## DESIGN.md §10.
lint:
	$(GO) run ./cmd/drainvet ./...

test-race:
	$(GO) test -race -short ./...

test-allocs:
	$(GO) test -run 'TestStepAllocs|TestStepWindowAllocs|TestRunAllocsPerDeliveredPacket|TestAppRunAllocsPerMessage|TestGoldenCounters|TestReconfigureAndDrainRotateAllocs|TestRotateBlockedCycleAllocs|TestValidateFaultScheduleAllocs|TestRestoreBuildsNoTable|TestNewTableAllocs|TestNewAllocs' -count=1 . ./internal/sim ./internal/noc ./internal/routing ./internal/coherence

## bench: run and print the hot-path Go benchmarks (BenchmarkStep's
## event/dense load points, BenchmarkStepAllocs), the fault path's
## (BenchmarkFaultEvent: one failure + one restore; BenchmarkValidateFaultSchedule)
## and the coherence set-up's (BenchmarkCoherenceNew: the 8x8 pagerank
## L1 prewarm): a look at the cycle core, the reconfiguration path and the
## protocol construction while working on them. Nothing is recorded —
## the measurement of record is bench-pair.
bench:
	$(GO) test -bench='^BenchmarkStep|^BenchmarkFaultEvent$$|^BenchmarkValidateFaultSchedule$$|^BenchmarkCoherenceNew$$' -benchmem -run=^$$ -count=1 .

## bench-e2e: the repo's benchmark (BENCHMARK.json, cmd/drainbench) on
## every workload, ten seeds each, untraced then traced: end-to-end and
## per-layer medians with spreads, and the result file BENCH_e2e.json.
bench-e2e:
	$(GO) run ./cmd/drainbench -runs 10 -out BENCH_e2e.json

## bench-pair: the paired measurement a performance claim rests on.
## BASE=<git ref> is unpacked with `git archive` under $$TMPDIR and built
## there; then, per workload, PAIRS runs of BASE and of this tree alternate — same seed
## within a pair, a new seed per pair, the side that goes first
## alternating — each from its own checkout, untraced. The records go to
## BENCH_pair_base.json / BENCH_pair_head.json and `drainbench -compare`
## judges them (ratios are head over base; it also fails on any digest
## or count that differs for the same workload and seed). SEED defaults
## to the clock so every invocation measures seeds nobody tuned on. Every
## run appends one record to the tracked BENCH_trajectory.json (a JSON
## array, one record a line): date, parent and head SHA, first seed,
## pairs, machine (nproc, CPU model, Go version) and the -compare rows.
PAIRS ?= 10
WORKLOADS ?= synth_low synth_sat coh_pagerank serve_cold serve_warm reconfig_churn
SEED ?= $(shell date +%s)
bench-pair:
	@test -n "$(BASE)" || { echo "usage: make bench-pair BASE=<git ref> [PAIRS=10] [SEED=n] [WORKLOADS='synth_sat ...']"; exit 2; }
	set -euo pipefail; seed0=$(SEED); tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base"; git archive "$(BASE)" | tar -x -C "$$tmp/base"; \
	(cd "$$tmp/base" && $(GO) build -o "$$tmp/base.bin" ./cmd/drainbench); \
	$(GO) build -o "$$tmp/head.bin" ./cmd/drainbench; \
	run() { (cd "$$2" && "$$tmp/$$1.bin" -workload "$$3" -seed "$$4" -trace 0 -detail | tail -n 1) >> "$$tmp/$$1.recs"; }; \
	for w in $(WORKLOADS); do for i in $$(seq 1 $(PAIRS)); do \
		seed=$$(( seed0 % 100000 + i )); echo "$$w pair $$i/$(PAIRS) seed $$seed" >&2; \
		if (( i % 2 )); then run base "$$tmp/base" "$$w" "$$seed"; run head . "$$w" "$$seed"; \
		else run head . "$$w" "$$seed"; run base "$$tmp/base" "$$w" "$$seed"; fi; \
	done; done; \
	stamp() { printf '{"env":{"git_sha":"%s","dirty":%s},"records":[' "$$1" "$$2"; paste -sd, "$$3"; printf ']}\n'; }; \
	parent=$$(git rev-parse --short "$(BASE)"); head=$$(git rev-parse --short HEAD); dirty=false; \
	git diff --quiet HEAD || { head=$$head-dirty; dirty=true; }; \
	stamp "$$parent" false "$$tmp/base.recs" > BENCH_pair_base.json; \
	stamp "$$head" $$dirty "$$tmp/head.recs" > BENCH_pair_head.json; \
	rc=0; rows=$$($(GO) run ./cmd/drainbench -compare BENCH_pair_base.json BENCH_pair_head.json) || rc=$$?; \
	printf '%s\n' "$$rows"; \
	cpu=$$(sed -n '/^model name/{s/^[^:]*: //p;q;}' /proc/cpuinfo 2>/dev/null || true); \
	json() { sed 's/\\/\\\\/g; s/"/\\"/g; s/.*/"&"/' | paste -sd, -; }; \
	rec=$$(printf '{"date":"%s","parent":"%s","head":"%s","seed":%d,"pairs":%d,"machine":{"nproc":%d,"cpu":%s,"go":"%s"},"rows":[%s]}' \
		"$$(date -u +%FT%TZ)" "$$parent" "$$head" $$(( seed0 % 100000 + 1 )) $(PAIRS) "$$(nproc)" \
		"$$(printf '%s\n' "$${cpu:-unknown}" | json)" "$$($(GO) env GOVERSION)" \
		"$$(printf '%s\n' "$$rows" | { grep -v '^[ab] = ' || true; } | tr -s ' ' | json)"); \
	if test -s BENCH_trajectory.json; then sed -i '$$d' BENCH_trajectory.json; sed -i '$$s/$$/,/' BENCH_trajectory.json; else echo '[' > BENCH_trajectory.json; fi; \
	printf '%s\n]\n' "$$rec" >> BENCH_trajectory.json; \
	exit $$rc

## bench-all: every Go benchmark — bench plus the ablations
## EXPERIMENTS.md cites and the coherence workload (a few minutes).
bench-all:
	$(GO) test -bench=. -benchmem -run=^$$ .

## fuzz: short native-fuzz smoke over the noc invariant properties, the
## dense-vs-event engine byte-identity differential, the fault-schedule
## syntax and validation, and the server's request canonicalization.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzConservation -fuzztime=$(FUZZTIME) ./internal/noc
	$(GO) test -run=^$$ -fuzz=FuzzDrainRotation -fuzztime=$(FUZZTIME) ./internal/noc
	$(GO) test -run=^$$ -fuzz=FuzzDenseVsEvent -fuzztime=$(FUZZTIME) ./internal/noc
	$(GO) test -run=^$$ -fuzz=FuzzParseFaultSchedule -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run=^$$ -fuzz=FuzzValidateFaultSchedule -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run=^$$ -fuzz=FuzzCanonicalize -fuzztime=$(FUZZTIME) ./internal/server

## results: regenerate the quick-scale markdown tables under results/.
results:
	$(GO) run ./cmd/experiments -fig all -scale quick -out results

## results-check: the "same bytes" criterion, mechanised: regenerate every
## quick figure into a temp dir and diff it against results/*.md, the
## `_(scale=…, took …)_` trailer (the one wall-clock line) left out.
results-check:
	$(call check_tables,results,all -scale quick)

## results-check-full: the same for results/full/: regenerate exactly the
## figures committed there at full scale (a few minutes) and diff them.
results-check-full:
	$(call check_tables,results/full,$(FULL_FIGS) -scale full)

comma := ,
FULL_FIGS = $(subst $() ,$(comma),$(basename $(notdir $(wildcard results/full/*.md))))

# check_tables(dir, -fig value and flags): regenerate into a temp dir and
# diff every dir/*.md against its regenerated twin; the figure sets must
# match too.
check_tables = set -euo pipefail; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/experiments -fig $(2) -parallel 2 -out "$$tmp" > /dev/null; \
	for f in $(1)/*.md; do \
		diff -u --label "$$f" --label "regenerated $$(basename "$$f")" <(grep -v '^_(scale=' "$$f") <(grep -v '^_(scale=' "$$tmp/$$(basename "$$f")"); \
	done; \
	test "$$(ls "$$tmp" | wc -l)" -eq "$$(ls $(1)/*.md | wc -l)" || { echo "$@: $(1)/ and the regenerated figures differ"; exit 1; }; \
	echo "$@: $$(ls $(1)/*.md | wc -l) tables byte-identical"

## loc: the three sizes ROADMAP tracks ("lines removed at constant
## behaviour"), counted one way: non-test Go outside testdata/, _test.go
## lines (testdata/ excluded too), DESIGN.md lines.
loc:
	@count() { find . -name '*.go' -not -path '*/testdata/*' "$$@" -print0 | xargs -0 cat | wc -l; }; \
	printf 'non-test Go  %6d\n_test.go     %6d\nDESIGN.md    %6d\n' "$$(count -not -name '*_test.go')" "$$(count -name '*_test.go')" "$$(wc -l < DESIGN.md)"

clean:
	$(GO) clean ./...
