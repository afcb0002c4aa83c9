GO ?= go
STATICCHECK ?= staticcheck

.PHONY: all build test race vet fmt fmt-check staticcheck lint loc bench bench-sim bench-layers bench-json bench-gate benchmark-smoke host-pairs sim-diff crash-smoke fuzz-smoke coverage examples ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Static analysis beyond vet. Skips with a notice when the binary is not
# installed, UNLESS STATICCHECK_REQUIRED=1 (CI sets it after installing,
# so a PATH problem fails the gate instead of silently passing).
staticcheck:
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	elif [ -n "$(STATICCHECK_REQUIRED)" ]; then \
		echo "staticcheck required but not installed"; exit 1; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# The lint gate CI runs: formatting, vet, staticcheck.
lint: fmt-check vet staticcheck

# The two line counts ROADMAP item 2 tracks: non-test Go lines outside
# benchmark/, and the share of them in internal/stack.
loc:
	@printf 'non-test Go lines outside benchmark/: '; find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l
	@printf 'non-test Go lines in internal/stack:  '; find ./internal/stack -name '*.go' ! -name '*_test.go' | xargs cat | wc -l

# Quick smoke of every experiment (same command CI runs).
bench: build
	$(GO) run ./cmd/riobench -exp all -quick

# Host-clock microbenchmarks of the simulation substrate (event heap, proc
# switch, queues, servers, resources, proc spawn). CI smokes them at
# BENCHTIME=100x.
BENCHTIME ?= 1s
bench-sim:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./internal/sim

# Host-clock microbenchmarks of the layers above the substrate: fabric
# send→deliver (paced, and under TxDepth backpressure), ssd Optane
# write→complete, flash write→destage and flash write burst→FLUSH, the
# ordering domain's gate/park/retire, sequencer submit→complete, volume
# extents into scratch. CI smokes them at BENCHTIME=100x.
bench-layers:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./internal/fabric ./internal/ssd ./internal/order ./internal/core ./internal/blockdev

# The gated experiments and the committed baseline they must reproduce:
# named here and nowhere else (CI runs `make bench-gate`; cmd/benchdiff is
# handed the name, internal/bench's baseline test reads it from this line).
GATED_EXPS := scale,replication,policy,serve,read,satload,trace
BASELINE   := BENCH_24.json

# Regenerate the tracked perf-trajectory snapshot.
bench-json: build
	$(GO) run ./cmd/riobench -exp $(GATED_EXPS) -quick -json $(BASELINE)

# Run every example with its built-in tiny config (CI smoke: example
# drift fails the build).
examples: build
	@set -e; for d in examples/*/; do \
		echo "== go run ./$$d"; $(GO) run ./$$d; done

# The CI perf gate: run the gated experiments fresh; benchdiff fails on >10%
# regression in the gated metrics of the committed baseline against its
# PREDECESSOR (the highest BENCH_N.json below it: what a PR that commits a new
# baseline can regress) and holds the fresh run to the absolute budgets; then
# cmp requires the fresh file to be byte-identical to the baseline (the
# simulator is deterministic and the file carries no timestamps; a PR that
# means to move a simulated number commits a new BENCH_N.json and points
# BASELINE at it). FRESH is where the fresh run is written (CI keeps it as an
# artifact).
FRESH ?= /tmp/bench-gate.json
bench-gate: build
	$(GO) run ./cmd/riobench -exp $(GATED_EXPS) -quick -json $(FRESH)
	$(GO) run ./cmd/benchdiff -baseline $(BASELINE) -new $(FRESH)
	cmp $(FRESH) $(BASELINE)

# benchmark/ is a module of its own (the acceptance benchmark: it builds
# against stack, fs, kv and rio), so `go build ./...` at the root does not
# see it. Vet it and smoke-run every workload so an API change that breaks
# it fails here, not in the acceptance driver.
benchmark-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

# A host-clock claim on a noisy sandbox: N alternating pairs of one
# benchmark workload, this checkout against PARENT (a checkout of the parent
# commit, e.g. a `git clone` under /root/scratch). Prints each side's
# median and quartiles of METRIC, the pairs won, and whether sim_* moved.
# RUN_SECONDS is the benchmark's --seconds (0 = 5 runs per invocation; the
# acceptance driver passes BENCHMARK.json's run_seconds).
WORKLOAD    ?= blk_seqbatch
N           ?= 10
SEED        ?= 1
METRIC      ?= host_ns_per_op
RUN_SECONDS ?= 0
host-pairs:
	@test -n "$(PARENT)" || { echo "usage: make host-pairs PARENT=<checkout> [WORKLOAD=$(WORKLOAD)] [N=$(N)] [SEED=$(SEED)] [METRIC=$(METRIC)] [RUN_SECONDS=$(RUN_SECONDS)]"; exit 2; }
	bash scripts/host-pairs.sh "$(PARENT)" $(WORKLOAD) $(N) $(SEED) $(METRIC) $(RUN_SECONDS)

# A simulated-clock claim: every benchmark workload once per side (the
# simulated clock is deterministic, so one run per seed is the comparison),
# the five sim_* metrics and ops_failed_share side by side with the relative
# change, any that worsened past its BENCHMARK.json bound marked. SEED names
# the benchmark's seed set (its 5 runs use SEED..SEED+4).
sim-diff:
	@test -n "$(PARENT)" || { echo "usage: make sim-diff PARENT=<checkout> [SEED=$(SEED)]"; exit 2; }
	bash scripts/sim-diff.sh "$(PARENT)" $(SEED)

# Crash smoke: plans 1–24 of the crash harness (internal/crash), the same
# plans the tier-1 tests run: each draws a legal configuration, a traffic
# shape and a cut schedule, recovers, and checks the whole contract. A failure
# prints its one-line repro; the run ends with how many plans broke the
# contract and a histogram of what was drawn. Then 40 target-only cuts under
# surviving traffic: about 1 in 5 of them lost a completed, undelivered write
# while ROADMAP finding 1(g) was open. Then 200 relay head cuts: three of
# them (plans 479, 551, 619) lost a follower's ack with the head while
# finding 1(k) was open.
crash-smoke: build
	$(GO) run ./cmd/riocrash -seed 1 -n 24
	$(GO) run ./cmd/riocrash -seed 1 -n 40 -set cut=target -set final=false
	$(GO) run ./cmd/riocrash -seed 451 -n 200 -set cut=head

# Native fuzzing of the two pure-logic targets for FUZZTIME each, from their
# committed seeds: the in-order gate under arbitrary arrival schedules, and
# the media identity's ownership test against its definition.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzGateSchedule -fuzztime $(FUZZTIME) ./internal/order
	$(GO) test -run '^$$' -fuzz FuzzAttrOwns -fuzztime $(FUZZTIME) ./internal/core

# Coverage profile over the ordering engine and the stack that drives it
# (CI uploads the profile as an artifact).
coverage: build
	$(GO) test -coverprofile=coverage.out -coverpkg=./internal/order/...,./internal/stack/... ./internal/order/... ./internal/stack/...
	$(GO) tool cover -func=coverage.out | tail -1

ci: lint build race bench bench-sim bench-layers bench-gate examples benchmark-smoke crash-smoke fuzz-smoke
