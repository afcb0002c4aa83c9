GO ?= go
STATICCHECK ?= staticcheck

.PHONY: all build test race vet fmt fmt-check staticcheck lint loc bench bench-sim bench-layers bench-json bench-gate benchmark-smoke host-pairs sim-diff crash-smoke fuzz-smoke coverage coverage-all ci

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

# The line counts ROADMAP's north star ("least code") tracks: non-test Go
# lines outside benchmark/ and their `panic(` sites, then each package's
# share of the lines, largest first.
LOC_FILES = find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*'
loc:
	@printf 'non-test Go lines outside benchmark/: '; $(LOC_FILES) | xargs cat | wc -l
	@printf 'non-test panic( sites outside benchmark/: '; $(LOC_FILES) | xargs cat | grep -o 'panic(' | wc -l
	@$(LOC_FILES) | xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\.\//, "", d); n[d] += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d }' | sort -k1,1nr -k2

# Quick smoke of every experiment (make bench-gate runs the same sweep).
bench: build
	$(GO) run ./cmd/riobench -exp all -quick

# Host-clock microbenchmarks of the simulation substrate (the event queue —
# timer wheel and heap — under the write path's measured delay mix,
# BenchmarkTimerMix, and under same-instant hand-offs,
# BenchmarkZeroDelayHandoff —, proc switch, queues, servers, resources
# charged by a proc, by a `sim.Step` and by a `sim.Step` a proc Calls —
# BenchmarkResourceUseCall —, proc spawn). CI smokes them at
# BENCHTIME=100x.
BENCHTIME ?= 1s
bench-sim:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./internal/sim

# Host-clock microbenchmarks of the layers above the substrate: fabric
# send→deliver (paced, and under TxDepth backpressure), ssd Optane
# write→complete, flash write→destage and flash write burst→FLUSH (each
# command one pooled sim.Step record, 0 allocations per op), the
# ordering domain's gate/park/retire, sequencer submit→complete, a PMR log
# entry's append→persist→retire, a whole-region ScanRegion and the
# recovery Analyze of that region's view (ns/entry each), volume
# extents into scratch, the whole stack per ordered write, unreplicated
# (Rio, and the Horae and Linux baselines: BenchmarkHoraeOrderedWrite,
# BenchmarkLinuxOrderedWrite) and on a 3-way set over fan-out and over the
# relay (host ns, allocations, engine events and proc resumes per write),
# and per cached read on a 2-way set (hits, and misses with read-ahead;
# host ns, allocations and engine events per read), a RioFS one-block append + fsync on one Optane target
# (host ns, bytes and allocations per fsync), a KV Get on a store of 16
# disjoint L0 files — a hit in the oldest, and an absent key with
# NegativeLookup off — (host ns and SST index-block reads per get), an
# 8-SQE and an 8-CQE Rio vector's encode + check, a histogram record, and one trace span's
# start → marks → finish. CI smokes them at BENCHTIME=100x.
bench-layers:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./internal/fabric ./internal/ssd ./internal/order ./internal/core ./internal/blockdev ./internal/stack ./internal/fs ./internal/kv ./internal/nvmeof ./internal/metrics ./internal/trace

# The committed baseline every experiment must reproduce: named here and
# nowhere else (CI runs `make bench-gate`; cmd/benchdiff is handed the name,
# internal/bench's baseline test reads it from this line).
BASELINE := BENCH_33.json

# Regenerate the tracked perf-trajectory snapshot: every experiment, quick,
# at seed 1 (the file bench-gate's cmp holds a fresh run to) and over seeds
# 1-4 (its seeds file, BENCH_N.seeds.json: the means benchdiff compares with
# the predecessor's seeds file when both exist).
bench-json: build
	$(GO) run ./cmd/riobench -exp all -quick -json $(BASELINE)
	$(GO) run ./cmd/riobench -exp all -quick -repeat 4 -json $(BASELINE:.json=.seeds.json)

# The CI perf gate: run every experiment fresh; benchdiff fails on >10%
# regression in the gated metrics of the committed baseline against its
# PREDECESSOR (the highest BENCH_N.json below it: what a PR that commits a new
# baseline can regress; over both seeds files' means when both exist) and
# holds the fresh run to the absolute budgets; then
# cmp requires the fresh file to be byte-identical to the baseline (the
# simulator is deterministic and the file carries no timestamps; a PR that
# means to move a simulated number commits a new BENCH_N.json and points
# BASELINE at it). FRESH is where the fresh run is written (CI keeps it as an
# artifact).
FRESH ?= /tmp/bench-gate.json
bench-gate: build
	$(GO) run ./cmd/riobench -exp all -quick -json $(FRESH)
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
# the benchmark's seed set (its 5 runs use SEED..SEED+4). TRACE=1 runs both
# sides traced and adds the order gate's parks and the completion path's
# capsules per workload (order.holdbacks_per_kcmd,
# stack.completion_msgs_per_op, stack.cqe_batch_occupancy). EXACT=1 also
# fails, naming them, when any sim_* metric is not identical or
# ops_failed_share differs: the proof that a change moved no simulated number.
TRACE ?= 0
EXACT ?= 0
sim-diff:
	@test -n "$(PARENT)" || { echo "usage: make sim-diff PARENT=<checkout> [SEED=$(SEED)] [TRACE=$(TRACE)] [EXACT=$(EXACT)]"; exit 2; }
	bash scripts/sim-diff.sh "$(PARENT)" $(SEED) $(TRACE) $(EXACT)

# Crash smoke: plans 1–24 of the crash harness (internal/crash), the same
# plans the tier-1 tests run: each draws a legal configuration, a traffic
# shape and a cut schedule, recovers, and checks the whole contract. A failure
# prints its one-line repro; the run ends with how many plans broke the
# contract and a histogram of what was drawn. Then 40 target-only cuts under
# surviving traffic: about 1 in 5 of them lost a completed, undelivered write
# while ROADMAP finding 1(g) was open. Then 200 relay head cuts: three of
# them (plans 479, 551, 619) lost a follower's ack with the head while
# finding 1(k) was open. Then 60 relay member cuts: every plan runs with
# recycled records poisoned, and degrade, re-ask and resync are where a
# pooled capsule or completion message is likeliest to be read after its
# recycle. Then 100 head cuts on 2-way relay sets (the unpinned draw makes
# a 2-way set in about 1 plan of 5, this line only those), then 100 head
# cuts on 3-way relay sets and 100 member cuts on 3-way direct sets: commit
# order holds CQEs and acks on every quorum, majority sets too, so a cut
# finds held completions on a member's lanes and a follower's ack lane.
crash-smoke: build
	$(GO) run ./cmd/riocrash -seed 1 -n 24
	$(GO) run ./cmd/riocrash -seed 1 -n 40 -set cut=target -set final=false
	$(GO) run ./cmd/riocrash -seed 451 -n 200 -set cut=head
	$(GO) run ./cmd/riocrash -seed 1 -n 60 -set relay=true -set cut=member
	$(GO) run ./cmd/riocrash -seed 451 -n 100 -set replicas=2 -set relay=true -set cut=head
	$(GO) run ./cmd/riocrash -seed 451 -n 100 -set replicas=3 -set relay=true -set cut=head
	$(GO) run ./cmd/riocrash -seed 1 -n 100 -set replicas=3 -set cut=member

# Native fuzzing of the six pure-logic targets for FUZZTIME each, from
# their committed seeds: the in-order gate under arbitrary arrival
# schedules, the media identity's ownership test against its definition,
# the PMR entry encoding (round trip, in-place persist flag, every
# single-byte corruption rejected), recovery analysis over arbitrary
# checksum-valid entries (against the map model where it can run), the
# SSD's LBA→stamp table under put/delete/get sequences against a map, and
# the NVMe-oF Table-1 command encoding (attribute round trip, SQE and CQE
# vector checks against their definition).
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzGateSchedule -fuzztime $(FUZZTIME) ./internal/order
	$(GO) test -run '^$$' -fuzz FuzzAttrOwns -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzEntryPersist -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzAnalyze -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzMediaTable -fuzztime $(FUZZTIME) ./internal/ssd
	$(GO) test -run '^$$' -fuzz FuzzCommandEncoding -fuzztime $(FUZZTIME) ./internal/nvmeof

# Statement coverage of the module's packages (scripts/coverage.sh): the
# merged total, then every block outside cmd/ and internal/bench/ that no run
# reaches. `coverage` runs the tier-1 tests alone (CI's coverage job): a lead
# for a deletion sweep. `coverage-all` merges in riobench -exp all -quick, the
# crash-smoke sweeps and the benchmark's seven workloads, the traffic the
# tests do not drive: the verdict, about a minute; not a CI step. Both write
# only under a temporary directory.
coverage:
	bash scripts/coverage.sh tests

coverage-all:
	bash scripts/coverage.sh

ci: lint build race bench-sim bench-layers bench-gate benchmark-smoke crash-smoke fuzz-smoke
