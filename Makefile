GO ?= go

# Crash-point sampling seed for `make fuzz-crash` (short mode picks a
# seeded sample of power-cut boundaries per device). Reproduce a failing
# CI run by exporting the seed it printed: CRASHCHECK_SEED=<n> make fuzz-crash
CRASHCHECK_SEED ?= 1

.PHONY: build test check race bench bench-cache bench-json bench-module bench-scale bench-soak bench-streams bench-tenants bench-writepath profile fuzz-crash fmt loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the tier-1 gate: vet, build, and the full test suite under the
# race detector (includes the fault-injection and crash-point fuzzing
# suites), plus the whole-stack crash harness sample, the repository
# benchmark's own module and the machine-readable report smoke check. Run
# it before sending a change.
check:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(MAKE) fuzz-crash
	$(MAKE) bench-module
	$(MAKE) bench-json
	$(MAKE) bench-scale
	$(MAKE) bench-soak
	$(MAKE) bench-streams
	$(MAKE) bench-tenants
	$(MAKE) bench-writepath
	$(MAKE) bench-cache

# fuzz-crash runs the whole-stack crash harness (internal/crashcheck) in
# short mode: for every engine x mode cell of its table (innodb
# DWB-on/SHARE/AtomicWrite, innodb+extended-cache, innodb with concurrent
# sessions, couch copy/SHARE, couch under patrol, pgmini FPW-on/FPW-SHARE,
# sqlmini rollback/WAL/SHARE) it power-cuts the stack at a
# CRASHCHECK_SEED-sampled set of program/erase boundaries, restarts it
# (FTL invariants and fsck checked on every reopen), and checks the
# durability oracle (no committed write lost, no uncommitted write
# surfaced). The seeded NAND fault-plan runs (seeds 7, 11, 13 for
# innodb/pgmini/couch, 17 on the cache tier) always execute in full. Long mode — plain
# `go test ./internal/crashcheck/` — visits every boundary exhaustively.
fuzz-crash:
	CRASHCHECK_SEED=$(CRASHCHECK_SEED) $(GO) test -short -count=1 ./internal/crashcheck/

# bench-module vets and tests benchmark/, which is a module of its own
# (same GOWORK/GOTOOLCHAIN settings as benchmark/run.sh) and so is never
# compiled by the commands above: an API change under one of its adapters
# would otherwise go unnoticed until the benchmark pipeline runs.
bench-module:
	cd benchmark && export GOWORK=off GOTOOLCHAIN=local && $(GO) vet ./... && $(GO) test ./...

# loc prints the non-test Go line count outside benchmark/ — the number
# ROADMAP's "line count going down" aim is tracked by, one per PR in
# CHANGES.md.
loc:
	@git ls-files '*.go' | grep -v _test.go | grep -v '^benchmark/' | xargs cat | wc -l

# race is check without vet/build, for quick re-runs.
race:
	$(GO) test -race ./...

# bench regenerates the paper's tables/figures at test scale; see
# cmd/sharebench for full-scale runs.
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# bench-json runs the smoke experiment through the telemetry pipeline and
# writes BENCH_smoke.json (validated against the share-bench/v1 schema
# before it is written). Identically-seeded runs are byte-identical.
bench-json:
	$(GO) run ./cmd/sharebench -exp smoke -json -outdir .

# bench-scale sweeps channel count x queue depth on die-scheduled arrays
# and writes BENCH_scale.json with per-die utilization telemetry; the
# speedup_c4_over_c1_qd8 metric is the parallelism regression anchor.
bench-scale:
	$(GO) run ./cmd/sharebench -exp scale -json -outdir .

# bench-soak ages a device through several drive-writes on endogenously
# decaying media (read disturb + retention + wear) with and without the
# background patrol scrubber and writes BENCH_soak.json. The patrol run
# must hold uncorrectable reads at zero while the unscrubbed control
# degrades; TestSoakScrubberHoldsZero pins the contrast.
bench-soak:
	$(GO) run ./cmd/sharebench -exp soak -json -outdir .

# bench-streams ages three identical 4-channel devices under zipfian
# updates — hints off, explicit hot/cold host hints, auto-stream
# classifier — plus a couch-on-fsim whole-stack leg, and writes
# BENCH_streams.json; the wa_reduction_* and copyback_reduction_*
# metrics are the write-placement regression anchors, pinned by
# TestStreamsWAReduction.
bench-streams:
	$(GO) run ./cmd/sharebench -exp streams -json -outdir .

# bench-tenants sweeps client count x tenant count over per-tenant couch
# stores on a 4-channel device behind fair-share admission and writes
# BENCH_tenants.json; speedup_t4_c8_over_c1 (client scaling) and
# fairness_t4_c8 (balanced per-tenant billing) are the concurrency
# regression anchors, pinned by TestTenantsScaling.
bench-tenants:
	$(GO) run ./cmd/sharebench -exp tenants -json -outdir .

# bench-writepath sweeps IO size x queue depth x placement strategy
# (legacy / host stream hints / auto-stream) on aged 4-channel devices and
# writes BENCH_writepath.json; the winner_s*_qd* crossover-map metrics pin
# which strategy wins each cell, and TestWritepathJSONDeterministic pins
# byte-identical reports.
bench-writepath:
	$(GO) run ./cmd/sharebench -exp writepath -json -outdir .

# bench-cache compares the flash-extended buffer cache tier against the
# no-cache baseline (steady-state throughput and hit rate) and measures
# recovery-to-peak-throughput after a crash for warm (revalidated map),
# cold (blank cache device) and faulted (damaged media) restarts, writing
# BENCH_cache.json; TestCacheRecoveryFloors pins warm < cold and
# TestCacheJSONDeterministic pins byte-identical reports.
bench-cache:
	$(GO) run ./cmd/sharebench -exp cache -json -outdir .

# profile runs the scale experiment at 20x op count with CPU and
# allocation profiling; inspect with `go tool pprof cpu.pprof`. The
# op-count multiplier keeps the measured loop hot long enough for a
# useful sample without changing device geometry or aging.
PROFILE_OPSCALE ?= 20
profile:
	$(GO) run ./cmd/sharebench -exp scale -opscale $(PROFILE_OPSCALE) \
		-cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "wrote cpu.pprof mem.pprof — inspect with: $(GO) tool pprof cpu.pprof"

fmt:
	gofmt -l -w .
