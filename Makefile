# Pre-PR gate: run `make check` before sending changes for review.
#
#   build        — compile every package, in both the default and the
#                  obs_debug (deep-profiling) build configurations
#   vet          — static analysis, and gofmt: fails if any Go file
#                  outside the dot-directories is not gofmt-clean
#   test         — full unit-test suite
#   race         — race-detector pass over the concurrent packages (the
#                  sweep runner, the experiment suite, the design-space
#                  explorer, the observability layer, the profiler guard
#                  and phase clock, the ledger's concurrent appends, the
#                  service and the CLIs that drive them)
#   fuzz         — fuzz seed corpora in regression mode (no new input
#                  generation; just replays the checked-in seeds)
#   selfcheck    — the differential-oracle pass: every simulator run in the
#                  lockstep tests must agree with the reference cache model
#   faults       — deterministic fault-injection pass: seeded panics, delays
#                  and transient errors driven through the sweep runner
#   soak         — the service resilience proof: the chaos soak (hundreds of
#                  concurrent jobs through seeded faults, flaky journal
#                  writes, a mid-run crash and a graceful drain) plus the
#                  cachesimd process-level e2e (real SIGKILL + restart,
#                  SIGTERM drain to exit 0)
#   attrib       — simtrace contract: an -attrib -selfcheck grid (cycle
#                  conservation asserted inside every run) plus the
#                  absent-vs-disabled simtrace overhead pair under the
#                  shared 2% overhead budget (overhead_gate)
#   vulncheck    — govulncheck when installed; advisory only, never fails
#                  the gate (the container may not ship it)
#   perfgate     — regression radar: two ledgered cachesim runs into a
#                  scratch ledger, then `simreport gate` — the simulator is
#                  deterministic, so any cycle-count drift between the two
#                  runs is a real regression and fails the gate
#   metricslint  — metrics hygiene: the two tests that guard the one metric
#                  catalog (internal/obs Catalog): every name snake_case and
#                  declared once with a known kind and help text, and
#                  METRICS.md renders to the checked-in bytes (drift fails;
#                  `go test ./internal/obs -run TestMetricsMarkdown -update`
#                  regenerates it)
#   allocgate    — allocation budget: the deterministic benchmarks' allocs/op
#                  and B/op against the checked-in BENCH snapshot
#                  (bench2json -fail-metrics allocs/op,B/op)
#   profilegate  — profiling overhead budget: the profiling on/off
#                  benchmark under the shared 2% overhead budget
#                  (overhead_gate)
#   explaingate  — explainability contract: a -explain -selfcheck sweep
#                  (3C conservation asserted inside every run) plus the
#                  absent-vs-disabled overhead benchmark under the shared
#                  2% overhead budget (overhead_gate) — runs without
#                  -explain must not pay for the instrumentation's existence
#   check        — all of the above
#
# `make fuzz-long` runs the trace-format fuzzers for 30 s each and is not
# part of the gate.
#
# `make bench` snapshots the benchmark suite (with allocation stats), the
# root package's plus the workload, cache, write-buffer, memory, engine,
# system and runner layer benchmarks, to BENCH_<date>.json via
# cmd/bench2json. The paper's figures are timed cold by benchmark/run.sh
# (figures-cold), not here. Compare two snapshots with:
#
#   go run ./cmd/bench2json -diff BENCH_<old>.json BENCH_<new>.json

GO ?= go

.PHONY: check build vet test race fuzz fuzz-long selfcheck faults soak vulncheck attrib perfgate metricslint allocgate profilegate explaingate bench clean

check: vet build test race fuzz selfcheck faults soak vulncheck attrib perfgate metricslint allocgate profilegate explaingate

build:
	$(GO) build ./...
	$(GO) build -tags obs_debug ./...

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(find . -name '*.go' -not -path './.*')); \
	if [ -n "$$unformatted" ]; then echo "gofmt: not formatted:"; echo "$$unformatted"; exit 1; fi

# -shuffle=on randomizes test order every run, so accidental
# order-dependence between tests surfaces in CI instead of in a refactor.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./internal/runner/ ./internal/experiments/ ./internal/core/ ./internal/obs/ ./internal/perfobs/ ./internal/ledger/ ./internal/service/ ./cmd/...

# Go runs fuzz seed corpora as ordinary tests when -fuzz is absent; this
# target exists so the gate states the intent explicitly.
fuzz:
	$(GO) test -run 'Fuzz' ./internal/trace/ ./internal/check/

fuzz-long:
	$(GO) test -run '^$$' -fuzz FuzzReadBinary -fuzztime 30s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzReadDin -fuzztime 30s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzOracleLockstep -fuzztime 30s ./internal/check/

# The lockstep-oracle tests across the cache, engine, system and sweep
# layers, plus the metamorphic cache properties they rest on.
selfcheck:
	$(GO) test -run 'SelfCheck|Shadow|Lockstep|BufOracle|Checked|LRUAssoc|LRUSize|FullyAssoc' \
		./internal/check/ ./internal/cache/ ./internal/system/ ./internal/engine/ ./internal/experiments/

# The deterministic fault-injection suite: injected panics, delays,
# transient errors and corrupt traces through the hardened runner.
faults:
	$(GO) test -run 'Fault|Wrap|Corrupt|Flaky|Decide' ./internal/faultinject/ ./internal/experiments/

# The sweep-service resilience envelope, run explicitly and uncached: the
# in-process chaos soak (kill mid-run, restart, drain, bit-identical
# results) and the cachesimd process e2e (real SIGKILL across process
# lives, SIGTERM drain must exit 0).
soak:
	$(GO) test -run 'ChaosSoak|Daemon' -count=1 -v ./internal/service/ ./cmd/cachesimd/

# The simtrace contract, both halves. (1) Cycle-attribution conservation
# on a small real grid: every run below carries -attrib -selfcheck, so
# sum(components) == cycles is asserted inside the simulator (invariant
# battery + final check) and any violation exits non-zero. Covers the base
# system, a non-default geometry, a write-heavy buffer configuration and a
# two-level hierarchy. (2) BenchmarkSimtraceOverhead's absent (no Options)
# vs disabled (Options present, nothing armed) pair through overhead_gate:
# a disarmed Options attaches no recorder, so both take the identical code
# path.
attrib:
	$(GO) run ./cmd/cachesim -workload mu3 -scale 0.05 -attrib -selfcheck >/dev/null
	$(GO) run ./cmd/cachesim -workload savec -scale 0.05 -size 16 -block 32 -assoc 2 -attrib -selfcheck >/dev/null
	$(GO) run ./cmd/cachesim -workload mu6 -scale 0.05 -cycle 20 -attrib -selfcheck >/dev/null
	$(GO) run ./cmd/cachesim -workload rd2n4 -scale 0.05 -l2 256 -attrib -selfcheck >/dev/null
	@echo "attrib: conservation held on all runs"
	@rm -rf .attrib
	$(call overhead_gate,attrib,SimtraceOverhead,absent,disabled,100x)
	@rm -rf .attrib

# Two identical ledgered runs, then the gate: cycle counts are deterministic,
# so the gate trips only if the simulator's arithmetic changed between the
# two invocations (or the ledger projection broke). The tight tolerance is
# safe because wall-clock metrics never gate by default.
perfgate:
	@rm -rf .perfgate && mkdir -p .perfgate
	$(GO) run ./cmd/cachesim -workload mu3 -scale 0.05 -ledger .perfgate >/dev/null
	$(GO) run ./cmd/cachesim -workload mu3 -scale 0.05 -ledger .perfgate >/dev/null
	$(GO) run ./cmd/simreport gate -ledger .perfgate -tolerance 0.1
	@rm -rf .perfgate

# Metrics hygiene: lint the obs metric catalog and fail if the generated
# METRICS.md reference drifted from it. `go test ./...` runs both tests too.
metricslint:
	$(GO) test -count=1 -run '^(TestLintCatalog|TestMetricsMarkdown)$$' ./internal/obs

# overhead_gate is the off/on overhead-budget recipe the profiling,
# explain and simtrace gates share: three independent rounds,
# each one `go test` run measuring the off/on pair back to back (adjacent
# in time, so machine drift hits both halves alike), each folded with
# -best and diffed on its own through the bench2json fail-over gate. The
# gate passes if ANY round's pair is within budget: interference would
# have to inflate the on-half of all three rounds to fake a failure, while
# a real regression is present in every round. The gate watches
# cpu-ns/op — overhead is CPU work, and wall time on a shared runner
# absorbs stalls that land unevenly on one sub-benchmark — and the
# threshold is the 2% budget plus one percentage point of measurement
# floor (a real regression shows up as tens of points). On failure the
# scratch dir survives for inspection.
#
#   $(call overhead_gate,<gate>,<Benchmark name>,<off sub>,<on sub>,<benchtime>)
#
# <gate> names the scratch dir .<gate> and the progress lines.
#
# The sed drops the #NN suffix Go adds when a benchmark runs a sub-benchmark
# name more than once (ProfileOverhead measures three pairs per round).
define overhead_gate
@mkdir -p .$(1)
@pass=0; for i in 1 2 3; do \
	echo "$(1): overhead round $$i"; \
	$(GO) test -run '^$$' -bench '$(2)/($(3)|$(4))' -benchtime $(5) . > .$(1)/bench$$i.txt || exit 1; \
	grep -v '$(2)/$(4)' .$(1)/bench$$i.txt | sed -e 's|$(2)/$(3)|$(2)/guard|' -e 's|#[0-9]*||' \
		| $(GO) run ./cmd/bench2json -best -o .$(1)/off$$i.json || exit 1; \
	grep -v '$(2)/$(3)' .$(1)/bench$$i.txt | sed -e 's|$(2)/$(4)|$(2)/guard|' -e 's|#[0-9]*||' \
		| $(GO) run ./cmd/bench2json -best -o .$(1)/on$$i.json || exit 1; \
	if $(GO) run ./cmd/bench2json -diff -fail-over 3 -fail-metrics cpu-ns/op \
		.$(1)/off$$i.json .$(1)/on$$i.json; then pass=1; fi; \
done; \
if [ $$pass -eq 0 ]; then echo "$(1): FAIL — every round over budget"; exit 1; fi
endef

# Allocation budget: the benchmarks whose allocs/op and B/op reproduce
# exactly run to run (trace generation, the behavioural pass, the timing
# replay and the system simulator), diffed against the checked-in snapshot.
# allocs/op is exact, so any growth is a real new allocation on the hot
# path; the 3% headroom only absorbs B/op rounding from size-class drift.
# bench2json stores names without the -GOMAXPROCS suffix, so the gate works
# on any machine; removed-benchmark lines in the diff are expected (the
# snapshot holds the full suite, the gate reruns only the deterministic
# subset).
allocgate:
	@rm -rf .allocgate && mkdir -p .allocgate
	@$(GO) test -run '^$$' -bench 'Table1Traces$$|BehavioralPass$$|TimingReplay$$|SystemSimulator$$' -benchmem . \
		| $(GO) run ./cmd/bench2json -o .allocgate/new.json
	$(GO) run ./cmd/bench2json -diff -fail-over 3 -fail-metrics allocs/op,B/op \
		BENCH_20261019.json .allocgate/new.json
	@rm -rf .allocgate

# Profiling overhead budget: the profiling on/off benchmark (CPU profiler
# armed at 100 Hz + dense heap sampling around the same simulation)
# through overhead_gate, each round measuring three off/on pairs (the
# measured overhead itself is ~0–2%).
profilegate:
	@rm -rf .profilegate
	$(call overhead_gate,profilegate,ProfileOverhead,off,on,150x)
	@rm -rf .profilegate

# Explainability contract, both halves. (1) 3C conservation on a small
# real grid: every run below carries -explain -selfcheck, so the invariant
# compulsory+capacity+conflict == misses is asserted inside the simulator
# (selfcheck battery + the recorder's own Finish cross-check against the
# independent miss counters) and any violation exits non-zero. Covers the
# base system, a direct-mapped geometry (conflict-heavy), a write-heavy
# set-associative buffer configuration and a two-level hierarchy.
# (2) The overhead half through overhead_gate: absent (no Options) vs
# disabled (Options present, nothing armed) — a disarmed Options attaches
# no recorder, so both take the identical code path, and this gate trips
# only if someone reintroduces a cost on the unexplained path.
# The armed variants (threec/reuse/full) are deliberately not gated:
# shadow simulation has an inherent price, the contract is that only runs
# asking for explanations pay it.
explaingate:
	@rm -rf .explaingate && mkdir -p .explaingate
	$(GO) run ./cmd/cachesim -workload mu3 -scale 0.05 -explain -selfcheck >/dev/null
	$(GO) run ./cmd/cachesim -workload savec -scale 0.05 -size 16 -block 32 -assoc 1 -explain -selfcheck >/dev/null
	$(GO) run ./cmd/cachesim -workload mu6 -scale 0.05 -size 32 -assoc 2 -explain -selfcheck >/dev/null
	$(GO) run ./cmd/cachesim -workload rd2n4 -scale 0.05 -l2 256 -explain -selfcheck >/dev/null
	@echo "explaingate: 3C conservation held on all runs"
	$(call overhead_gate,explaingate,ExplainOverhead,absent,disabled,50x)
	@rm -rf .explaingate

vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "vulncheck: advisories found (non-fatal)"; \
	else \
		echo "vulncheck: govulncheck not installed, skipping"; \
	fi

# The root package holds the whole-simulator, ablation and overhead-pair
# benchmarks; the workload, cache, writebuf, mem, engine, system and
# runner packages hold the per-layer ones (trace generation, one access
# per geometry, write-buffer operations, memory fills and writes, the
# behavioural pass and the size-family walk, the timing replay with one
# lane and with many, the single-phase simulator and the runner's
# per-cell cost).
bench:
	$(GO) test -run '^$$' -bench . -benchmem . ./internal/workload/ ./internal/cache/ ./internal/writebuf/ ./internal/mem/ ./internal/engine/ ./internal/system/ ./internal/runner/ \
		| $(GO) run ./cmd/bench2json -o BENCH_$$(date +%Y%m%d).json

clean:
	$(GO) clean ./...
	rm -rf .perfgate .allocgate .profilegate .explaingate .attrib
