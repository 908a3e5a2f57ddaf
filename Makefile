# Convenience targets for the dnsddos reproduction. The race-gate target
# is the concurrency CI gate for the real-socket serving path: vet, full
# build, then the race detector over every package that touches sockets
# or shared server state.

GO ?= go

.PHONY: build test obs stream distjoin race-gate soak chaos bench-throughput bench-sweep bench-serve bench-session bench-join flake-sweep report loc

build:
	$(GO) build ./...

test: build obs stream distjoin
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -bench 'BenchmarkJoin' -benchtime 1x -run '^$$' ./internal/core/
	$(GO) test -bench 'BenchmarkRunDay' -benchtime 1x -run '^$$' ./internal/openintel/
	$(GO) test -bench 'BenchmarkAggregatorDay' -benchtime 1x -run '^$$' ./internal/nsset/
	$(GO) test -bench 'BenchmarkSealDay|BenchmarkViewReads' -benchtime 1x -run '^$$' ./internal/daystore/
	$(GO) test -bench 'Benchmark(AppendEncode|DecodeInto)NSResponse' -benchtime 1x -run '^$$' ./internal/dnswire/
	$(GO) test -bench 'BenchmarkNewSession' -benchtime 1x -run '^$$' ./internal/study/
	$(GO) test -bench 'BenchmarkLoadStateAt' -benchtime 1x -run '^$$' ./internal/simnet/
	$(GO) test -bench 'BenchmarkSynthesizeObs' -benchtime 1x -run '^$$' ./internal/scenario/
	$(GO) run ./cmd/report -quick -outdir "$$(mktemp -d)" >/dev/null

# Streaming smoke: the stream-vs-batch parity harness, exactly-once
# kill/resume, late-drop accounting, and the aggregator order-invariance
# property tests that back the watermark semantics.
stream:
	$(GO) test ./internal/stream/ -count 1
	$(GO) test ./internal/rsdos/ -run 'TestPacketAggregatorLateDrop|TestAggregator.*Property|TestWindowerLatenessAbsorbsJitter' -count 1

# Observability gate: the metrics layer and its consumers under the race
# detector — concurrent counter/histogram exactness, snapshot
# determinism (golden files), the HTTP endpoint lifecycle, the
# goroutine-leak helper applied to server and resolver teardown, and a
# smoke pass over the wire-format, day-file, attack-feed, journal-frame,
# fleet-frame and prefix-table fuzz seed corpora.
obs:
	$(GO) test -race ./internal/obs/ ./internal/netx/ -count 1
	$(GO) test -race ./internal/authserver/ -run 'Leaks|TestMetricsEndpoint' -count 1
	$(GO) test -race ./internal/resolver/ -run 'TestLiveResolverMetrics' -count 1
	$(GO) test -race ./internal/dnsload/ -run 'TestFailureClassificationTable' -count 1
	$(GO) test -race ./internal/study/ -run 'TestRunMetrics' -count 1
	$(GO) test ./internal/dnswire/ -run 'Fuzz' -count 1
	$(GO) test ./internal/daystore/ -run 'Fuzz' -count 1
	$(GO) test ./internal/rsdos/ -run 'Fuzz' -count 1
	$(GO) test ./internal/checkpoint/ -run 'Fuzz' -count 1
	$(GO) test ./internal/distjoin/ -run 'Fuzz' -count 1
	$(GO) test ./internal/astopo/ -run 'Fuzz' -count 1

# Distributed-join chaos leg: a four-worker fleet with one worker killed
# mid-shard and one writing through a corrupting faultinject stream must
# still produce byte-identical output, plus the poisoned-day quarantine,
# graceful-drain, real-SIGKILL-subprocess, coordinator kill-and-resume,
# and day-file (frame bound, corrupt-file refusal) suites.
distjoin:
	$(GO) test ./internal/distjoin/ \
		-run 'TestChaosFleet|TestDistributedParity|TestPoisonedDayQuarantineParity|TestGracefulDrain|TestCoordinatorKillAndResume|TestSIGKILLWorkerMidRun|TestFrameSizeBoundedByDayFile|TestCorruptDayFileFleetParity' \
		-count 1
	$(GO) test ./internal/faultinject/ -run 'TestStream' -count 1

# Overload soak: the 10x-rate replay through the admission/spill tier,
# SIGKILLed mid-emission and resumed — flat memory, bounded lag recovery,
# byte-identical emission. Run under the race detector; part of the gate.
soak:
	$(GO) test -race ./internal/stream/ -run 'TestOverloadSoak|TestOverload|TestCursorSyncBoundaryCrash' -count 1

# Concurrency gate: run before merging changes to the serving path, the
# sharded join engine (shared NS index, day store reads, worker pool),
# the distributed-join control plane, or the resilience/overload tier.
# The study leg covers both day backends: the parallel in-memory sweep
# (Merge moves a finished day's whole table — rows indexed by NSSet ID,
# windows in its slab — into the run aggregator under the pool's mutex
# while other shards fill theirs), the columnar parity/resume runs, where
# each worker seals from its day table and takes an emptied one from the
# pool's free list, and the watchdog run that must never put an abandoned
# table on that list. The last leg is the degraded-mode sweep: a live
# loopback fleet, the retrying resolver and dnsload under the detector in
# every mode.
race-gate: soak
	$(GO) vet ./... && $(GO) build ./... && \
	$(GO) test -race ./internal/authserver/... ./internal/resolver/... ./internal/dnsload/... \
		./internal/core/... ./internal/cache/... ./internal/resilience/... \
		./internal/stream/... ./internal/distjoin/... ./internal/daystore/...
	$(GO) test -race ./internal/study/ -run 'TestParallelSweepMatchesSequential|TestJoinParity|TestColumnarCancelAndResume|TestAbandonedTableIsNotRecycled' -count 1
	$(GO) test -race ./internal/e2ebench/ -count 1

# Chaos gate: the fault-injection and graceful-degradation regression
# suite under the race detector — the netem-style wrappers, the retrying
# live resolver against lossy/dead servers, RRL/overload shedding,
# dnsload's failure classification, and the supervised study pipeline
# (the day ledger's state machine, injected day-shard panics, watchdog
# stalls, a seal failure mid-run, mid-run cancel + resume).
chaos:
	$(GO) test -race ./internal/faultinject/ \
		-run . -count 1
	$(GO) test -race ./internal/authserver/ \
		-run 'TestOverload|TestRRL|TestReflex|TestWrappedListener' -count 1 -v
	$(GO) test -race ./internal/resolver/ \
		-run 'TestLive|TestQueryWith|TestUDPClientEDNS' -count 1 -v
	$(GO) test -race ./internal/dnsload/ \
		-run 'TestFailure|TestPartialLoss' -count 1 -v
	$(GO) test -race ./internal/study/ \
		-run 'TestLedger|TestPanicQuarantine|TestPanicRetryRecovers|TestWatchdogQuarantinesStuckShard|TestAbandonedTableIsNotRecycled|TestWriteFailureStopsFolding|TestCancelAndResumeByteIdentical|TestResumeRefusesCorruptCheckpoints' \
		-count 1 -v

# Flakiness sweep: every package five times under the race detector.
# Needs an explicit -timeout — the overload soak and distjoin chaos
# suites are wall-clock heavy by design, and five repetitions overrun
# go test's default 10m budget long before anything is actually stuck.
flake-sweep:
	$(GO) test -race -count=5 -timeout 40m ./internal/... ./cmd/...

# Serving-engine throughput (workers=1 is the serialized baseline).
bench-throughput:
	$(GO) test -bench 'Server_(UDP|TCP)Throughput' -benchtime 1s -run '^$$' ./internal/authserver/

# The sweep's record path, layer by layer: one swept day end to end
# (ns/record, allocs/record), one data-plane query quiet and under attack,
# the load model at join_dense's attack density (ns/op, 0 allocs/op), one
# aggregator Add by key, one day-shard by ID into a recycled table, and
# the day's seal both ways (direct from the table, and through a Snapshot;
# B/op). For reading while working on the sweep; the gated numbers are the
# repo benchmark's (benchmark/README.md; the load model's is join_dense
# setup_s).
bench-sweep:
	$(GO) test -bench 'BenchmarkRunDay' -benchmem -run '^$$' ./internal/openintel/
	$(GO) test -bench 'BenchmarkQueryQuiet|BenchmarkQueryUnderAttack|BenchmarkLoadStateAt' -benchmem -run '^$$' ./internal/simnet/
	$(GO) test -bench 'BenchmarkAggregator(Add|Day)' -benchmem -run '^$$' ./internal/nsset/
	$(GO) test -bench 'BenchmarkSealDay' -benchmem -run '^$$' ./internal/daystore/

# The serving path, layer by layer: the codec on one NS response (through
# the allocating wrappers and through AppendEncode / DecodeInto), one
# Zone.Answer, the serving engine's queries/s, and one resolution through
# the live resolver at a loopback server (allocs/query is process-wide:
# client and server). For reading while working on the serving path; the
# gated number is the repo benchmark's serve_clean op_allocs.
bench-serve:
	$(GO) test -bench 'Benchmark(Encode|Decode|AppendEncode|DecodeInto)NSResponse' -benchmem -run '^$$' ./internal/dnswire/
	$(GO) test -bench 'BenchmarkZoneAnswer' -benchmem -run '^$$' ./internal/authserver/
	$(GO) test -bench 'Server_(UDP|TCP)Throughput' -benchtime 1s -run '^$$' ./internal/authserver/
	$(GO) test -bench 'BenchmarkLiveResolveLoopback' -run '^$$' ./internal/resolver/

# The session build, layer by layer: study.NewSession at the repo
# benchmark's scale (allocs/op and B/op are what every study, joinworker and
# setup_s sample pays before its first sweep), and its two heaviest stages,
# the telescope feed (at study_batch's scale, and at join_dense's DNS share,
# where a victim's attack chain is long) and its curation. For reading
# while working on the set-up; the gated numbers are the repo benchmark's
# study_batch op_allocs and join_dense setup_s.
bench-session:
	$(GO) test -bench 'BenchmarkNewSession' -benchmem -run '^$$' ./internal/study/
	$(GO) test -bench 'BenchmarkSynthesizeObs' -benchmem -run '^$$' ./internal/scenario/
	$(GO) test -bench 'BenchmarkInfer' -benchmem -run '^$$' ./internal/rsdos/

# The join, layer by layer: one warm join through the indexed engine and
# through the reference scan, one cold re-join over sealed days at the repo
# benchmark's join_dense scale (open the day store, build the pipeline,
# join, render the CSV, close: B/op and allocs/op are what every re-run
# over sealed days pays), and the day store's two reads on both backends
# (0 allocs/op). For reading while working on the join; the gated number is
# the repo benchmark's join_dense op_alloc_kb.
bench-join:
	$(GO) test -bench 'BenchmarkJoin' -benchmem -run '^$$' ./internal/core/
	$(GO) test -bench 'BenchmarkViewReads' -benchmem -run '^$$' ./internal/daystore/

# The paper's tables and figures: one sub-benchmark per entry of
# internal/report's Catalogue (cmd/report prints the same entries).
report:
	$(GO) test -bench . -benchtime 1x .

# The numbers every simplicity PR quotes: non-test Go lines outside
# benchmark/, all Go lines outside benchmark/ (so code moved into _test.go
# does not read as a reduction), and the functional options (^func With)
# per package.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l | \
		awk '{print $$1 " non-test Go lines outside benchmark/"}'
	@find . -name '*.go' ! -path './benchmark/*' | xargs cat | wc -l | \
		awk '{print $$1 " Go lines outside benchmark/, tests included"}'
	@grep -c '^func With' $$(find internal -name '*.go' ! -name '*_test.go') | \
		awk -F: '$$2 > 0 {n = $$1; sub("/[^/]*$$", "", n); c[n] += $$2; t += $$2} \
			END {for (p in c) print c[p] " options in " p | "sort -k4"; close("sort -k4"); print t " options in total"}'
