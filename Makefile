# Convenience targets for the dnsddos reproduction. The race-gate target
# is the concurrency CI gate for the real-socket serving path: vet, full
# build, then the race detector over every package that touches sockets
# or shared server state.

GO ?= go

.PHONY: build test cmds obs stream race-gate soak chaos bench-throughput bench-sweep bench-serve bench-session bench-join flake-sweep report paperscale loc

build:
	$(GO) build ./...

# The rsdos smoke runs BenchmarkInfer and BenchmarkFoldDenseWindow once
# each: a fold whose scan of a victim's chain of open runs went quadratic
# in the runs would show there as time per op.
test: build cmds obs stream
	test -z "$$(gofmt -l .)"
	@if $(GO) list -deps ./cmd/... | grep -qx testing; then echo "a cmd/ binary links the testing package"; exit 1; fi
	@if $(GO) list -deps ./cmd/... | grep -qx encoding/gob; then echo "a cmd/ binary links encoding/gob"; exit 1; fi
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -bench 'BenchmarkJoin' -benchtime 1x -run '^$$' ./internal/core/
	$(GO) test -bench 'BenchmarkRunDay' -benchtime 1x -run '^$$' ./internal/openintel/
	$(GO) test -bench 'BenchmarkAggregatorDay' -benchtime 1x -run '^$$' ./internal/nsset/
	$(GO) test -bench 'BenchmarkSealDay|BenchmarkViewReads|BenchmarkOpen' -benchtime 1x -run '^$$' ./internal/daystore/
	$(GO) test -bench 'Benchmark(AppendEncode|DecodeInto)NSResponse' -benchtime 1x -run '^$$' ./internal/dnswire/
	$(GO) test -bench 'BenchmarkNewSession|BenchmarkRunContext' -benchtime 1x -run '^$$' ./internal/study/
	$(GO) test -bench 'BenchmarkLoadStateAt' -benchtime 1x -run '^$$' ./internal/simnet/
	$(GO) test -bench 'BenchmarkSynthesizeObs|BenchmarkGenerateSchedule|BenchmarkGenerateWorld' -benchtime 1x -run '^$$' ./internal/scenario/
	$(GO) test -bench 'BenchmarkInfer|BenchmarkFoldDenseWindow' -benchtime 1x -run '^$$' ./internal/rsdos/
	$(GO) test -bench 'BenchmarkWriteDayRef' -benchtime 1x -run '^$$' ./internal/checkpoint/
	$(GO) run ./cmd/report -quick -outdir "$$(mktemp -d)" >/dev/null

# Every binary runs once: ./cmd/... is built into a temporary directory
# and each binary is started with an unknown flag, which it must refuse
# with exit status 2 and its usage on stderr.
cmds:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && mkdir "$$d/bin" && \
	$(GO) build -o "$$d/bin" ./cmd/... && \
	for b in "$$d"/bin/*; do \
		"$$b" -no-such-flag >/dev/null 2>"$$d/stderr"; rc=$$?; \
		if [ $$rc -ne 2 ] || ! grep -q '^Usage' "$$d/stderr"; then \
			echo "$$(basename "$$b"): exit $$rc on an unknown flag, want 2 with usage on stderr"; exit 1; \
		fi; \
		echo "$$(basename "$$b"): refuses an unknown flag with usage"; \
	done

# Streaming smoke: the stream-vs-batch parity harness over the study's own
# feed, exactly-once kill/resume, late-drop accounting, the intake's
# watermark and lateness property tests, and the rsdos.Fold tests behind
# the curation the stream and the batch study share.
stream:
	$(GO) test ./internal/stream/ -count 1
	$(GO) test ./internal/rsdos/ -run '^(TestFold.*|TestAdvanceBatchesAreNotFeedOrder)$$' -count 1

# Observability gate: the metrics layer and its consumers under the race
# detector — concurrent counter/histogram exactness, snapshot
# determinism (golden files), the HTTP endpoint lifecycle, the
# goroutine-leak helper applied to server and resolver teardown, and a
# smoke pass over the wire-format, day-file, frame-codec (one frame, frame
# streams, and the day log a resume reads), study-config and zone-file
# fuzz seed corpora.
obs:
	$(GO) test -race ./internal/obs/ ./internal/netx/ -count 1
	$(GO) test -race ./internal/authserver/ -run 'Leaks|TestMetricsEndpoint' -count 1
	$(GO) test -race ./internal/resolver/ -run 'TestLiveResolverMetrics' -count 1
	$(GO) test -race ./internal/dnsload/ -run 'TestFailureClassificationTable' -count 1
	$(GO) test -race ./internal/study/ -run 'TestRunMetrics' -count 1
	$(GO) test ./internal/dnswire/ -run 'Fuzz' -count 1
	$(GO) test ./internal/daystore/ -run 'Fuzz' -count 1
	$(GO) test ./internal/checkpoint/ -run 'Fuzz' -count 1
	$(GO) test ./internal/study/ -run 'Fuzz' -count 1
	$(GO) test ./internal/authserver/ -run 'Fuzz' -count 1

# Overload soak: the study's feed at ten times the parity harness's
# attacks, SIGKILLed mid-emission and resumed to byte-identical emission,
# the exactly-once kill + resume at the sink, and the accept/sync boundary
# crash. Run under the race detector; part of the gate.
soak:
	$(GO) test -race ./internal/stream/ -run '^(TestOverload.*|TestStreamKillResume|TestCursorSyncBoundaryCrash)$$' -count 1

# Concurrency gate: run before merging changes to the serving path, the
# join engine (one NS index and day store shared by concurrent joins),
# the study's supervised run loop, or the resilience/overload tier.
# The study leg covers where a run keeps its sealed days: the parallel
# in-memory sweep (a finished day's image is added to the run's store under
# the run's mutex while other workers fill their tables), the merged-run
# oracle, the columnar parity/resume runs, where each worker seals from its
# own day table and empties it for its next day, the watchdog run whose
# workers must never sweep into a table an abandoned attempt still writes
# to, the per-day allocation guard's runs on one worker and on two, the
# session build, whose inference folds the feed on a helper goroutine
# while synthesis still appends to it, the full-retention oracle, whose
# sweep workers all read the session's one demand, and the sweep-count
# check, whose two workers sweep the benchmark's configuration through
# that demand and whose quarantined run sweeps a fallback day again. The
# curation (internal/rsdos) runs whole under the detector: the session's
# fold, and the tracker it advances, run on the feed's helper goroutine.
# The last leg is the degraded-mode sweep: a live loopback fleet, the
# retrying resolver and dnsload under the detector in every mode.
race-gate: soak
	$(GO) vet ./... && $(GO) build ./... && \
	$(GO) test -race ./internal/authserver/... ./internal/resolver/... ./internal/dnsload/... \
		./internal/core/... ./internal/cache/... ./internal/resilience/... \
		./internal/stream/... ./internal/daystore/... \
		./internal/rsdos/...
	$(GO) test -race ./internal/study/ -run 'TestParallelSweepMatchesSequential|TestJoinParity|TestColumnarCancelAndResume|TestAbandonedTableIsNotRecycled|TestRunAllocationsPerDay|TestSessionFeedMatchesInfer|TestFoldBehindPanicReachesCaller|TestRetentionMatchesFullOracle|TestSweepCountsCoverEveryDomainDay' -count 1
	$(GO) test -race ./internal/e2ebench/ -count 1

# Chaos gate: the fault-injection and graceful-degradation regression
# suite under the race detector — the netem-style wrappers, the retrying
# live resolver against lossy/dead servers, RRL/overload shedding,
# dnsload's failure classification, and the supervised study pipeline
# (the day ledger's state machine, injected day-shard panics, watchdog
# stalls, a seal failure mid-run, mid-run cancel + resume, and a kill
# between the sweep and the second pass that re-seals a quarantined day's
# fallback, resumed, then resumed again over a re-seal journaled but not
# published).
chaos:
	$(GO) test -race ./internal/faultinject/ \
		-run . -count 1
	$(GO) test -race ./internal/authserver/ \
		-run 'TestOverload|TestRRL|TestReflex|TestWrappedListener' -count 1 -v
	$(GO) test -race ./internal/resolver/ \
		-run 'TestLive|TestUDPClientEDNS' -count 1 -v
	$(GO) test -race ./internal/dnsload/ \
		-run 'TestFailure|TestPartialLoss' -count 1 -v
	$(GO) test -race ./internal/study/ \
		-run 'TestLedger|TestPanicQuarantine|TestPanicRetryRecovers|TestWatchdogQuarantinesStuckShard|TestAbandonedTableIsNotRecycled|TestWriteFailureStopsFolding|TestCancelAndResumeByteIdentical|TestResumeRefusesCorruptCheckpoints|TestResumeBetweenPasses' \
		-count 1 -v

# Flakiness sweep: every package five times under the race detector.
# Needs an explicit -timeout — the overload soak and the study's chaos
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
# the day's seal both ways (direct from the table, unhashed, and through a
# Snapshot; B/op). For reading while working on the sweep; the gated numbers are the
# repo benchmark's (benchmark/README.md; the load model's is join_dense
# setup_s).
bench-sweep:
	$(GO) test -bench 'BenchmarkRunDay' -benchmem -run '^$$' ./internal/openintel/
	$(GO) test -bench 'BenchmarkQueryQuiet|BenchmarkQueryUnderAttack|BenchmarkLoadStateAt' -benchmem -run '^$$' ./internal/simnet/
	$(GO) test -bench 'BenchmarkAggregator(Add|Day)' -benchmem -run '^$$' ./internal/nsset/
	$(GO) test -bench 'BenchmarkSealDay' -benchmem -run '^$$' ./internal/daystore/

# The serving path, layer by layer: the set-up (the serve_clean world
# built, and its zone loaded, with B/op and allocs/op), the codec on one
# NS response (through the allocating wrappers and through AppendEncode /
# DecodeInto), one Zone.Answer, the serving engine's queries/s, and one
# resolution through the live resolver at a loopback server (allocs/query
# is process-wide: client and server). For reading while working on the
# serving path; the gated numbers are the repo benchmark's serve_clean
# setup_s and op_allocs.
bench-serve:
	$(GO) test -bench 'BenchmarkGenerateWorld' -benchmem -run '^$$' ./internal/scenario/
	$(GO) test -bench 'BenchmarkZoneFromDB' -benchmem -run '^$$' ./internal/authserver/
	$(GO) test -bench 'Benchmark(Encode|Decode|AppendEncode|DecodeInto)NSResponse' -benchmem -run '^$$' ./internal/dnswire/
	$(GO) test -bench 'BenchmarkZoneAnswer' -benchmem -run '^$$' ./internal/authserver/
	$(GO) test -bench 'Server_(UDP|TCP)Throughput' -benchtime 1s -run '^$$' ./internal/authserver/
	$(GO) test -bench 'BenchmarkLiveResolveLoopback' -run '^$$' ./internal/resolver/

# The session and run loop, layer by layer: study.NewSession at the repo
# benchmark's scale (allocs/op and B/op are what every study and setup_s
# sample pays before its first sweep), the whole study through
# study.RunContext at the same scale with two workers (its allocs/op is
# what study_batch op_allocs reads), the same study with every day sealed
# and journaled in fresh directories (BenchmarkRunContextSealed: its
# allocs/op is what study_sealed op_allocs reads), the world at the same scale, the
# attack schedule at study_batch's and join_dense's (B/op is mostly the
# one array of 72-byte components a session keeps), and the session's two
# heaviest stages, the telescope feed (at study_batch's scale, and at
# join_dense's DNS share, where a victim's attack chain is long) and its
# curation, of that feed and of 16 windows
# of 4,096 observations each (BenchmarkFoldDenseWindow, where a chain
# scan quadratic in a victim's open runs shows as ns/op). For
# reading while working on the set-up or the run loop; the gated numbers
# are the repo benchmark's study_batch and study_sealed op_allocs and
# join_dense setup_s.
bench-session:
	$(GO) test -bench 'BenchmarkNewSession|BenchmarkRunContext' -benchmem -run '^$$' ./internal/study/
	$(GO) test -bench 'BenchmarkGenerateWorld|BenchmarkGenerateSchedule|BenchmarkSynthesizeObs' -benchmem -run '^$$' ./internal/scenario/
	$(GO) test -bench 'BenchmarkInfer|BenchmarkFoldDenseWindow' -benchmem -run '^$$' ./internal/rsdos/

# The join, layer by layer: one join through the engine on a built
# pipeline and through the reference scan, one cold re-join over sealed
# days at the repo benchmark's join_dense scale (open the day store, build
# the pipeline over the session's nameserver index, join, render the CSV,
# close: B/op and allocs/op are what every re-run over sealed days pays),
# the cold open of that day directory alone (Open, Verify, Close), and
# the day store's two reads on both backends (0 allocs/op). The engine is
# one pass on one goroutine: indexed reads 1.2-1.7 ms, 186 KB and 195
# allocs/op, cold 6-20 ms, 366 KB and 1,082 allocs/op (the open ≈ 3.5 ms,
# 69 KB and 466 allocs/op, three a day file), at -cpu 1 and 2 alike (an
# observation on a 2-vCPU Xeon, not a gate). Cold was 502 KB and 2,806
# allocs/op when every pipeline built a map-based index and the store
# allocated ten objects a day file (the open 138 KB and 1,537); most of
# the bytes left are the result's append growth. The cold leg does not
# classify; join_dense's operation does, and its Classify is one
# []ClassifiedAttack of 16 B an attack, each entry pointing into the feed.
# For reading while working on the join; the gated numbers are the repo
# benchmark's join_dense op_allocs and op_alloc_kb.
bench-join:
	$(GO) test -bench 'BenchmarkJoin' -benchmem -run '^$$' ./internal/core/
	$(GO) test -bench 'BenchmarkOpen|BenchmarkViewReads' -benchmem -run '^$$' ./internal/daystore/

# The paper's evaluation at bench scale: one sub-benchmark per entry of
# internal/report's Catalogue — the tables and figures, the §5 case
# studies, the DESIGN §6 ablations and extensions (cmd/report prints the
# same entries) — then BenchmarkPipelineJoin.
report:
	$(GO) test -bench . -benchtime 1x .

# The paper's attack count on one host: a study at QuickConfig with
# Table 1's 4,039,485 attacks over a temporary day store, at 15,000
# domains and at 1,000,000 (the single-host bound of DESIGN §3.6), each
# printing the wall time, the study.stage.*_wall_ns gauges, peak RSS
# (VmHWM), attacks and events. Each row runs in a go test process of its
# own, so each VmHWM is its row's. Outside go test ./... (build tag
# paperscale): the rows take a minute and several minutes, and gigabytes
# of memory. Read them in pairs, a change against its parent on the same
# host.
paperscale:
	for row in 15000_domains 1000000_domains; do \
		$(GO) test -tags paperscale -run "^TestPaperScale\$$/^$$row\$$" -count 1 -v -timeout 30m . || exit 1; \
	done

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
