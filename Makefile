# Developer entry points. CI runs `make ci`; `make bench` regenerates
# BENCH.json from a fresh benchmark pass (diffed against the committed
# pre-PR-2 baseline in bench-baseline-pr1.txt when present). BENCH_PR2.json
# is the frozen PR-2 snapshot; BENCH.json is the rolling document that
# tracks the benchmark trajectory (E19 churn included) PR over PR.

GO ?= go

# bash + pipefail so a benchmark panic mid-pipeline fails `make bench`
# instead of writing a silently truncated BENCH_PR2.json.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: build vet test race race-churn race-bench crash crash-matrix fuzz bench bench-e2e bench-smoke bench-gate serve-smoke ingest-smoke replica-smoke experiments ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# The churn/delete suites (shard + intervals oracles) at full size under the
# race detector — the deletion path's locking is what they exercise.
race-churn:
	$(GO) test -race -run 'Churn|Delete' -timeout 10m ./internal/shard/ ./internal/intervals/

# bench/ is a module of its own (replace ccidx => ../), invisible to the
# root `go test ./...`; its tests include a smoke run of every benchmark
# workload, background compaction included.
race-bench:
	cd bench && $(GO) test -race ./...

# The fault-injection reopen suite at full size under the race detector:
# crash after every k-th device write (device, manager, and sharded levels),
# reopen, and require the recovered index to equal the checkpoint-consistent
# oracle. Mirrors race-churn for the durability paths.
crash:
	$(GO) test -race -run 'CrashEveryWrite|CrashBetweenManifestAndCommit|DurableRoundTrip|DurableClassesDurable|PublicDurable' \
		-timeout 20m ./internal/disk/ ./internal/intervals/ ./internal/shard/ .

# Randomized crash schedules under the race detector: CRASH_SEEDS picks the
# seeds (comma-separated); each seed randomizes the serving config, the op
# stream, the checkpoint cadence, and the crash point — then crashes the
# recovery itself until one reopen survives and must equal the acked oracle.
# The replica suite adds the hydration crash point: a snapshot stream torn
# mid-transfer must fail the open, and a retry on the same directory must
# hydrate cleanly.
CRASH_SEEDS ?= 1,2,3
crash-matrix:
	CRASH_SEEDS=$(CRASH_SEEDS) $(GO) test -race -run 'RandomCrashSchedules|WalRecoversAcked|WALCrashEveryWrite|ReplicaTornHydration|ReplicaParks' \
		-timeout 20m ./internal/disk/ ./internal/shard/ ./internal/replica/ .

# Coverage-guided fuzzing of the two on-disk decoders that parse bytes an
# adversarial disk could hand back: WAL record framing and the page-file
# header. Seed corpora always run under plain `go test`; this target runs
# each fuzzer for FUZZTIME of real mutation.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzWALRecordDecode -fuzztime=$(FUZZTIME) ./internal/disk/
	$(GO) test -run='^$$' -fuzz=FuzzFileHeader -fuzztime=$(FUZZTIME) ./internal/disk/

# One iteration per benchmark keeps the full sweep cheap; the hot query
# benchmarks additionally get a steady-state pass (200 iterations, warm
# control cache and pools) because their allocs/op at one cold iteration
# is dominated by first-use warmup. The steady pass is emitted second so
# its lines win in the JSON. bench-baseline-pr1.txt holds the pre-PR-2
# numbers, produced the same way.
HOT_BENCHES := BenchmarkE1MetablockQuery|BenchmarkE5IntervalManagement$$|BenchmarkE5NaiveBaseline|BenchmarkE7ExternalPST|BenchmarkE8ThreeSidedMetablock|BenchmarkE20BatchedStab|BenchmarkStabPendingReplay|BenchmarkE25Ingest|BenchmarkE25MergeAmplification
BENCH_BASELINE := $(wildcard bench-baseline-pr1.txt)
bench:
	{ $(GO) test -run=NONE -bench=. -benchtime=1x -benchmem . ; \
	  $(GO) test -run=NONE -bench='$(HOT_BENCHES)' -benchtime=200x -benchmem . ; } | \
		tee bench-latest.txt | \
		$(GO) run ./cmd/experiments -bench-json BENCH.json \
			$(if $(BENCH_BASELINE),-bench-baseline $(BENCH_BASELINE))
	@echo wrote BENCH.json

# The repository benchmark (BENCHMARK.json): five workloads, seven
# end-to-end metrics each, built from source and run from bench/. Pass
# flags through ARGS, e.g. `make bench-e2e ARGS="--workload query-hot --trace 1"`.
bench-e2e:
	bash bench/run.sh $(ARGS)

# Small-scale E20 + E21 + E22: drives the batched query path, the durable
# (file-backed) serving path, and the HTTP auto-batching front-end end to
# end in a few seconds, so CI exercises the shared-traversal, persistence,
# and serving machinery on every push.
bench-smoke:
	$(GO) run ./cmd/experiments -run E20 -e20n 20000 -qbatch 1,16,64
	$(GO) run ./cmd/experiments -run E21 -e21n 20000
	$(GO) run ./cmd/experiments -run E22 -e22n 20000
	$(GO) run ./cmd/experiments -run E25 -e25n 12000

# Serving-path smoke: build ccserve + ccload, boot a real server on a
# loopback port, and run ccload's self-checking pass (health, mutation
# round-trip, concurrent burst, counter sanity) against it. The server's
# exit status and the smoke's both gate.
SERVE_ADDR := 127.0.0.1:18416
serve-smoke:
	$(GO) build -o bin/ccserve ./cmd/ccserve
	$(GO) build -o bin/ccload ./cmd/ccload
	@./bin/ccserve -addr $(SERVE_ADDR) -n 20000 -shards 4 & srv=$$!; \
		status=0; ./bin/ccload -addr http://$(SERVE_ADDR) -smoke || status=$$?; \
		kill $$srv 2>/dev/null; wait $$srv 2>/dev/null; exit $$status

# Ingest smoke: real binaries — a log-structured serving node (ccserve
# -ingest) next to a single-tree oracle node preloaded with the IDENTICAL
# seeded dataset. Pass 1 samples read answers against the oracle (the LSM
# fan-in must be bit-identical, as id sets, to the single tree); pass 2
# drives a mixed read/write load at the ingest node and gates on zero
# failed mutations and zero failed requests.
INGEST_ADDR := 127.0.0.1:18426
INGEST_ORACLE_ADDR := 127.0.0.1:18427
ingest-smoke:
	$(GO) build -o bin/ccserve ./cmd/ccserve
	$(GO) build -o bin/ccload ./cmd/ccload
	@./bin/ccserve -addr $(INGEST_ADDR) -n 20000 -shards 4 -ingest -memtable 2048 -maxruns 4 & srv=$$!; \
		./bin/ccserve -addr $(INGEST_ORACLE_ADDR) -n 20000 -shards 4 & orc=$$!; \
		for i in $$(seq 100); do \
			curl -sf http://$(INGEST_ADDR)/healthz >/dev/null 2>&1 && \
			curl -sf http://$(INGEST_ORACLE_ADDR)/healthz >/dev/null 2>&1 && break; \
			sleep 0.1; \
		done; \
		status=0; \
		./bin/ccload -addr http://$(INGEST_ADDR) -n 2000 -check http://$(INGEST_ORACLE_ADDR) || status=$$?; \
		if [ $$status -eq 0 ]; then \
			./bin/ccload -addr http://$(INGEST_ADDR) -n 5000 -write-ratio 0.4 || status=$$?; \
		fi; \
		kill $$srv $$orc 2>/dev/null; wait $$srv $$orc 2>/dev/null; exit $$status

# Replication smoke: real binaries — a durable replication-serving primary
# plus two snapshot-hydrated replicas behind ccload's failover router, with
# one replica kill -9'd and re-hydrated mid-load. Gates on zero failed
# requests and routed answers row-identical to the primary's sequential
# ones (ccload -check).
replica-smoke:
	$(GO) build -o bin/ccserve ./cmd/ccserve
	$(GO) build -o bin/ccload ./cmd/ccload
	./scripts/replica_smoke.sh bin

# Regression GATE: save the committed BENCH.json as the baseline, regenerate
# it, and fail on a >10% ios/op regression in any tier-1 benchmark (see
# cmd/benchdiff). CI runs this instead of merely uploading the artifact.
bench-gate:
	@cp BENCH.json .bench-baseline.json
	$(MAKE) bench
	@status=0; $(GO) run ./cmd/benchdiff -baseline .bench-baseline.json -current BENCH.json || status=$$?; \
		rm -f .bench-baseline.json; exit $$status

experiments:
	$(GO) run ./cmd/experiments

ci: vet build test race race-churn race-bench crash crash-matrix bench-smoke serve-smoke ingest-smoke replica-smoke
