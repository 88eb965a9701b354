GO ?= go

.PHONY: verify build test vet race bench-check fuzz profile fmt-check serve-smoke fleet-smoke corpus-smoke title-smoke loop-smoke clean

## verify is the tier-1 gate: every PR must leave it green.
verify: fmt-check vet build race bench-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

## -race on the CRF training loops is ~10× slower than native; the longer
## timeout keeps the suite from flaking on small (single-CPU) machines.
## This also runs the fleet chaos test (internal/fleet TestFleetChaosClosedLoop:
## 1k-request closed loop with one of three backends killed and another
## wedged mid-run) under the race detector — the fleet's tier-1 gate.
race:
	$(GO) test -race -timeout 20m ./...

## bench-check vets and tests the benchmark harness (perfbench, a separate
## module that builds against this one through a replace directive), so a
## core or corpus API change that breaks the benchmark's build fails the
## tier-1 gate. It runs offline and writes nothing under perfbench/.
bench-check:
	cd perfbench && GOFLAGS=-mod=mod GOPROXY=off $(GO) vet ./... && GOFLAGS=-mod=mod GOPROXY=off $(GO) test ./...

## profile runs the bootstrap overhead benchmarks with CPU and memory
## profiles; inspect them with `go tool pprof cpu.prof`.
profile:
	$(GO) test -run='^$$' -bench='BenchmarkBootstrap(Noop|Live)Recorder' \
		-benchtime=3x -cpuprofile=cpu.prof -memprofile=mem.prof .

## fmt-check fails when any file is not gofmt-clean, printing the offenders.
## Part of the tier-1 verify gate: an unformatted tree fails the PR.
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

## serve-smoke is the end-to-end serving check: it trains a tiny model,
## writes a bundle, starts the paeserve core on a loopback listener, extracts
## one synthetic page over HTTP, asserts a non-empty triple, and drains the
## server — the TestServeSmoke path, under -race. Not part of the tier-1
## verify gate.
serve-smoke:
	$(GO) test -race -count=1 -run 'TestServeSmoke' -v ./internal/serve

## fleet-smoke is the end-to-end fleet check through real processes: it
## builds the paeserve and paerouter binaries, starts three backends and the
## router on loopback, drives a 200-request closed loop, SIGKILLs one backend
## a third of the way in, and requires zero failed requests — retries and
## health checks must absorb the crash. Every request carries an X-Pae-Trace
## ID that must round-trip, /metrics is scraped mid-load on the router and
## surviving backends (request counters must be non-zero), and /debug/traces
## must have captured the run. Not part of the tier-1 verify gate
## (the same containment runs in-process, under -race, in internal/fleet's
## chaos test); this target proves it end to end with actual sockets.
fleet-smoke:
	PAE_FLEET_SMOKE=1 $(GO) test -count=1 -run 'TestFleetSmoke' -v ./cmd/paerouter

## corpus-smoke is the end-to-end streaming-corpus check: paegen writes the
## same corpus in two shard geometries, paerun bootstraps both from disk (one
## with the prepared-corpus spill enabled), and the triples and model bundles
## must be byte-identical — the on-disk layout-invariance contract, exercised
## through the real binaries. Two more spilled runs over the sharded corpus
## share a checkpoint: c1 fills the shard cache, c2 reuses every shard, and
## c2's bundle must equal c1's and its triples a's. (Checkpointed runs stamp
## corpus provenance into the bundle, so c*.paeb never equals a.paeb.)
## paeinspect re-verifies every shard fingerprint. Not part of the tier-1
## verify gate; the same invariants run in-process (including against the
## in-memory path) in TestRunSourceLayoutInvariant and TestSpillWithShardCache.
CORPUS_SMOKE_DIR ?= /tmp/pae-corpus-smoke
corpus-smoke:
	rm -rf $(CORPUS_SMOKE_DIR) && mkdir -p $(CORPUS_SMOKE_DIR)
	$(GO) run ./cmd/paegen -category "Vacuum Cleaner" -items 60 -shard-size 16 -out $(CORPUS_SMOKE_DIR)/sharded
	$(GO) run ./cmd/paegen -category "Vacuum Cleaner" -items 60 -shard-size 1000 -out $(CORPUS_SMOKE_DIR)/single
	$(GO) run ./cmd/paeinspect corpus -verify $(CORPUS_SMOKE_DIR)/sharded
	$(GO) run ./cmd/paerun -corpus $(CORPUS_SMOKE_DIR)/sharded -iterations 1 -spill $(CORPUS_SMOKE_DIR)/spill \
		-out $(CORPUS_SMOKE_DIR)/a.jsonl -bundle $(CORPUS_SMOKE_DIR)/a.paeb
	$(GO) run ./cmd/paerun -corpus $(CORPUS_SMOKE_DIR)/single -iterations 1 \
		-out $(CORPUS_SMOKE_DIR)/b.jsonl -bundle $(CORPUS_SMOKE_DIR)/b.paeb
	cmp $(CORPUS_SMOKE_DIR)/a.jsonl $(CORPUS_SMOKE_DIR)/b.jsonl
	cmp $(CORPUS_SMOKE_DIR)/a.paeb $(CORPUS_SMOKE_DIR)/b.paeb
	$(GO) run ./cmd/paerun -corpus $(CORPUS_SMOKE_DIR)/sharded -iterations 1 -spill $(CORPUS_SMOKE_DIR)/spill \
		-checkpoint $(CORPUS_SMOKE_DIR)/ckpt -out $(CORPUS_SMOKE_DIR)/c1.jsonl -bundle $(CORPUS_SMOKE_DIR)/c1.paeb
	$(GO) run ./cmd/paerun -corpus $(CORPUS_SMOKE_DIR)/sharded -iterations 1 -spill $(CORPUS_SMOKE_DIR)/spill \
		-checkpoint $(CORPUS_SMOKE_DIR)/ckpt -out $(CORPUS_SMOKE_DIR)/c2.jsonl -bundle $(CORPUS_SMOKE_DIR)/c2.paeb
	cmp $(CORPUS_SMOKE_DIR)/c1.paeb $(CORPUS_SMOKE_DIR)/c2.paeb
	cmp $(CORPUS_SMOKE_DIR)/c2.jsonl $(CORPUS_SMOKE_DIR)/a.jsonl
	@echo "corpus-smoke OK: triples and bundle byte-identical across shard geometries, spill and shard-cache reuse"

## title-smoke is the end-to-end title-workload check through real binaries:
## paegen writes a title corpus, paerun bootstraps it into a title bundle
## (the workload travels via the corpus manifest, no extra flags), paeserve
## hosts it, and one extraction round-trips over HTTP — the workload
## handshake must admit title requests and refuse detail-page ones. Not part
## of the tier-1 verify gate; the same contracts run in-process in
## internal/core, internal/serve and internal/fleet.
title-smoke:
	PAE_TITLE_SMOKE=1 $(GO) test -count=1 -run 'TestTitleSmoke' -v ./cmd/paeserve

## loop-smoke is the end-to-end production-loop check through real binaries:
## paegen writes a corpus, paerun -checkpoint bootstraps the live bundle, a
## two-backend fleet serves it behind paerouter, and paepromote then (a)
## REJECTS a sabotaged candidate — the fleet keeps its fingerprint — and (b)
## after paegen -append grows the corpus and paerun -incremental retrains
## (reusing checkpointed shards), PROMOTES the clean candidate via each
## backend's hot reload. A closed-loop load runs through both acts and must
## see zero failed requests across the swap. Not part of the tier-1 verify
## gate; the gate and rollout logic run in-process in internal/promote.
loop-smoke:
	PAE_LOOP_SMOKE=1 $(GO) test -count=1 -run 'TestLoopSmoke' -v ./cmd/paepromote

## fuzz runs each fuzz target briefly; the checked-in corpora under
## testdata/fuzz/ are replayed by plain `make test` as well. Minimising a new
## input is capped at 2 s: go's default of 60 s outlasts FUZZTIME, so a worker
## would spend the rest of the run shrinking its first find.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzDiscoverCandidates -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/seed
	$(GO) test -run=^$$ -fuzz=FuzzTitleSeed -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/seed
	$(GO) test -run=^$$ -fuzz=FuzzLex -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/htmlx
	$(GO) test -run=^$$ -fuzz=FuzzDecodeModel -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/bundle
	$(GO) test -run=^$$ -fuzz=FuzzLoadBundle -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/bundle
	$(GO) test -run=^$$ -fuzz=FuzzShardEntry -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzReadCheckpoint -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/core

clean:
	$(GO) clean -testcache
	rm -f cpu.prof mem.prof pae.test
