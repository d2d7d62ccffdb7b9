# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test race test-scale bench bench-sim bench-harness race-service race-substrate race-durable chaos fuzz tables cover conform conformance clean

all: build vet test

build:
	$(GO) build ./...

vet: build
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Web-scale regression tier: million-node tests plus the 10^7-node
# smoke (docs/TESTING.md §Scale tests; CI runs this on a schedule).
test-scale:
	$(GO) test -run 'TestScale' -v ./internal/sim
	$(GO) test -run TestStreamedGeneratorInvariantsLarge -v ./internal/graph
	LISTCOLOR_SCALE=xl $(GO) test -run TestScaleTenMillionSmoke -timeout 30m -v ./internal/sim

# One iteration of every benchmark; full runs use plain `go test -bench`.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x .

# Web-scale simulator report (docs/TESTING.md §BENCH_sim.json). -o
# writes only after a successful run, so a failure keeps the old file.
bench-sim:
	$(GO) run ./cmd/benchtab -sim -o BENCH_sim.json

# Sweep-scheduler and durability report (docs/TESTING.md
# §BENCH_harness.json).
bench-harness:
	$(GO) run ./cmd/benchtab -harness -o BENCH_harness.json

# Concurrent read/write soaks of the incremental service under the
# race detector (the CI race job runs them alongside the full -race
# sweep).
race-service:
	$(GO) test -race -count 2 -run 'Concurrent' ./internal/service

# Durability under the race detector: the kill-point recovery
# differential plus the backpressure soak, both doubled (the CI race
# job runs the same pair).
race-durable:
	$(GO) test -race -count 2 -run 'TestRecovery|TestConcurrentBackpressureSoak' ./internal/service

# Full crash/corruption kill-point matrix at the fixed CI seed: 200
# seed-derived kills (batch boundaries, mid-record tears, flipped
# bytes, truncated tails), each recovered and differenced against the
# uninterrupted reference run. Exits nonzero on any divergence.
chaos:
	$(GO) run ./cmd/colord -chaos 200 -seed 1

# Parallel audit equivalence under the race detector: audit reports
# identical at every worker count, and the snapshot-audit soak under
# churn.
race-substrate:
	$(GO) test -race -count 2 -run 'TestAuditParallel' ./internal/coloring ./internal/service

fuzz:
	$(GO) test -fuzz FuzzReadEdgeList -fuzztime 15s ./internal/graph
	$(GO) test -fuzz FuzzOrientRoundTrip -fuzztime 15s ./internal/graph
	$(GO) test -fuzz FuzzReadJSON -fuzztime 15s ./internal/coloring
	$(GO) test -fuzz FuzzSolve -fuzztime 30s ./internal/twosweep
	$(GO) test -fuzz FuzzSelectorEquivalence -fuzztime 15s ./internal/twosweep
	$(GO) test -fuzz FuzzRouteEquivalence -fuzztime 15s ./internal/sim
	$(GO) test -fuzz FuzzCorruptedPayloadDecode -fuzztime 15s ./internal/sim
	$(GO) test -fuzz FuzzStreamingCSRBuild -fuzztime 15s ./internal/graph
	$(GO) test -fuzz FuzzTopoViewCompact -fuzztime 15s ./internal/graph
	$(GO) test -fuzz FuzzWALRecordDecode -fuzztime 15s ./internal/service

# Conformance matrix: CLI summary / heavy go-test tier (docs/TESTING.md).
conform:
	$(GO) run ./cmd/conform -seed 1

conformance:
	$(GO) test -tags conformance -v ./internal/conformance/...

# Regenerate the EXPERIMENTS.md tables (markdown on stdout).
tables:
	$(GO) run ./cmd/benchtab -markdown

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out
