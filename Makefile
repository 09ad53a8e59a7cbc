# Stdlib-only Go module; no code generation, no external tools.

GO ?= go

.PHONY: build vet fmt-check lint test race race-server bench bench-vm fuzz serve smoke-server smoke-restart smoke-vm chaos-smoke perfbench-check bench-smoke examples-smoke check ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: gofmt must be a no-op over the tree. staticcheck is
# unavailable offline, so the static gate is go vet + this.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# deadlint smoke over the example programs. Each example is a complete
# program with its own main(), so they are linted one file at a time.
# deadlint exits 0 even when it reports findings; only compile errors,
# degraded runs, and usage mistakes fail the target.
lint: vet fmt-check
	$(GO) build -o bin/deadlint ./cmd/deadlint
	for f in examples/mcc/*.mcc; do bin/deadlint $$f || exit 1; done

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused race pass over the concurrency-heavy layers (the server's
# singleflight/admission paths and the engine's session cache).
race-server:
	$(GO) test -race ./internal/server/... ./internal/engine/...

# Run the analysis daemon locally (see cmd/deadmemd for flags).
ADDR ?= 127.0.0.1:8100
serve:
	$(GO) build -o bin/deadmemd ./cmd/deadmemd
	bin/deadmemd -addr $(ADDR)

# End-to-end smoke: start deadmemd, probe /healthz, and diff /v1/analyze
# (plain and with every report section), /v1/lint and /v1/strip
# responses against deadmem, deadlint and deadstrip stdout byte-for-byte.
smoke-server:
	sh scripts/smoke_server.sh

# Warm-restart smoke: persist an artifact, SIGKILL the daemon, restart
# over the same -persist-dir, and verify the response is served from
# disk byte-identically with zero recompiles.
smoke-restart:
	sh scripts/smoke_restart.sh

# Engine smoke: every example program under tree and VM, plain and
# profiled (also at -parallel 4), byte-identical; then the paperbench
# -engines exhibit with zero diverged rows.
smoke-vm:
	sh scripts/smoke_vm.sh

# Chaos soak under the race detector: the test wraps the server in its
# own fault injector (faulty disk + faulty network), kills and restarts
# it mid-soak, and asserts byte-identity throughout (see
# internal/server/chaos_soak_test.go).
chaos-smoke:
	$(GO) test -race -run TestChaosSoak -v ./internal/server/

# The benchmark is a module of its own (perfbench/go.mod), so the root
# build and tests never compile it; this keeps it building against the
# internal packages it imports.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem

# One iteration of the lexer, frontend, call-graph and scaling benchmarks
# (up to 3200 classes), so their bodies, which fail on empty or failed
# output, run; -benchmem shows the frontend's allocation volume.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Lexer|Frontend|CallGraphRTA|AnalysisScaling' -benchtime 1x -benchmem .

# Run every Go example program (each examples/*/main.go); a nonzero exit
# fails the target. Their stdout is discarded, their stderr is not.
examples-smoke:
	for d in examples/*/main.go; do $(GO) run ./$$(dirname $$d) >/dev/null || exit 1; done

# Engine throughput snapshot over the 10-50x large corpus: runs each
# large benchmark to completion under both engines (the tree runs take
# about a minute each — this is a benchmarking target, not a CI gate)
# and writes the steps/sec comparison to BENCH_vm.json.
bench-vm:
	$(GO) build -o bin/paperbench ./cmd/paperbench
	bin/paperbench -engines -large -json >BENCH_vm.json
	cat BENCH_vm.json

# Short fuzzing smoke over each target (the checked-in corpus under
# testdata/fuzz/ is replayed by plain `make test` already).
FUZZTIME ?= 20s
fuzz:
	$(GO) test -fuzz=FuzzCompile -fuzztime=$(FUZZTIME) .
	$(GO) test -fuzz=FuzzAnalyze -fuzztime=$(FUZZTIME) .
	$(GO) test -fuzz=FuzzStripRoundTrip -fuzztime=$(FUZZTIME) .
	$(GO) test -fuzz=FuzzCFG -fuzztime=$(FUZZTIME) .
	$(GO) test -fuzz=FuzzVMDifferential -fuzztime=$(FUZZTIME) .

# The quick local gate: build + static checks + tests + the engine
# smoke. Slower CI-only passes (race soaks, server smokes) stay out.
check: build vet fmt-check test bench-smoke examples-smoke perfbench-check smoke-vm

# What CI runs (see .github/workflows/ci.yml).
ci: build vet race race-server lint bench-smoke examples-smoke smoke-server smoke-restart smoke-vm chaos-smoke perfbench-check
