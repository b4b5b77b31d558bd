GO ?= go

.PHONY: all build test vet race fmt-check gameday check ci clean

all: build test

# Fails if any file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The full gate: build, vet, formatting, unit tests, then the race-checked
# packages. Runs staticcheck too when it is installed.
ci: build vet fmt-check test race gameday check
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else echo "staticcheck not installed; skipping"; fi
	@echo "ci: all checks passed"

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# Race-checks the packages with intentional cross-goroutine sharing (the
# eval worker pool and its stateful ablation's locked session table, the
# flow tables' shared address-space allocator, the service tables
# every cluster member reads, the histograms the metrics handlers read while
# their rows grow) plus the packet path itself: the node pipeline, the PLB
# reorder engine and the multi-node cluster layer.
# The race detector slows the eval experiments ~10x, so the default 10m
# per-package test timeout is not enough headroom.
race:
	$(GO) test -race -timeout 30m ./internal/sim/ ./internal/eval/ ./internal/flowtable/ ./internal/service/ ./internal/cluster/ ./internal/core/ ./internal/workload/trace/ ./internal/scenario/ ./internal/metrics/ ./internal/controlplane/ ./internal/bgp/ ./internal/stats/ ./internal/plb/

# Gameday gate: every committed scenario must validate, run with all of
# its declared assertions passing, and print byte-identical stdout on a
# repeat run. The per-scenario assertions cover the rest where a scenario
# declares them: byte_identity compares outcome reports, which carry an
# FNV-64a of the full Prometheus export (the metrics determinism gate),
# across repeat runs and shard counts (regionscale: 1000 nodes at shards 1
# and 4); replay_identity is the record/replay fidelity gate (record-replay).
gameday: build
	@tmp=$$(mktemp -d); rc=0; \
	$(GO) build -o $$tmp/asim ./cmd/albatross-sim; \
	$$tmp/asim validate scenarios/*.yaml || rc=1; \
	for f in scenarios/*.yaml; do \
		name=$$(basename $$f .yaml); \
		timeout 240 $$tmp/asim run $$f > $$tmp/$$name.1 2>/dev/null || { echo "gameday: $$f FAILED"; rc=1; continue; }; \
		timeout 240 $$tmp/asim run $$f > $$tmp/$$name.2 2>/dev/null || { echo "gameday: $$f FAILED on repeat"; rc=1; continue; }; \
		cmp -s $$tmp/$$name.1 $$tmp/$$name.2 || { echo "gameday: $$f stdout differs across repeat runs"; rc=1; continue; }; \
		tail -1 $$tmp/$$name.1; \
	done; \
	rm -rf $$tmp; \
	if [ $$rc -ne 0 ]; then echo "gameday: scenario gate failed"; exit 1; fi; \
	echo "gameday: all scenarios passed, stdout repeat-identical"

# The gates that need more than `albatross-sim run DRILL`, one row each,
# "name|command"; a row passes when its command exits 0 within its timeout.
#   reconcile-*  the control-plane drills through the dedicated `reconcile`
#                subcommand (assertions demand zero loss, one-tick convergence,
#                shard and record<->replay identity), plus a -plan dry run of
#                the diff path.
#   series-*     the convergence drill's sampled timeline must export
#                byte-identical CSV and JSON across a repeat run and shards 1
#                vs 3 — the axes the timeline's tick-boundary epoch barrier
#                promises not to perturb.
#   burst-invariance  every committed drill prints the same report at
#                dispatch burst 1 and 8 (the dataplane echo line aside): burst
#                is a batch size and changes event counts only. The report
#                carries the outcome and series checksums, so this covers the
#                exported series too.
#   shard-invariance  every committed drill but regionscale (which asserts
#                shards 1 and 4 itself) prints the same report, filtered as
#                burst-invariance filters it, at -shards 1 and 3: the worker
#                count decides which goroutine advances a member's engine,
#                never what it executes.
#   artefacts    the full-scale report at seed 1 (~45 s on 2 vCPUs) must pass
#                and equal the committed experiments_output.txt line for line,
#                except what the host decides: the "(id in …)" timings, the
#                "total wall time" line and the bodies of the volatile
#                experiments, which the -json record names (their "== "
#                headers stay). Quick scale is tier-1's: TestQuickReportMatchesGolden
#                holds every deterministic experiment, the concury backend
#                checks among them, to internal/eval/testdata/quick-seed1.txt.
#   cachesim-fuzz  ten seconds of native fuzzing of the cache model against
#                its reference LRU, prefetcher on and off, through both host
#                layouts — pooled set blocks and, once a model fills, the dense
#                tag array — and the switch between them (the committed seeds
#                alone run in `go test`; the cross-* ones cross the switch).
#   spec-fuzz    ten seconds of native fuzzing of the standalone desired-state
#                loader (`reconcile -spec`): no input panics, rejections wrap
#                errs.BadConfig, and an accepted spec re-validates and loads
#                back from its own rendering (committed seeds run in `go test`).
#   bgp-fuzz     ten seconds of native fuzzing of the BGP message decoders the
#                bgp-proxy runs on TCP bytes: no input panics, and every
#                message the encoders produce decodes and encodes back to
#                itself (committed seeds run in `go test`).
#   cpu-fuzz     ten seconds of native fuzzing of the core queue model against
#                its event-driven reference (committed seeds run in `go test`).
#   lpm-fuzz     ten seconds of native fuzzing of the routing trie against its
#                brute-force reference: lookups, route and node counts, and the
#                modelled footprint (committed seeds run in `go test`).
#   hist-fuzz    ten seconds of native fuzzing of the histogram's first-touch
#                row layout against the dense 64-row reference: every query,
#                and deltas over snapshots taken around row growth and Reset
#                (committed seeds run in `go test`).
#   regionscale-30s  the 1000-node drill (three executions: the run, shards 1
#                and 4) inside 30 s — fleet set-up must follow the distinct
#                state, not the member count (it took 78 s when every member
#                built its own tables).
#   examples     each examples/* program builds and exits 0 within 60 s (all
#                seven take about 10 s): `go build ./...` compiles them, this
#                runs them.
#   reach        every exported function or method in non-test internal/ code
#                is linked into some main package (the linker's -dumpdep over
#                cmd/*, examples/*, bench) or named with its contract in
#                internal/reach-allow.txt, and no allowlist line is stale; a
#                self-test plants an unreached export and stale lines through
#                `go build -overlay` and requires the gate to name each.
check: build
	@tmp=$$(mktemp -d); rc=0; \
	$(GO) build -o $$tmp/asim ./cmd/albatross-sim; \
	asim="timeout 240 $$tmp/asim"; conv=scenarios/convergence-drill.yaml; \
	same() { cmp $$tmp/a.csv $$tmp/$$1.csv && cmp $$tmp/a.json $$tmp/$$1.json; }; \
	body() { awk -v vol=" $$2 " '/^\([a-z0-9-]+ in [^)]*\)$$/ || /^total wall time / { next } \
		/^== / { id = $$2; sub(/:$$/, "", id); skip = index(vol, " " id " ") > 0; print; next } !skip' $$1; }; \
	artefacts() { timeout 240 $(GO) run ./cmd/albatross-bench -seed 1 -json $$tmp/exp.json > $$tmp/exp.txt 2>&1 || return 1; \
		vol=$$(awk -F'"' '$$2 == "id" { id = $$4 } $$2 == "volatile" { print id }' $$tmp/exp.json | tr '\n' ' '); \
		body experiments_output.txt "$$vol" > $$tmp/want.txt; body $$tmp/exp.txt "$$vol" > $$tmp/got.txt; \
		diff $$tmp/want.txt $$tmp/got.txt; }; \
	report() { $$asim run -burst $$1 $$2 2>/dev/null | grep -v '^  dataplane ' > $$tmp/burst$$1; }; \
	invariant() { for f in scenarios/*.yaml; do report 1 $$f; report 8 $$f; \
		cmp -s $$tmp/burst1 $$tmp/burst8 || return 1; done; }; \
	workers() { $$asim run -shards $$1 $$2 2>/dev/null | grep -v '^  dataplane ' > $$tmp/shards$$1; }; \
	shardinv() { for f in scenarios/*.yaml; do case $$f in */regionscale.yaml) continue;; esac; \
		workers 1 $$f; workers 3 $$f; cmp -s $$tmp/shards1 $$tmp/shards3 || return 1; done; }; \
	examples() { for d in examples/*/; do $(GO) build -o $$tmp/example ./$$d && timeout 60 $$tmp/example || return 1; done; }; \
	for row in \
		"reconcile-canary|$$asim reconcile scenarios/reconcile-canary.yaml" \
		"reconcile-drain|$$asim reconcile scenarios/reconcile-drain.yaml" \
		"reconcile-scale|$$asim reconcile scenarios/reconcile-scale.yaml" \
		"reconcile-plan|$$asim reconcile -plan scenarios/reconcile-canary.yaml" \
		"series-base|$$asim run -series-out $$tmp/a $$conv" \
		"series-repeat|$$asim run -series-out $$tmp/b $$conv && same b" \
		"series-shards|$$asim run -shards 3 -series-out $$tmp/c $$conv && same c" \
		"burst-invariance|invariant" \
		"shard-invariance|shardinv" \
		"artefacts|artefacts" \
		"cachesim-fuzz|$(GO) test -run '^\$$' -fuzz FuzzCacheMatchesReferenceLRU -fuzztime 10s ./internal/cachesim" \
		"spec-fuzz|$(GO) test -run '^\$$' -fuzz FuzzLoadSpec -fuzztime 10s ./internal/scenario" \
		"bgp-fuzz|$(GO) test -run '^\$$' -fuzz FuzzDecodeMessages -fuzztime 10s ./internal/bgp" \
		"hist-fuzz|$(GO) test -run '^\$$' -fuzz FuzzHistogramMatchesDense -fuzztime 10s ./internal/stats" \
		"cpu-fuzz|$(GO) test -run '^\$$' -fuzz FuzzCoreMatchesReference -fuzztime 10s ./internal/cpu" \
		"lpm-fuzz|$(GO) test -run '^\$$' -fuzz FuzzTrieMatchesReference -fuzztime 10s ./internal/lpm" \
		"regionscale-30s|timeout 30 $$tmp/asim run scenarios/regionscale.yaml" \
		"examples|examples" \
		"reach|$(GO) test -tags reach -run TestReach -count=1 ." \
	; do \
		name=$${row%%|*}; cmd=$${row#*|}; \
		if eval "$$cmd" >/dev/null 2>&1; then echo "check: $$name ok"; \
		else echo "check: $$name FAILED: $$cmd"; rc=1; fi; \
	done; \
	rm -rf $$tmp; \
	if [ $$rc -ne 0 ]; then echo "check: gate failed"; exit 1; fi; \
	echo "check: all rows passed"

clean:
	rm -f albatross-bench
