GO ?= go

.PHONY: all build test vet race fmt-check gameday check census ci clean

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
# eval worker pool, the flow tables' shared address-space allocator and the
# locked session table their stateful-NF test shares, the service tables
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
#   reconcile-plan  a `reconcile -plan` dry run of the desired-state diff
#                path (gameday runs the reconcile drills themselves).
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
#                except the two lines the host decides: the "(id in …)"
#                timings and the "total wall time" line. Quick scale is
#                tier-1's: TestQuickReportMatchesGolden holds every
#                experiment to internal/eval/testdata/quick-seed1.txt.
#   bench-smoke  every benchmark under internal/ runs once (`go test` never
#                runs them; ~10 s on 2 vCPUs), so the host-timing pairs that
#                left the report — meta placement, shared vs per-worker
#                session tables — and the engine, settle, histogram, cache
#                model, trie and service-chain timings cannot rot.
#   cachesim-fuzz  ten seconds of native fuzzing of the cache model against
#                its reference LRU, prefetcher on and off, through both host
#                layouts — pooled set blocks and, once a model fills, the dense
#                tag array — and the switch between them (the committed seeds
#                alone run in `go test`; the cross-* ones cross the switch).
#   spec-fuzz    ten seconds of native fuzzing of the desired-state decoder,
#                each input loaded as a minimal scenario's spec: block: no
#                input panics, rejections wrap errs.BadConfig, and an accepted
#                spec re-validates and loads back from its own rendering
#                (committed seeds run in `go test`).
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
#                (committed seeds run in `go test`; the reference's snapshots
#                hold its nonzero buckets only, so a check costs what the
#                program recorded).
#   plb-fuzz     ten seconds of native fuzzing of the PLB reorder engine's
#                growing FIFO/BUF rings against the full-depth rings they
#                replace: dispatches, returns, drop flags, timeouts, core
#                evictions, stress holds and clamps, Flush and PSN wrap must
#                give the same emissions and counters (committed seeds run in
#                `go test`; the grow-* ones cross every ring doubling).
#   index-fuzz   ten seconds of native fuzzing of the exact-match index's
#                8-byte (hash, ordinal+1) slots over a dense key array against
#                the 32-byte key-carrying slots they replace: ordinals, Len and
#                hit/miss per operation and the slot arrays slot for slot, under
#                the real hash and three colliding ones, across every doubling
#                (committed seeds run in `go test`).
#   session-fuzz ten seconds of native fuzzing of the session backend's
#                insert-only table (8-byte slots over paged records) against
#                pinnings held in insertion order beside a Go map from key
#                to pinning: the pod each insert, lookup and select returns,
#                Len, Stats, and after every pool update, an empty pool
#                included, every pinning (one walk over the two arrays) and
#                the slot invariants (when the slots changed), under
#                the real hash and three colliding ones (committed seeds run
#                in `go test`; they cross every slot doubling and page, and
#                empty the pool and refill the table).
#   engine-fuzz  ten seconds of native fuzzing of the event engine's FIFO
#                beside its heap against the heap-only engine it replaced:
#                the events run, in order and at their times, and every
#                Step, Stop, Advance, Precedes and query answer, through
#                same-delay trains, reserved sequence numbers, cancellation
#                storms that compact both structures and Advance from inside
#                events (committed seeds run in `go test`; they reach each
#                of those cases).
#   scenario-fuzz  ten seconds of native fuzzing of the drill loader: no
#                document panics, rejections wrap errs.BadConfig, and an
#                accepted scenario re-validates (seeds run in `go test`).
#   trace-fuzz   ten seconds of native fuzzing of the packet-trace decoder
#                record/replay runs on: no input panics, rejections wrap
#                ErrBadTrace and errs.BadConfig, and an accepted trace
#                re-encodes canonically (seeds run in `go test`).
#   service-fuzz  ten seconds of native fuzzing of the gateway service chain
#                against its reference chain: packet for packet, every
#                verdict, cost and modelled cache access (seeds run in
#                `go test`).
#                Every *-fuzz row prints its last "execs: … new interesting: …"
#                line, and minimises a new input for at most 10 runs
#                (-fuzzminimizetime 10x): on 2 vCPUs the default 60 s of
#                minimising the first new input used up the whole -fuzztime.
#   regionscale-30s  the 1000-node drill (three executions: the run, shards 1
#                and 4) inside 30 s — fleet set-up must follow the distinct
#                state, not the member count (it took 78 s when every member
#                built its own tables).
#   examples     each examples/* program builds and exits 0 within 60 s (all
#                seven take about 10 s): `go build ./...` compiles them, this
#                runs them.
#   reach        every function or method, exported or not, in non-test
#                internal/ code and in the root (facade) package is linked
#                into some main package (the linker's -dumpdep over cmd/*,
#                examples/*, bench) or named with its contract in
#                internal/reach-allow.txt, and no allowlist line is stale; a
#                self-test plants an unreached internal export, an unreached
#                unexported function, an unreached facade function and stale
#                lines through `go build -overlay` and requires the gate to
#                name each.
check: build
	@tmp=$$(mktemp -d); rc=0; \
	$(GO) build -o $$tmp/asim ./cmd/albatross-sim; \
	asim="timeout 240 $$tmp/asim"; conv=scenarios/convergence-drill.yaml; \
	same() { cmp $$tmp/a.csv $$tmp/$$1.csv && cmp $$tmp/a.json $$tmp/$$1.json; }; \
	body() { grep -Ev '^\([a-z0-9-]+ in [^)]*\)$$|^total wall time ' $$1; }; \
	artefacts() { timeout 240 $(GO) run ./cmd/albatross-bench -seed 1 > $$tmp/exp.txt 2>&1 || return 1; \
		body experiments_output.txt > $$tmp/want.txt; body $$tmp/exp.txt > $$tmp/got.txt; \
		diff $$tmp/want.txt $$tmp/got.txt; }; \
	report() { $$asim run -burst $$1 $$2 2>/dev/null | grep -v '^  dataplane ' > $$tmp/burst$$1; }; \
	invariant() { for f in scenarios/*.yaml; do report 1 $$f; report 8 $$f; \
		cmp -s $$tmp/burst1 $$tmp/burst8 || return 1; done; }; \
	workers() { $$asim run -shards $$1 $$2 2>/dev/null | grep -v '^  dataplane ' > $$tmp/shards$$1; }; \
	shardinv() { for f in scenarios/*.yaml; do case $$f in */regionscale.yaml) continue;; esac; \
		workers 1 $$f; workers 3 $$f; cmp -s $$tmp/shards1 $$tmp/shards3 || return 1; done; }; \
	examples() { for d in examples/*/; do $(GO) build -o $$tmp/example ./$$d && timeout 60 $$tmp/example || return 1; done; }; \
	fuzz() { $(GO) test -run '^\$$' -fuzz $$1 -fuzztime 10s -fuzzminimizetime 10x $$2 > $$tmp/fuzz.log 2>&1; frc=$$?; \
		grep 'execs:' $$tmp/fuzz.log | tail -1 > $$tmp/fuzzline; return $$frc; }; \
	for row in \
		"reconcile-plan|$$asim reconcile -plan scenarios/reconcile-canary.yaml" \
		"series-base|$$asim run -series-out $$tmp/a $$conv" \
		"series-repeat|$$asim run -series-out $$tmp/b $$conv && same b" \
		"series-shards|$$asim run -shards 3 -series-out $$tmp/c $$conv && same c" \
		"burst-invariance|invariant" \
		"shard-invariance|shardinv" \
		"artefacts|artefacts" \
		"bench-smoke|$(GO) test -run '^\$$' -bench . -benchtime 1x ./internal/..." \
		"cachesim-fuzz|fuzz FuzzCacheMatchesReferenceLRU ./internal/cachesim" \
		"spec-fuzz|fuzz FuzzLoadSpec ./internal/scenario" \
		"bgp-fuzz|fuzz FuzzDecodeMessages ./internal/bgp" \
		"hist-fuzz|fuzz FuzzHistogramMatchesDense ./internal/stats" \
		"cpu-fuzz|fuzz FuzzCoreMatchesReference ./internal/cpu" \
		"lpm-fuzz|fuzz FuzzTrieMatchesReference ./internal/lpm" \
		"plb-fuzz|fuzz FuzzPLBRingsMatchFullDepth ./internal/plb" \
		"index-fuzz|fuzz FuzzIndexMatchesReference ./internal/flowtable" \
		"session-fuzz|fuzz FuzzSessionMatchesReference ./internal/flowtable" \
		"engine-fuzz|fuzz FuzzEngineMatchesReference ./internal/sim" \
		"scenario-fuzz|fuzz FuzzLoadScenario ./internal/scenario" \
		"trace-fuzz|fuzz FuzzRead ./internal/workload/trace" \
		"service-fuzz|fuzz FuzzServiceMatchesReferenceChain ./internal/service" \
		"regionscale-30s|timeout 30 $$tmp/asim run scenarios/regionscale.yaml" \
		"examples|examples" \
		"reach|$(GO) test -tags reach -run TestReach -count=1 ." \
	; do \
		name=$${row%%|*}; cmd=$${row#*|}; \
		if eval "$$cmd" >/dev/null 2>&1; then echo "check: $$name ok"; \
		else echo "check: $$name FAILED: $$cmd"; rc=1; fi; \
		if [ -s $$tmp/fuzzline ]; then sed 's/^/  /' $$tmp/fuzzline; rm -f $$tmp/fuzzline; fi; \
	done; \
	rm -rf $$tmp; \
	if [ $$rc -ne 0 ]; then echo "check: gate failed"; exit 1; fi; \
	echo "check: all rows passed"

# Coverage census: which statements the programs run. Builds
# cmd/albatross-sim, cmd/albatross-bench, bench and examples/* with
# -cover -coverpkg=albatross/..., runs every drill (validate, then run with
# -report -metrics-out -outcome-out), convergence-drill with -series-out
# -trace-dump -record -burst 8 -shards 3, node-crash with -backend session,
# reconcile -plan on the reconcile-* drills, replay-diff of healthy-baseline
# against node-crash and against itself, albatross-bench -quick, and each
# bench workload for 1 s untraced and traced; then prints the statement
# share and every function at 0.0 %, once for the programs alone and once
# with each examples/* program's run added. A report, not a gate: it is in
# neither ci nor check (~3 min on 2 vCPUs).
census:
	@tmp=$$(mktemp -d); mkdir -p $$tmp/prog $$tmp/ex; \
	cov="-cover -coverpkg=albatross/..."; \
	$(GO) build $$cov -o $$tmp/asim ./cmd/albatross-sim && \
	$(GO) build $$cov -o $$tmp/abench ./cmd/albatross-bench && \
	$(GO) build $$cov -o $$tmp/bench ./bench || { rm -rf $$tmp; exit 1; }; \
	for d in examples/*/; do $(GO) build $$cov -o $$tmp/ex-$$(basename $$d) ./$$d || { rm -rf $$tmp; exit 1; }; done; \
	run() { "$$@" > /dev/null 2>&1 || echo "census: exit $$? from $$*"; }; \
	report() { $(GO) tool covdata textfmt -i=$$2 -o $$tmp/cov.txt && \
		$(GO) tool cover -func=$$tmp/cov.txt > $$tmp/func.txt && \
		awk 'NR > 1 { n[$$1] = $$2; if ($$3 > 0) hit[$$1] = 1 } \
			END { for (b in n) { all += n[b]; if (b in hit) ran += n[b] } \
			printf "census: %s: %d / %d statements run (%.1f %%)\n", label, ran, all, 100 * ran / all }' \
			label="$$1" $$tmp/cov.txt; \
		echo "census: $$1: functions at 0.0 %:"; \
		awk '$$NF == "0.0%" { sub(/^albatross\//, "", $$1); print "  " $$1 " " $$2 }' $$tmp/func.txt; }; \
	export GOCOVERDIR=$$tmp/prog; \
	run $$tmp/asim validate scenarios/*.yaml; \
	for f in scenarios/*.yaml; do n=$$(basename $$f .yaml); \
		run $$tmp/asim run -report -metrics-out $$tmp/$$n -outcome-out $$tmp/$$n.outcome $$f; done; \
	run $$tmp/asim run -series-out $$tmp/series -trace-dump $$tmp/journeys -record $$tmp/conv.trace \
		-burst 8 -shards 3 scenarios/convergence-drill.yaml; \
	run $$tmp/asim run -backend session scenarios/node-crash.yaml; \
	for f in scenarios/reconcile-*.yaml; do run $$tmp/asim reconcile -plan $$f; done; \
	$$tmp/asim replay-diff $$tmp/healthy-baseline.outcome $$tmp/node-crash.outcome > /dev/null 2>&1; \
	[ $$? = 1 ] || echo "census: replay-diff of two different outcomes did not exit 1"; \
	run $$tmp/asim replay-diff $$tmp/healthy-baseline.outcome $$tmp/healthy-baseline.outcome; \
	run $$tmp/abench -quick; \
	for w in node-perpkt node-burst-miss node-faulted cluster-8 fleet-256 gameday; do \
		run $$tmp/bench -workload $$w -seconds 1; run $$tmp/bench -workload $$w -seconds 1 -trace 1; done; \
	report programs $$tmp/prog; \
	export GOCOVERDIR=$$tmp/ex; \
	for d in examples/*/; do run $$tmp/ex-$$(basename $$d); done; \
	report "programs and examples" $$tmp/prog,$$tmp/ex; \
	rm -rf $$tmp

clean:
	rm -f albatross-bench
