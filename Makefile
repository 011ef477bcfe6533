# Developer entry points. `make check` is the extended tier-1 gate
# (see ROADMAP.md): gofmt (fmt), go vet (vet), the cruzvet lint suite
# (cruzvet), build, the full tests (test), race-detector runs of the
# packages with concurrency-sensitive bookkeeping (race), and the bench/
# module's vet and smoke test (bench-smoke).

GO ?= go

.PHONY: check build test fmt vet race cruzvet cover traffic bench bench-smoke vdiff vsame vgate tsame gobench fuzz-smoke trace-demo

check: fmt vet cruzvet build test race bench-smoke

# gofmt prints the files it would rewrite; any name is a failure.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

# cruzvet is the in-tree determinism-and-invariant lint suite
# (internal/analysis, driven by cmd/cruzvet): no wall-clock/ambient
# entropy or mutexes in sim-side packages, no map-order leaking into
# sim-visible state, spans ended on every path, pool buffers returned
# exactly once, ctl ops always completed, trace contexts
# propagated, no dropped errors on sim-side paths. The build fails on
# any unsuppressed finding and (-strict-allow) on any stale
# //cruzvet:allow directive; see DESIGN.md "Determinism rules".
cruzvet:
	$(GO) run ./cmd/cruzvet -stats -strict-allow ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Untested-code census: re-run the tier-1 suite with coverage over every
# package and print each non-test function no test executes, outside
# internal/analysis, cmd/ and gobmemotest (`go tool cover -func` lines at
# 0.0 %). A simplification starts from this list: such a function is dead,
# or its behaviour is unchecked. It only prints; its twin over the
# producers, traffic below, is the gate (traffic.allow). It re-runs the
# whole suite (≈ 45 s on 2 vCPUs), so check does not include it. The
# profile goes under $$TMPDIR and is removed either way.
COVER_SKIP = ^cruz/(internal/analysis|cmd|internal/gobmemo/gobmemotest)/
cover: SHELL = bash
cover:
	@prof=$$(mktemp "$${TMPDIR:-/tmp}/cover.XXXXXX") && trap 'rm -f "$$prof"' EXIT && \
	$(GO) test -coverpkg=./... -coverprofile="$$prof" ./... >/dev/null && \
	$(GO) tool cover -func="$$prof" | awk '$$NF == "0.0%" && $$1 !~ "$(COVER_SKIP)"'

# Producer census, cover's twin, and a gate: what the producers reach
# instead of what the tests reach. It builds cmd/cruzbench, cmd/cruzsim
# and the bench/ module with coverage over every package of this module,
# runs every scenario row, the failover row once more with -v -trace (the
# timeline, the Chrome trace and the flight dumps it prints are producers'
# output too), the paper evaluation at scale 0.05 (writing the phases
# experiment's Chrome trace) and one benchmark pass (from bench/, whose
# only input is BENCHMARK.json), merges the profiles and finds each
# non-test function none of them executes, outside internal/analysis,
# cmd/, gobmemotest and bench/. Such a function is dead or test-only, or a
# path no recorded number crosses, so it must be deleted, reached, or
# listed in traffic.allow by file and name with one reason tag (the file's
# header defines the six). It fails on a function found and not listed,
# on a line whose function is gone or now runs, on a missing or unknown
# tag, on a `rare` line whose test does not exist and on an `oracle` line
# testOnly does not list; it passes with one line of counts per tag.
# ≈ 75 s on 2 vCPUs, so check does not include it (CI runs it). Binaries
# and profiles go under $$TMPDIR and are removed either way.
TRAFFIC_SKIP = ^cruz/(internal/analysis|cmd|internal/gobmemo/gobmemotest|bench)/
TRAFFIC_TAGS = item17 item20 oracle fault rare iface
TRAFFIC_Q = function oracle(file, fn, dot) { \
		sub(/\/[^\/]*$$/, "", file); sub(/^\*/, "", fn); dot = index(fn, "."); \
		return "\"cruz/" file "." (dot ? "(" substr(fn, 1, dot - 1) ")" substr(fn, dot) : fn) "\":" \
	} \
	BEGIN { \
		n = split(tags, t, " "); for (i = 1; i <= n; i++) count[t[i]] = 0; \
		while ((getline l < "internal/analysis/surface_test.go") > 0) surface = surface l "\n" \
	} \
	FILENAME != "traffic.allow" { found[++nf] = $$1 " " $$2; census[$$1 " " $$2] = 1; next } \
	/^\#/ || NF == 0 { next } \
	{ k = $$1 " " $$2; at = "traffic.allow:" FNR ": " k ": " } \
	k in listed { print at "listed twice"; bad = 1 } \
	{ listed[k] = 1 } \
	!($$3 in count) || NF != 3 + ($$3 == "rare") { print at "want one tag of: " tags " (rare names its test)"; bad = 1; next } \
	$$3 == "rare" && system("grep -rqs --include=\047*_test.go\047 --exclude-dir=.bench_build \"^func " $$4 "(\" .") \
		{ print at "no test " $$4; bad = 1 } \
	$$3 == "oracle" && !index(surface, oracle($$1, $$2)) { print at "tagged oracle, but testOnly does not list it"; bad = 1 } \
	!(k in census) { print at "stale: a producer runs it now, or it is gone"; bad = 1; next } \
	{ count[$$3]++ } \
	END { \
		for (i = 1; i <= nf; i++) if (!(found[i] in listed)) { \
			print found[i] ": no producer runs it: reach it, delete it, or list it in traffic.allow with a reason"; bad = 1 \
		} \
		if (bad) exit 1; \
		printf "traffic: %d functions no producer runs, each listed in traffic.allow:", nf; \
		for (i = 1; i <= n; i++) printf " %s %d", t[i], count[t[i]]; \
		print "" \
	}
traffic: SHELL = bash
traffic:
	@tmp=$$(mktemp -d "$${TMPDIR:-/tmp}/traffic.XXXXXX") && trap 'rm -rf "$$tmp"' EXIT && \
	mkdir "$$tmp/cov" && \
	$(GO) build -cover -coverpkg=cruz/... -o "$$tmp/cruzbench" ./cmd/cruzbench && \
	$(GO) build -cover -coverpkg=cruz/... -o "$$tmp/cruzsim" ./cmd/cruzsim && \
	$(GO) -C bench build -cover -coverpkg=cruz/... -o "$$tmp/bench" . && \
	export GOCOVERDIR="$$tmp/cov" && \
	rows=$$("$$tmp/cruzsim" -h 2>&1 | awk '$$1 == "-scenario" && NF > 2 { print $$2 }') && \
	for row in $$rows; do "$$tmp/cruzsim" -scenario $$row >/dev/null || exit 1; done && \
	"$$tmp/cruzsim" -scenario failover -v -trace "$$tmp/failover.json" >/dev/null && \
	"$$tmp/cruzbench" -scale 0.05 -traceout "$$tmp/phases.json" >/dev/null && \
	(cd bench && "$$tmp/bench" -passes 1 -seed 1 >/dev/null) && \
	$(GO) tool covdata func -i "$$tmp/cov" >"$$tmp/func" && \
	awk '$$NF == "0.0%" && $$1 !~ "$(TRAFFIC_SKIP)" { sub(/^cruz\//, "", $$1); sub(/:[0-9]+:$$/, "", $$1); print $$1, $$2 }' \
		"$$tmp/func" >"$$tmp/census" && \
	awk -v tags="$(TRAFFIC_TAGS)" '$(TRAFFIC_Q)' "$$tmp/census" traffic.allow

race:
	$(GO) test -race ./internal/trace/... ./internal/metrics/... ./internal/ctl/... ./internal/core/... ./internal/coord/... ./internal/tcpip/... ./internal/mem/... ./internal/ckpt/... ./internal/gobmemo/... ./internal/flush/... ./internal/dhcp/...
	$(GO) test -race -run TestParallelClustersTraceLikeASequentialRun .

# The paper's evaluation as an exact gate: re-run every experiment at
# scale 1 and fail on any cell of its record that differs from the
# checked-in BENCH_cruz.json. Every cell is virtual time or a count,
# exact per tree, so a difference is a moved number: the diff names the
# cells, and bench.tmp.json, left behind, becomes the new BENCH_cruz.json
# only with the cause named in CHANGES.md. It runs with no memory limit:
# the whole record peaks at a VmHWM of about 3 GB (EXPERIMENTS' header).
# `make bench EXP=migrate` runs one experiment in its own process and
# diffs its cells against the record's under the key prefixes the run
# printed (jq -S on both sides).
BENCH_Q = ($$run[0] | keys | map(split("/")[0]) | unique) as $$p | with_entries(select(.key | split("/")[0] | IN($$p[])))
bench: SHELL = bash
bench:
ifeq ($(EXP),)
	$(GO) run ./cmd/cruzbench -json bench.tmp.json
	diff -u BENCH_cruz.json bench.tmp.json
else
	$(GO) run ./cmd/cruzbench -exp $(EXP) -json bench.tmp.json
	diff -u <(jq -S --slurpfile run bench.tmp.json '$(BENCH_Q)' BENCH_cruz.json) <(jq -S . bench.tmp.json)
endif
	rm -f bench.tmp.json

# Wall-clock benchmarks, one per layer the page path crosses (a capture
# with no store and one deduplicating against the store's chunks; a
# capture's stale page hashes, per page and batched), the two
# gob codecs of the control path (frames, manifests), the erasure-coded
# tier's two per-set steps (reading a shard manifest; planning a 4+2 set of
# 256 stripes in full and, reusing the prior set's parity, in steady
# state), the per-frame and per-step paths of the substrate (switch
# forwarding, the kernel's step cycle, one slm ring step), plus the
# tracer-overhead guard (trace=false must match the pre-tracing baseline).
# Every one reports B/op and allocs/op, which repeat exactly and are the
# numbers to compare across commits (EXPERIMENTS.md appendices A12, A13,
# A18, A23, A24, A25, A33 and A34 hold the last recorded sets). No
# thresholds — host timings are informational.
gobench:
	$(GO) test -run XXX -bench='BenchmarkCheckpoint$$|BenchmarkReplicateImage' -benchtime=10x -benchmem .
	$(GO) test -run XXX -bench='BenchmarkCapture|BenchmarkEncode|BenchmarkDecodeImage|BenchmarkManifestCodec|BenchmarkMerge|BenchmarkRestore|BenchmarkDecodeECSet|BenchmarkPlanECSave' -benchtime=50x -benchmem ./internal/ckpt/
	$(GO) test -run XXX -bench=BenchmarkControlCodec -benchtime=10000x -benchmem ./internal/core/
	$(GO) test -run XXX -bench='BenchmarkDirtyTracking|BenchmarkPageHashes' -benchtime=50x -benchmem ./internal/mem/
	$(GO) test -run XXX -bench=BenchmarkEngineSchedule -benchtime=100000x -benchmem ./internal/sim/
	$(GO) test -run XXX -bench=BenchmarkTCPBulkTransfer -benchtime=50x -benchmem ./internal/tcpip/
	$(GO) test -run XXX -bench=BenchmarkSwitchForward -benchtime=100000x -benchmem ./internal/ether/
	$(GO) test -run XXX -bench=BenchmarkStepCycle -benchtime=100000x -benchmem ./internal/kernel/
	$(GO) test -run XXX -bench=BenchmarkHaloStep -benchtime=1000x -benchmem ./internal/apps/slm/
	$(GO) test -run XXX -bench='BenchmarkMigrationStream|BenchmarkBulkFrame|BenchmarkChunkFrame' -benchtime=10x -benchmem ./internal/ctl/

# Fuzz smoke: every fuzz target for 10 s of generated inputs beyond its
# checked-in corpus, one `go test -fuzz` call each (the flag takes one
# target). Each decoder takes bytes off the wire, and reads gob's bytes
# without gob's decoder — a shard set by hand, every other value by
# gobmemo's walk over its type — so this runs on every push. A failing
# input is written under the package's testdata/fuzz.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeECSet$$' -fuzztime 10s ./internal/ckpt/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeManifest$$' -fuzztime 10s ./internal/ckpt/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeImage$$' -fuzztime 10s ./internal/ckpt/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeProgram$$' -fuzztime 10s ./internal/ckpt/
	$(GO) test -run '^$$' -fuzz '^FuzzBulkFrame$$' -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzControlHead$$' -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzFlushFrame$$' -fuzztime 10s ./internal/flush/

# The benchmark under bench/ is a module of its own, so tier-1 neither
# compiles nor tests it, yet its layer replay drives internals of this
# one (ckpt.Image.Encode/DecodeImage, ctl.NewConn/Send/Pool, the store's
# Plan* calls). Vet it and run its smoke test so a signature it depends
# on cannot drift unnoticed. Whether a change moved a modelled number is
# `make vsame` below (`make vdiff` on two `bench/run.sh -out` reports).
bench-smoke:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# The "moves no number" check: `make vdiff A=parent.json B=change.json`
# prints every virtual-clock metric (end to end and per layer, all
# workloads) whose value differs between two `bench/run.sh -out` reports
# of the same -passes and -seed, and fails if there is one. The virtual
# clock is exact per tree, so any line is an added, removed, resized or
# reordered message, cpu.Do charge or disk operation.
VDIFF_Q = .workloads | to_entries[] | .key as $$w | .value | (.end_to_end, .per_layer // {}) | to_entries[] \
	| select(.value.clock == "v") | "\($$w)/\(.key) \(.value.value)"
vdiff: SHELL = bash
vdiff:
	@diff <(jq -r '$(VDIFF_Q)' $(A)) <(jq -r '$(VDIFF_Q)' $(B))

# The whole recipe as one command: `make vsame PARENT=<rev> [SEEDS="1 7"]`
# clones this repository into a temporary directory once, checks PARENT
# out there and, per seed, runs `bench/run.sh -passes 2 -seed <seed>` on
# that tree and on the working tree (≈45 s each) and vdiffs the two
# reports: silence is the pass, the first seed with any virtual-clock
# difference a non-zero exit. The temporary directory (under $$TMPDIR) is
# removed either way.
vsame: SHELL = bash
vsame:
	@test -n "$(PARENT)" || { echo "usage: make vsame PARENT=<rev> [SEEDS=\"1 7\"]" >&2; exit 2; }
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	git clone -q . "$$tmp/parent" && git -C "$$tmp/parent" checkout -q $(PARENT) && \
	for seed in $(or $(SEEDS),1 7); do \
		bash "$$tmp/parent/bench/run.sh" -passes 2 -seed $$seed -out "$$tmp/parent.json" >/dev/null && \
		bash bench/run.sh -passes 2 -seed $$seed -out "$$tmp/change.json" >/dev/null && \
		$(MAKE) -s vdiff A="$$tmp/parent.json" B="$$tmp/change.json" || { echo "vsame: stopped at seed $$seed" >&2; exit 1; }; \
	done

# The benchmark's acceptance rule, run locally: `make vgate PARENT=<rev>
# [SEEDS="1 2"]` clones this repository once as vsame does and, per seed,
# runs `bench/run.sh -passes 2 -trace 0` on the parent and on the working
# tree. It prints every end-to-end metric that moved as `seed
# workload/metric parent → change (±x %, bound y %)`, marked WORSE where
# the move passes the metric's BENCHMARK.json bound in its worse
# direction (host_s_per_pass and setup_s are printed, never marked), and
# a `failed_ops` line per seed. It exits non-zero on any WORSE, including
# a rise in failed operations. One run per tree is one pair: a host
# metric near its bound wants alternating re-runs before it is believed.
VGATE_Q = def r: . * 1e4 | round / 1e4; \
	.workloads as $$pw | $$c[0].workloads as $$cw \
	| ([$$pw[].failed] | add) as $$pf | ([$$cw[].failed] | add) as $$cf \
	| "\($$seed) failed_ops \($$pf) → \($$cf)\(if $$cf > $$pf then "  WORSE" else "" end)", \
	($$pw | keys[] as $$w | $$bm[0].end_to_end[] as $$d \
	| $$pw[$$w].end_to_end[$$d.name].value as $$p | $$cw[$$w].end_to_end[$$d.name].value as $$v \
	| select($$p != null and $$v != null and $$p != $$v) \
	| (if $$p == 0 then null else ($$v - $$p) / $$p end) as $$x \
	| (if $$x == null then 1 elif $$d.better == "lower" then $$x else -$$x end) as $$worse \
	| (if $$x == null then "from 0" else "\(if $$x >= 0 then "+" else "-" end)\(100 * $$x | fabs | r) %" end) as $$pct \
	| (if ($$d.name | IN("host_s_per_pass", "setup_s")) or $$worse <= $$d.bound then "" else "  WORSE" end) as $$mark \
	| "\($$seed) \($$w)/\($$d.name) \($$p | r) → \($$v | r) (\($$pct), bound \(100 * $$d.bound | r) %)\($$mark)")
vgate: SHELL = bash
vgate:
	@test -n "$(PARENT)" || { echo "usage: make vgate PARENT=<rev> [SEEDS=\"1 2\"]" >&2; exit 2; }
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	git clone -q . "$$tmp/parent" && git -C "$$tmp/parent" checkout -q $(PARENT) && bad=0 && \
	for seed in $(or $(SEEDS),1 2); do \
		rm -f "$$tmp/parent.json" "$$tmp/change.json"; \
		bash "$$tmp/parent/bench/run.sh" -passes 2 -trace 0 -seed $$seed -out "$$tmp/parent.json" >/dev/null; \
		bash bench/run.sh -passes 2 -trace 0 -seed $$seed -out "$$tmp/change.json" >/dev/null; \
		test -s "$$tmp/parent.json" && test -s "$$tmp/change.json" || { echo "vgate: no report at seed $$seed" >&2; exit 1; }; \
		out=$$(jq -r --arg seed $$seed --slurpfile c "$$tmp/change.json" --slurpfile bm BENCHMARK.json '$(VGATE_Q)' "$$tmp/parent.json") || exit 1; \
		echo "$$out"; grep -q WORSE <<<"$$out" && bad=1; \
	done; \
	exit $$bad

# The scenario rows' "moves no number" check: `make tsame PARENT=<rev>`
# clones this repository into a temporary directory once, as vsame does,
# checks PARENT out there, builds cmd/cruzsim from that tree and from the
# working tree, runs every row `cruzsim -h` lists on both with -trace, each
# tree in a directory of its own under the same relative file names, and
# cmps the printed text and the trace file. Silence is the pass; the first
# row that differs or fails is a non-zero exit. The temporary directory
# (under $$TMPDIR) is removed either way. It needs a parent, so check does
# not include it.
tsame: SHELL = bash
tsame:
	@test -n "$(PARENT)" || { echo "usage: make tsame PARENT=<rev>" >&2; exit 2; }
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	git clone -q . "$$tmp/parent" && git -C "$$tmp/parent" checkout -q $(PARENT) && \
	mkdir "$$tmp/parent.out" "$$tmp/change.out" && \
	$(GO) -C "$$tmp/parent" build -o "$$tmp/parent.out/cruzsim" ./cmd/cruzsim && \
	$(GO) build -o "$$tmp/change.out/cruzsim" ./cmd/cruzsim && \
	rows=$$("$$tmp/change.out/cruzsim" -h 2>&1 | awk '$$1 == "-scenario" && NF > 2 { print $$2 }') && \
	for row in $$rows; do \
		for tree in parent change; do \
			(cd "$$tmp/$$tree.out" && ./cruzsim -scenario $$row -trace $$row.json >$$row.txt 2>&1) || \
				{ echo "tsame: row $$row failed on the $$tree tree" >&2; exit 1; }; \
		done; \
		cmp "$$tmp/parent.out/$$row.txt" "$$tmp/change.out/$$row.txt" && \
		cmp "$$tmp/parent.out/$$row.json" "$$tmp/change.out/$$row.json" || exit 1; \
	done

# Worked example from README: the quickstart row with a Chrome trace.
trace-demo:
	$(GO) run ./cmd/cruzsim -scenario quickstart -nodes 3 -trace cruz-trace.json
