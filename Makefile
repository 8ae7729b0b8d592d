# Build/test/bench harness. `make bench` is the bench-regression
# harness: it runs every benchmark with -benchmem and records a
# machine-readable BENCH_<date>.json (ns/op, B/op, allocs/op, headline
# domain metrics, and the sweep worker-scaling speedup) via
# cmd/benchjson.

GO        ?= go
DATE      := $(shell date -u +%Y-%m-%d)
BENCHRE   ?= .
COUNT     ?= 1
BENCHTIME ?= 1s
# Benchmarks inherit the invoking shell's GOMAXPROCS unless pinned;
# without this the worker-scaling pair (SweepWorkers1 vs Max) measures
# nothing on a constrained runner. NPROC=4 overrides the probe width.
NPROC     ?= $(shell nproc)

.PHONY: all build test race vet bench profile lns-smoke clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Benchmarks run serially (-run '^$' skips tests); BENCHRE narrows the
# set (`make bench BENCHRE=Sweep`), BENCHTIME=1x gives a fast smoke
# record. GOMAXPROCS is pinned to NPROC so the sweep worker-scaling
# pair sees every core; cmd/benchjson records each benchmark's CPU
# count and diffs allocs/op and B/op against the newest prior
# BENCH_*.json (BENCHJSONFLAGS="-failregress" gates CI on it;
# BENCHJSONFLAGS="-nsregress 0.25" also gates ns/op on same-machine
# comparisons, where timing noise is bounded).
bench: build
	GOMAXPROCS=$(NPROC) $(GO) test -run '^$$' -bench '$(BENCHRE)' -benchmem -count $(COUNT) -benchtime $(BENCHTIME) . \
		| $(GO) run ./cmd/benchjson -out BENCH_$(DATE).json $(BENCHJSONFLAGS)

# Single-run hot-path profiling: BenchmarkSweep1000Nodes under the CPU
# and heap profilers, followed by the top-10 flat entries of each — the
# quickest read on where the next single-core sim-days/s win lives.
# PROFRE narrows differently (`make profile PROFRE=SimulatorYear`);
# profiles land in ./prof/ for interactive follow-up
# (`go tool pprof prof/cpu.out`).
PROFRE ?= Sweep1000Nodes

profile: build
	mkdir -p prof
	GOMAXPROCS=$(NPROC) $(GO) test -run '^$$' -bench '$(PROFRE)' -benchmem -count 1 -benchtime $(BENCHTIME) \
		-cpuprofile prof/cpu.out -memprofile prof/mem.out .
	@echo '--- cpu top 10 (flat) ---'
	$(GO) tool pprof -top -nodecount=10 prof/cpu.out
	@echo '--- heap top 10 (alloc_space, flat) ---'
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space prof/mem.out

# Daemon end-to-end smoke: generate a golden obs export with the
# simulator, replay it through the in-process library path, then through
# a live lnsd over HTTP — once single-lane and once with 4 shards fed by
# 4 concurrent loadgen connections — and diff the disseminated w_u
# tables AND the snapshots: all must be byte-identical. A further pass
# replays half the stream, snapshots, restarts lnsd from the snapshot,
# resumes, and diffs the wu table and the snapshot again:
# snapshot/restore must be invisible in the output.
LNSTMP := $(shell mktemp -d /tmp/lns-smoke.XXXXXX)
LNSADDR ?= 127.0.0.1:18080

lns-smoke: build
	$(GO) run ./cmd/experiments -run faults -scale quick -nodes 10 -duration 48h \
		-obs -obs-dir $(LNSTMP)/obs > /dev/null
	$(GO) build -o $(LNSTMP)/lnsd ./cmd/lnsd
	$(GO) build -o $(LNSTMP)/loadgen ./cmd/loadgen
	$(LNSTMP)/loadgen -in $(LNSTMP)/obs/faults_s00_r00.jsonl -local \
		-wu-out $(LNSTMP)/wu-lib.json -snapshot-out $(LNSTMP)/snap-lib.json
	$(LNSTMP)/lnsd -addr $(LNSADDR) & echo $$! > $(LNSTMP)/pid; \
		$(LNSTMP)/loadgen -in $(LNSTMP)/obs/faults_s00_r00.jsonl -addr http://$(LNSADDR) \
			-wu-out $(LNSTMP)/wu-http.json -snapshot-out $(LNSTMP)/snap-http.json -v; \
		kill `cat $(LNSTMP)/pid`
	diff $(LNSTMP)/wu-lib.json $(LNSTMP)/wu-http.json
	diff $(LNSTMP)/snap-lib.json $(LNSTMP)/snap-http.json
	$(LNSTMP)/lnsd -addr $(LNSADDR) -lns-shards 4 & echo $$! > $(LNSTMP)/pid; \
		$(LNSTMP)/loadgen -in $(LNSTMP)/obs/faults_s00_r00.jsonl -addr http://$(LNSADDR) \
			-conns 4 -wu-out $(LNSTMP)/wu-s4.json -snapshot-out $(LNSTMP)/snap-s4.json; \
		kill `cat $(LNSTMP)/pid`
	diff $(LNSTMP)/wu-lib.json $(LNSTMP)/wu-s4.json
	diff $(LNSTMP)/snap-lib.json $(LNSTMP)/snap-s4.json
	$(LNSTMP)/lnsd -addr $(LNSADDR) & echo $$! > $(LNSTMP)/pid; \
		$(LNSTMP)/loadgen -in $(LNSTMP)/obs/faults_s00_r00.jsonl -addr http://$(LNSADDR) \
			-stop-frac 0.5 -snapshot-out $(LNSTMP)/snap.json; \
		kill `cat $(LNSTMP)/pid`
	$(LNSTMP)/lnsd -addr $(LNSADDR) -restore $(LNSTMP)/snap.json & echo $$! > $(LNSTMP)/pid; \
		$(LNSTMP)/loadgen -in $(LNSTMP)/obs/faults_s00_r00.jsonl -addr http://$(LNSADDR) \
			-start-frac 0.5 -wu-out $(LNSTMP)/wu-resume.json -snapshot-out $(LNSTMP)/snap-resume.json; \
		kill `cat $(LNSTMP)/pid`
	diff $(LNSTMP)/wu-lib.json $(LNSTMP)/wu-resume.json
	diff $(LNSTMP)/snap-lib.json $(LNSTMP)/snap-resume.json
	rm -rf $(LNSTMP)
	@echo "lns-smoke: sharded and single-lane daemon replay byte-identical to library path (wu + snapshot); snapshot/restore resume byte-identical (wu + snapshot)"

clean:
	rm -f BENCH_*.json
	rm -rf prof
