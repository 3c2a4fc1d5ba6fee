GO ?= go

.PHONY: build test vet staticcheck race bench bench-json chaos fuzz proc-smoke budget counts replay verify

build:
	$(GO) build ./...

# -shuffle=on randomizes test order within each package, surfacing
# inter-test state leaks a fixed order would mask.
test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem .

# Machine-readable benchmark snapshot: runs the full suite and writes the
# first unused BENCH_<n>.json (name, ns/op, allocs/op, custom metrics).
bench-json:
	$(GO) test -bench=. -benchmem . | $(GO) run ./cmd/benchjson

# Seeded chaos campaigns with full-history serializability checking. A
# failing campaign prints its seed and the exact replay command.
chaos:
	$(GO) run ./cmd/qchaos -seed 1 -campaigns 10

# Coverage-guided fuzz passes: quorum construction invariants, WAL record
# framing, multi-record WAL segments recovered through the fault-injecting
# filesystem (recovery must replay, truncate a torn tail, or fail with a
# typed corruption error — never panic, never serve damage), the TCP
# transport's wire envelope (malformed frames must fail with a typed decode
# error, never a panic), and the payload codec under it (decode or a typed
# error; a decoded message re-encodes to a fixed point).
fuzz:
	$(GO) test ./internal/quorum/ -fuzz FuzzConfig -fuzztime 30s
	$(GO) test ./internal/wal/ -fuzz FuzzRecord -fuzztime 30s
	$(GO) test ./internal/wal/ -fuzz FuzzSegment -fuzztime 30s
	$(GO) test ./internal/transport/tcp/ -fuzz FuzzEnvelope -fuzztime 30s
	$(GO) test ./internal/transport/wire/ -fuzz FuzzWireDecode -fuzztime 30s

# Multi-process smoke: a real 3-replica qcstore cluster as separate OS
# processes over TCP — nested transaction committed through quorums, one
# replica SIGKILLed and restarted, recovery verified from its write-ahead
# log alone, every process exiting 0 on SIGINT.
proc-smoke:
	$(GO) build -o bin/qcstore ./cmd/qcstore
	$(GO) run ./cmd/qchaos -proc -bin bin/qcstore

# The ROADMAP aim-2 ratchet: internal/cluster may not grow back. Fails when
# the package exports more With* options, holds more non-test code lines
# (blank and comment-only lines not counted), or has more .Serve( or
# .canLock( call sites in non-test code — one each: DMHost.serve, the only
# way a replica gets on a transport, so a second start path cannot grow back
# unnoticed, and dmServer.acquire, the only place a lock is granted, so a
# second access arm cannot either — than the last PR that shrank it landed
# at. A PR that shrinks any lowers the ceiling with it; one that must grow it
# raises it to what it landed at and says why (the lockless first read: 4708
# → 4776 lines, EXPERIMENTS.md E25; a first quorum priced by the replicas
# the transaction already holds, and each configuration's target lists
# computed once when the client adopts it instead of per phase: 4745 → 4783,
# E28). Read repair and the anti-entropy sweeper went in one step: 23 → 21
# options, 4330 → 4205 lines (E32). And a replica only
# answers: no line of the package may hand the state machine a sender or
# send from a served endpoint (notifyPeer(, setSender(, server.Notify), so a
# replica that originates traffic cannot grow back unnoticed either.
CLUSTER_MAX_OPTIONS = 21
CLUSTER_MAX_LINES = 4205
CLUSTER_MAX_SERVE_SITES = 1
CLUSTER_MAX_CANLOCK_SITES = 1
CLUSTER_MAX_REPLICA_SENDS = 0
budget:
	@opts=$$(grep -c '^func With' internal/cluster/options.go); \
	src=$$(ls internal/cluster/*.go | grep -v '_test\.go$$'); \
	lines=$$(cat $$src | grep -v '^[[:space:]]*$$' | grep -v '^[[:space:]]*//' | wc -l); \
	serves=$$(cat $$src | grep -v '^[[:space:]]*//' | grep -c '\.Serve('); \
	canlocks=$$(cat $$src | grep -v '^[[:space:]]*//' | grep -c '\.canLock('); \
	sends=$$(cat $$src | grep -v '^[[:space:]]*//' | grep -c -e 'notifyPeer(' -e 'setSender(' -e 'server\.Notify'); \
	echo "budget: internal/cluster has $$opts options (ceiling $(CLUSTER_MAX_OPTIONS)), $$lines code lines (ceiling $(CLUSTER_MAX_LINES)), $$serves .Serve( call sites (ceiling $(CLUSTER_MAX_SERVE_SITES)), $$canlocks .canLock( call sites (ceiling $(CLUSTER_MAX_CANLOCK_SITES)) and $$sends replica-originated sends (ceiling $(CLUSTER_MAX_REPLICA_SENDS))"; \
	[ $$opts -le $(CLUSTER_MAX_OPTIONS) ] && [ $$lines -le $(CLUSTER_MAX_LINES) ] && [ $$serves -le $(CLUSTER_MAX_SERVE_SITES) ] && [ $$canlocks -le $(CLUSTER_MAX_CANLOCK_SITES) ] && [ $$sends -le $(CLUSTER_MAX_REPLICA_SENDS) ]

# Exact seeded replay: each deterministic chaos campaign runs its seed twice
# and requires identical results, network counters by message kind included;
# ten rounds of all seven.
replay:
	$(GO) test -count=10 -run Deterministic ./internal/chaos/

# The ROADMAP aim-1 ratchet: the counts of the benchmark's traced run may not
# drift up. One short seeded run of the socket-and-codec workload, of the
# no-socket nested one, of the logged nested one and of the one with a
# replica stopped (the benchmark itself is only read), and every count named
# below must stay at or under its ceiling:
# the highest of at least three traced runs of the last PR that moved it (seed 7, 5 s,
# this harness) + 10 % for process.allocs_per_txn, which breathes with the
# garbage collector, and for everything on tcp_durable_write, whose traced
# pass is some 800 transactions and repeats to ±2.5 %, + 5 % for the rest,
# which repeat to the third digit. tcp_durable_write's and tcp_read95's
# notifies are the exception: a handful of tombstones per traced pass (0 to
# 0.03 a transaction on the durable run; none on the read run since a
# write's phases stay on the replicas its read locked, E28), so a relative
# margin is noise and the ceilings are 0.05 and 0.01.
# cluster.messages_per_txn is derived here, rpcs +
# notifies, and has a ceiling of its own: a call turned into a notify lowers
# the one and raises the other, so only the sum shows traffic added under
# another label. A PR that lowers a count lowers its ceiling.
# tcp_durable_write's allocations and WAL bytes (ten runs: 421-511
# allocations, 3 649-11 337 bytes) swing with the snapshots that land in a
# pass — each is ~36 000 allocations and ~1.2 MB — so their + 10 % is wide:
# the allocation ceiling fails a revert to the gob codec (670-700) every
# time and a revert to a snapshot every 1 024 records (549-587) in most
# runs; the byte ceiling only catches gross growth (EXPERIMENTS.md E30).
# Timings are not held here; they go through the ten-pair protocol.
COUNTS_frames = tcp.frame_allocs.readreq=6.4 tcp.frame_allocs.readresp=5.3 \
	tcp.frame_allocs.writereq1k=8.5 tcp.frame_allocs.committop=12.7
COUNTS_tcp_read95 = process.allocs_per_txn=82 cluster.rpcs_per_txn=2.32 \
	cluster.notifies_per_txn=0.01 cluster.messages_per_txn=2.32 \
	tcp.wire_bytes_per_txn=192 $(COUNTS_frames)
COUNTS_sim_nested_n5 = process.allocs_per_txn=314 cluster.rpcs_per_txn=13.1 \
	cluster.notifies_per_txn=0.83 cluster.messages_per_txn=13.9 \
	tcp.wire_bytes_per_txn=0 $(COUNTS_frames)
COUNTS_tcp_durable_write = cluster.rpcs_per_txn=9.4 cluster.notifies_per_txn=0.05 \
	cluster.messages_per_txn=9.4 wal.appends_per_txn=9.1 wal.fsyncs_per_txn=7.9 \
	process.allocs_per_txn=563 wal.write_bytes_per_txn=12471
COUNTS_tcp_degraded = cluster.rpcs_per_txn=4.64 cluster.notifies_per_txn=0.54 \
	cluster.messages_per_txn=5.18
counts:
	@for w in tcp_read95 sim_nested_n5 tcp_durable_write tcp_degraded; do \
		case $$w in tcp_read95) ceilings="$(COUNTS_tcp_read95)";; sim_nested_n5) ceilings="$(COUNTS_sim_nested_n5)";; \
			tcp_durable_write) ceilings="$(COUNTS_tcp_durable_write)";; *) ceilings="$(COUNTS_tcp_degraded)";; esac; \
		bash bench/run.sh --workload $$w --seed 7 --seconds 5 --trace 1 | awk -v w=$$w -v ceilings="$$ceilings" ' \
			function check(k, v) { seen[k] = 1; over = (v + 0 > max[k] + 0); bad += over; \
				printf "counts: %-17s %-30s %10.4f (ceiling %s)%s\n", w, k, v, max[k], over ? " OVER" : "" } \
			BEGIN { n = split(ceilings, kv, " "); for (i = 1; i <= n; i++) { split(kv[i], p, "="); max[p[1]] = p[2] } } \
			$$1 == "cluster.rpcs_per_txn" || $$1 == "cluster.notifies_per_txn" { msgs += $$2; parts++ } \
			$$1 in max { check($$1, $$2) } \
			END { if (parts == 2) check("cluster.messages_per_txn", msgs); \
				for (k in max) if (!(k in seen)) { print "counts: " w " did not report " k; bad++ } exit bad != 0 }' || exit 1; \
		done

# CI entry point: everything tier-1 checks plus vet, staticcheck (when
# installed — the toolchain image may not carry it), the internal/cluster
# size budget, the benchmark's count ceilings, the exact-replay rounds of the
# seeded chaos campaigns (180 of 180 when they joined, E23), an explicit race pass
# over the chaos campaigns (they stress every cross-goroutine path the
# self-healing machinery added), the race pass, twenty race passes of the
# asynchronous-call contract both backends are held to (every Go delivers
# exactly one reply and leaves no pending entry behind), short fuzz smokes (quorum
# invariants, WAL records, TCP wire envelope and payload codec), the qcstore durable-mode
# end-to-end demo (open, write, close, reopen from the WALs, read back),
# the multi-process kill -9 recovery smoke (real qcstore server processes
# over TCP), the overload smoke (the three-arm goodput gate — protections
# under 2x load must stay within 20% of capacity while the ablated
# cluster collapses), the stalecopy gate: seeded campaigns that
# partition one replica while newer versions commit through the
# survivors and then heal it, so later read quorums meet a superseded
# copy, every history checked serializable, the migrate gate: campaigns that kill the migration
# coordinator mid-cutover (abandoned migrations must resolve with zero
# wedged items, zero violations), the shard scale-out gate (E16
# smoke — 4 shards must deliver >= 2.5x 1-shard throughput under the
# same zipfian load without regressing read p99), and the coordcrash gate
# under both commit protocols: coordinators killed at every seeded instant
# around the commit point — the 2PC arm must converge within the
# lease-TTL window, the Paxos arm must resolve every acceptor-held
# outcome through acceptor recovery (not presumption), both with exactly
# one outcome per crash and zero violations, and
# the diskfault gate under both protocols plus the amnesia and coordcrash
# mixes: replicas' logs scrambled at rest, disks filled mid-round, and
# coordinators killed with a cohort disk scrambled — every quarantine must
# end in a peer rebuild, zero violations, zero permanently quarantined
# replicas, zero wedged items (the proc smoke covers the same path against
# real processes: a bit flipped on a real disk, the restarted process
# rebuilding from its peers over TCP).
verify: build vet staticcheck budget counts test replay race
	$(GO) test -race ./internal/chaos/...
	$(GO) test -race -count=20 -run TestAsyncContract ./internal/transport/
	$(GO) test ./internal/quorum/ -fuzz FuzzConfig -fuzztime 5s
	$(GO) test ./internal/wal/ -fuzz FuzzRecord -fuzztime 5s
	$(GO) test ./internal/wal/ -fuzz FuzzSegment -fuzztime 5s
	$(GO) test ./internal/transport/tcp/ -fuzz FuzzEnvelope -fuzztime 5s
	$(GO) test ./internal/transport/wire/ -fuzz FuzzWireDecode -fuzztime 5s
	d=$$(mktemp -d) && $(GO) run ./cmd/qcstore -dir $$d >/dev/null && rm -rf $$d
	$(GO) build -o bin/qcstore ./cmd/qcstore
	$(GO) run ./cmd/qchaos -proc -bin bin/qcstore
	$(GO) run ./cmd/qchaos -overload
	$(GO) run ./cmd/qchaos -seed 1 -campaigns 5 -faults stalecopy
	$(GO) run ./cmd/qchaos -seed 1 -campaigns 5 -faults migrate
	$(GO) run ./cmd/qchaos -seed 1 -campaigns 3 -faults stalecopy,migrate
	$(GO) run ./cmd/qchaos -seed 1 -campaigns 5 -faults coordcrash -protocol 2pc
	$(GO) run ./cmd/qchaos -seed 1 -campaigns 5 -faults coordcrash -protocol paxos
	$(GO) run ./cmd/qchaos -seed 1 -campaigns 5 -faults diskfault -protocol 2pc
	$(GO) run ./cmd/qchaos -seed 1 -campaigns 5 -faults diskfault -protocol paxos
	$(GO) run ./cmd/qchaos -seed 1 -campaigns 3 -faults diskfault,amnesia
	$(GO) run ./cmd/qchaos -seed 1 -campaigns 3 -faults diskfault,coordcrash -protocol paxos
	$(GO) run ./cmd/qchaos -seed 2 -campaigns 3 -protocol paxos
	$(GO) run ./cmd/qchaos -shardscale
	@echo verify: OK

# Static analysis beyond vet; skipped with a notice when the binary is not
# on PATH, so verify works on minimal toolchain images.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping"; \
	fi
