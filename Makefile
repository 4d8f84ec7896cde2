# Build/verification entry points. `make check` is the full gate used
# before merging: vet (of the repository and of the perfbench module),
# the nocpu-lint analyzer suite, build, race-enabled tests, a short
# fuzz run of the wire-format decoder, the E15 chaos tier
# (seeded crash schedules under race), the E16 overload tier (seeded
# open-loop load ramps under race), the E17 fabric tier (rack-scale
# determinism, ring properties and machine-kill chaos under race),
# the E19 reconcile tier (self-healing fleet campaigns: membership
# repair, rolling upgrades and same-frame double failures under race),
# the E20 tenancy tier (seeded adversary attack matrix and the
# tenant-ledger S1/S2/S3 audits under race), and the E21 partition tier
# (asymmetric partitions, gray failures, epoch-lease fencing and the
# client-history linearizability audit under race).

GO ?= go

.PHONY: build test vet benchvet benchtest lint allows race fuzz chaos overload fabric reconcile tenancy partition benchguard check bench tables

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The benchmark (perfbench/) is its own module, so the root ./... never
# compiles it; vetting it here catches an internal API change that
# would break the benchmark build.
benchvet:
	cd perfbench && $(GO) vet ./...

# The benchmark's own tests: each workload's behaviour digest repeats
# for a seed, and the metric schema is right. About 40s, so it is not
# part of `check`; CI runs it as its own step.
benchtest:
	cd perfbench && $(GO) test .

# Custom determinism/decentralization/wire-compat analyzers
# (internal/lint), run via the go vet -vettool protocol. See
# internal/lint/lint.go for the rules and the //lint:allow escape
# hatch. After an intentional append-only wire change, regenerate the
# schema baseline with NOCPU_REGEN_WIRELOCK=1 make lint and commit
# internal/msg/wire.lock.
lint:
	$(GO) build -o bin/nocpu-lint ./cmd/nocpu-lint
	$(GO) vet -vettool=bin/nocpu-lint ./...

# Inventory of every //lint:allow suppression in the tree (file:line,
# rule, mandatory reason) — the whole exception surface in one listing.
allows:
	$(GO) build -o bin/nocpu-lint ./cmd/nocpu-lint
	./bin/nocpu-lint -allows .

race:
	$(GO) test -race ./...

# Fuzz the bus wire-format decoder for 10s (regression corpus under
# internal/msg/testdata/fuzz is always replayed by plain `go test`).
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzDecode -fuzztime=10s ./internal/msg

# Chaos tier (E15): seeded crash schedules over every machine flavor
# under the race detector, plus the chaos-harness unit tests. Seeds are
# fixed in the tests, so failures reproduce bit-for-bit.
chaos:
	$(GO) test -race -run 'TestE15' ./internal/exp
	$(GO) test -race ./internal/chaos

# Overload tier (E16): seeded open-loop load ramps over every machine
# flavor under the race detector, plus the overload-harness unit tests.
# Seeds are fixed, so failures reproduce bit-for-bit.
overload:
	$(GO) test -race -run 'TestE16' ./internal/exp
	$(GO) test -race ./internal/overload

# Fabric tier (E17): the rack-scale package's full suite (golden-trace
# determinism, consistent-hash ring properties, whole-machine-kill
# chaos) plus the E17 chaos campaigns, all under the race detector.
# Seeds are fixed, so failures reproduce bit-for-bit. The E15/E16
# golden tables pinned by TestTablesGolden (race tier) double as the
# fabric-off regression diff: gating the fabric off must leave every
# earlier experiment byte-identical.
fabric:
	$(GO) test -race ./internal/fabric
	$(GO) test -race -run 'TestE17' ./internal/exp

# Reconcile tier (E19): the fleet reconciler's unit suite (membership
# repair, rolling upgrades, budget enforcement, actor failover) plus the
# E19 self-healing campaigns — kill, rolling upgrade, same-frame double
# kill — under the race detector. Seeds are fixed, so failures
# reproduce bit-for-bit.
reconcile:
	$(GO) test -race ./internal/reconcile
	$(GO) test -race -run 'TestE19' ./internal/exp

# Tenancy tier (E20): the tenant registry/ledger and seeded-adversary
# unit suites plus the E20 attack-matrix gate — every cell of the
# matrix (both machine flavors, both fabric control architectures)
# must audit 0 S1 / 0 S2 / 0 S3 — under the race detector. Seeds are
# fixed, so failures reproduce bit-for-bit.
tenancy:
	$(GO) test -race ./internal/tenant ./internal/adversary
	$(GO) test -race -run 'TestE20' ./internal/exp

# Partition tier (E21): the linearizability checker's unit suite, the
# fabric lease/partition/fencing tests, the reconciler's gray-failure
# regressions, and the E21 split-brain matrix — every schedule × flavor
# cell must be L1-clean with zero split samples — under the race
# detector. Seeds are fixed, so failures reproduce bit-for-bit.
partition:
	$(GO) test -race ./internal/linearize
	$(GO) test -race -run 'TestTransportFailure|TestOneWayCut|TestMinorityPartition|TestFailSlow|TestTakeoverFence|TestFlappingLink|TestPartitionedActor' ./internal/fabric ./internal/reconcile
	$(GO) test -race -run 'TestE21' ./internal/exp

# Simulator-speed guard: re-runs the BENCH_e17.json cell and fails on a
# >30% wall-clock regression. Machine-dependent by nature, so it is not
# part of `check`; CI runs it on its pinned runner class.
benchguard:
	NOCPU_BENCH_GUARD=1 $(GO) test -run 'TestE17BenchGuard' -count=1 ./internal/exp -v

check: vet benchvet lint build race fuzz chaos overload fabric reconcile tenancy partition

bench:
	$(GO) test -run=^$$ -bench . -benchtime=100x .

# Regenerate all experiment tables (E1-E21).
tables:
	$(GO) run ./cmd/nocpu-bench
