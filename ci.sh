#!/bin/sh
# Tier-1 gate for this repository. The root workspace has zero external
# dependencies, so everything up to the bench step runs with no network
# access: format, lints, docs, every test, the chaos seed matrix, the
# seeded sharded-runtime scenario, the pbio and meta-data mutation loops,
# the dedup window's oracle test, the fragment reassembly model test and
# the journal fold's model test on fresh seeds,
# the smoke examples, the three bench examples (fanout_bench gated; monitor_bench
# and crash_recovery's overhead ratio reported, not gated) and the
# benchmark self-check. The bench harness is a separate workspace (crates/bench) whose
# `criterion` dev-dependency needs a reachable crates.io registry; its
# tests run only when resolution succeeds and are skipped gracefully
# offline — so nothing compiles it here, and a source check stands in for
# the compiler on the names this repository removed.
#
# Usage: ./ci.sh
set -eu
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> removed-engine names (the stack VM and its receiver switches are gone)"
# crates/bench is not compiled offline, so a stale call there would only
# surface on a machine with a registry. `.code()` was the stack stream's
# accessor on a compiled or fused program.
if grep -rnE 'set_register_vm|set_fusion|dump::stack|(^|[^R])Insn::|\.code\(\)' \
    crates examples tests src --include='*.rs'; then
    echo "    the names above belong to the deleted stack engine" >&2
    exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "==> cargo build --release (offline-capable)"
cargo build --release

echo "==> cargo test -q --workspace (every crate: units, integration, properties)"
cargo test -q --workspace

echo "==> chaos seed matrix (extra seeds; the test step above ran the baked-in trio)"
# Covers every scenario in tests/chaos.rs, including the fragmentation
# run (loss + duplication + reordering over multi-fragment events).
for s in ${CHAOS_SEEDS:-1 7 42}; do
    echo "    CHAOS_SEED=$s cargo test -q --test chaos"
    CHAOS_SEED="$s" cargo test -q --test chaos
done

echo "==> chaos fresh seed (one new draw per run, so the matrix is not a fixed point)"
# Invariants must hold under any seed; the scenarios' coverage assertions
# apply to the curated seeds only (tests/chaos.rs `curated`). A failure
# here reproduces with the printed command.
fresh=$(od -An -N4 -tu4 /dev/urandom 2>/dev/null | tr -d ' \n')
[ -n "$fresh" ] || fresh=$(date +%s)
echo "    CHAOS_SEED=$fresh cargo test -q --test chaos"
CHAOS_SEED="$fresh" cargo test -q --test chaos

echo "==> sharded runtime, fresh seed (the test step above ran seeds 1/7/42)"
# A scenario drawn from the seed — population, publishers, channels,
# fragmentation, run cadence, a pause — must deliver under the wall-clock
# driver what it delivers under the virtual-time driver: the sharded path
# is the one the chaos suite never takes. A failure here reproduces with
# the printed command.
shard=$(od -An -N4 -tu4 /dev/urandom 2>/dev/null | tr -d ' \n')
[ -n "$shard" ] || shard=$(date +%s)
echo "    SHARD_SEED=$shard cargo test -q --test shard seeded_scenario"
SHARD_SEED="$shard" cargo test -q --test shard seeded_scenario

echo "==> pbio decode mutation loop, fresh seed (the test step above ran the fixed one)"
# Truncations, byte flips, hostile counts and random damage to a v2.0
# response through the compiled decode kernels, checked against
# GenericDecoder. A failure here reproduces with the printed command.
fuzz=$(od -An -N4 -tu4 /dev/urandom 2>/dev/null | tr -d ' \n')
[ -n "$fuzz" ] || fuzz=$(date +%s)
echo "    PBIO_FUZZ_SEED=$fuzz cargo test -q -p pbio --test wire decode_mutations"
PBIO_FUZZ_SEED="$fuzz" cargo test -q -p pbio --test wire decode_mutations

echo "==> meta-data mutation loop, fresh seed (the test step above ran the fixed one)"
# Truncations, byte flips, hostile counts and lengths at every offset, tag
# and nesting floods against serialized format descriptions and
# transformations: every parse returns, what is accepted is canonical and
# its default record bounded. A failure here reproduces with the printed
# command.
meta=$(od -An -N4 -tu4 /dev/urandom 2>/dev/null | tr -d ' \n')
[ -n "$meta" ] || meta=$(date +%s)
echo "    META_FUZZ_SEED=$meta cargo test -q --test proptests metadata_mutations"
META_FUZZ_SEED="$meta" cargo test -q --test proptests metadata_mutations

echo "==> dedup window against its oracle, fresh seed (the test step above ran the fixed one)"
# Seeded streams — 1–4 senders, sparse seqs, seqs near u64::MAX, 2–70-part
# fragments, duplicates, reordering and replays past the horizon, journal
# round trips — decided by the per-sender window and by a brute-force set
# of every triple noted. A failure here reproduces with the printed command.
dedup=$(od -An -N4 -tu4 /dev/urandom 2>/dev/null | tr -d ' \n')
[ -n "$dedup" ] || dedup=$(date +%s)
echo "    DEDUP_SEED=$dedup cargo test -q -p echo --lib dedup::tests::window_matches"
DEDUP_SEED="$dedup" cargo test -q -p echo --lib dedup::tests::window_matches

echo "==> fragment reassembly against its model, fresh seed (the test step above ran the fixed one)"
# Seeded offers — duplicated and out-of-order parts, indices past the count,
# counts that change mid-set, sets that never complete — with sweeps,
# newest-wins purges and crash drains against a small capacity, decided by
# the buffer and by a brute-force model. A failure here reproduces with the
# printed command.
frag=$(od -An -N4 -tu4 /dev/urandom 2>/dev/null | tr -d ' \n')
[ -n "$frag" ] || frag=$(date +%s)
echo "    FRAG_SEED=$frag cargo test -q -p echo --lib frag::tests::buffer_matches"
FRAG_SEED="$frag" cargo test -q -p echo --lib frag::tests::buffer_matches

echo "==> journal fold against an unfolded log, fresh seed (the test step above ran the fixed one)"
# Seeded streams of sends, acks (of owed, unknown and acked keys),
# redeliveries, seen notes, watermarks, syncs and crashes: the folded
# journal replays to what the log that never folds replays to, after
# every step, and holds at most twice the slots replay needs. A failure
# here reproduces with the printed command.
journal=$(od -An -N4 -tu4 /dev/urandom 2>/dev/null | tr -d ' \n')
[ -n "$journal" ] || journal=$(date +%s)
echo "    JOURNAL_SEED=$journal cargo test -q -p echo --lib journal::tests::fold_matches"
JOURNAL_SEED="$journal" cargo test -q -p echo --lib journal::tests::fold_matches

echo "==> examples (offline smoke runs; each asserts its own output)"
for ex in quickstart stats_dump echo_evolution trace_dump failover qos_telemetry self_telemetry vm_dump \
    b2b_broker format_server load_monitor weighted_matching; do
    echo "    cargo run --release --example $ex"
    cargo run -q --release --example "$ex" >/dev/null
done

echo "==> fan-out scaling bench (writes BENCH_6.json)"
# The example measures 1/2/4/8-shard throughput under the wall-clock
# driver and exits non-zero if 4 shards regress below the single-shard
# baseline (and, on >=4-core machines, if they fail to scale >=1.7x).
cargo run -q --release --example fanout_bench >/dev/null
cat BENCH_6.json

echo "==> monitoring overhead bench (writes BENCH_7.json)"
# The same warm workload with the full opt-in monitoring surface (link
# monitors, adaptive watermarks, self-telemetry) on vs off. The ratio is
# reported, not gated: below 0.95x bare it prints a WARN line (stderr)
# and still exits 0.
cargo run -q --release --example monitor_bench >/dev/null
cat BENCH_7.json

echo "==> crash-recovery smoke + journaling overhead bench (writes BENCH_8.json)"
# Part 1 replays a deterministic crash-restart conversation (both roles
# die and come back; exactly-once must hold — a hard failure). Part 2
# runs the Reliable fan-out workload journaled vs bare; its ratio is
# reported, not gated (WARN on stderr below 0.85x, exit 0).
cargo run -q --release --example crash_recovery >/dev/null
cat BENCH_8.json

echo "==> benchmark self-check (benchmark/ is its own offline workspace)"
# Harness unit tests, then every BENCHMARK.json workload at 1/20 size:
# deliveries verified, zero failed operations, exact metrics repeat per
# seed. About 2 s once built; the timed runs themselves are not part of CI.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- verify

echo "==> bench workspace (needs registry access for criterion)"
if (cd crates/bench && cargo metadata --format-version 1 >/dev/null 2>&1); then
    (cd crates/bench && cargo test -q)
else
    echo "    registry unreachable — skipping bench workspace tests"
fi

echo "==> OK"
