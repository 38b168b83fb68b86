#!/usr/bin/env sh
# Tier-1 CI gate. Mirrors what the driver runs, plus a warnings-as-errors
# pass over the paper-contribution crate and the fault-injection suite.
#
#   1. release build of the whole workspace
#   2. full test suite (quiet)
#   3. crates/core must compile warning-free (tests included)
#   4. deterministic fault-injection suite, run explicitly so a partial
#      test filter in step 2 can never silently skip it
#   5. parallel-executor equivalence + plan-cache suite, same reasoning
#   6. observability suite: golden EXPLAIN/trace snapshots (including the
#      executor_threads=1 vs =8 trace-fingerprint diff) + the differential
#      oracle against single-node pgmini under an active fault plan, and the
#      transaction wall: BEGIN/COMMIT-grouped streams through the executor
#      fast paths (exchange riding, local execution) checked against the
#      oracle with identical cost and trace at 1 and 8 threads
#   7. operator differential wall: batched columnar kernels vs the volcano
#      path on identical clusters (results, error codes, fault fingerprints,
#      and 1-vs-8-thread cost/trace invariance per mode); hash joins of every
#      kind vs a nested-loop reference, column-pruned heap scans, IN-sets and
#      per-statement simulated cost (pgmini operator_differential.rs); and
#      IN / NOT IN subplan lists through the cluster (subplan_in_lists.rs)
#   8. rebalancer crash-safety drills: a move killed at every phase boundary
#      (error and crash+promote), move-journal recovery, and the
#      concurrent-writes-during-faulted-move oracle proptest
#   9. snapshot-isolation anomaly wall: the interleaver-driven read-skew
#      demonstrator/mirror pair (tests/semantics.rs) and the mode x thread
#      differential + MX frozen-window suite (mx_snapshot.rs), run
#      explicitly so a partial filter can never skip the anomaly tests
#  10. MX generation-fence escalation drills: concurrent DDL / frozen DDL /
#      shard moves / failover / a TRUNCATE behind an idle holder interleaved
#      into open MX transactions (mx_ddl_escalation.rs), plus the sim's
#      mx_ddl_interleave drill mode under the full chaos plan — run
#      explicitly so a partial filter can never skip the fence wall
#  11. workloads suite, run explicitly: seeded-chaos sim corpus (every seed
#      oracle-checked with >= 1 move, failover, and faulted statement;
#      even seeds run with snapshot isolation on and the read-skew
#      invariant active), seed-determinism of the workload drivers, and the
#      INSERT..SELECT / stored-procedure differential tests
#  12. rollup/changefeed recompute-differential wall + chaos drills
#      (rollup_differential.rs, rollup_drills.rs): incremental maintenance
#      vs full recompute under proptest op streams at 1 and 8 threads with
#      and without a fault plan, plus crash+promote, per-phase faulted
#      moves with cursor handoff, and the frozen-2PC window — run
#      explicitly so a partial filter can never skip the differential wall
#  13. one-iteration smoke of the executor bench (exercises the wall-clock
#      fan-out and plan-cache paths end to end; no thresholds)
#  14. one-iteration smoke of the §4 workloads evaluation (also writes the
#      snapshot-isolation mode-off vs mode-on overhead artifact; the
#      distributed real-time-analytics arm serves its dashboard from the
#      incrementally maintained commit rollup)
#  15. smoke of the columnar vectorized-vs-volcano bench
#  16. smoke of the incremental-rollup-vs-recompute bench
#  17. bench regression gate: the smoke artifacts' virtual-time numbers are
#      deterministic, so they are compared against the committed
#      BENCH_*_smoke.json baselines — TPC-C / YCSB / columnar-vectorized
#      units_per_vsec must not regress more than 10%, the warm plan-cache arm
#      must stay cheaper than cold, the vectorized columnar arm must beat
#      volcano on the virtual clock, and snapshot isolation must cost
#      nothing when off (mode-off vs committed baseline) and <=10% when on
#      (mode-on vs fresh mode-off); the incremental rollup arm must beat
#      recompute and not regress more than 10% against its baseline
#
# Usage: scripts/ci.sh [--long]
#   --long   widen the sim chaos corpus (CITRUS_SIM_SEEDS=60; default 25)
set -eu

cd "$(dirname "$0")/.."

SIM_SEEDS=25
for arg in "$@"; do
    case "$arg" in
        --long) SIM_SEEDS=60 ;;
        *) echo "unknown flag: $arg" >&2; exit 2 ;;
    esac
done

echo "==> [1/17] cargo build --release"
cargo build --release

echo "==> [2/17] cargo test -q"
cargo test -q

echo "==> [3/17] warnings-as-errors check of crates/core"
RUSTFLAGS="-Dwarnings" cargo check -p citrus --all-targets

echo "==> [4/17] fault-injection suite"
cargo test -q -p citrus --test faults

echo "==> [5/17] parallel-executor equivalence suite"
cargo test -q -p citrus --test executor_parallel

echo "==> [6/17] trace-golden + differential-oracle + transaction wall (1 vs 8 threads)"
cargo test -q -p citrus --test trace_golden --test oracle_differential

echo "==> [7/17] operator differential wall (vectorized-vs-volcano, joins/scans/IN-lists vs references)"
cargo test -q -p citrus --test executor_vectorized --test subplan_in_lists
cargo test -q -p pgmini --test operator_differential

echo "==> [8/17] rebalancer crash-safety drill suite"
cargo test -q -p citrus --test rebalance_faults

echo "==> [9/17] snapshot-isolation anomaly wall (demonstrator/mirror + MX differential)"
cargo test -q --test semantics
cargo test -q -p citrus --test mx_snapshot

echo "==> [10/17] MX generation-fence escalation drills"
cargo test -q -p citrus --test mx_ddl_escalation
cargo test -q -p workloads --test sim_chaos mx_ddl_interleave_drill_corpus
cargo test -q -p workloads --test sim_chaos drill_

echo "==> [11/17] workloads suite: sim chaos corpus (${SIM_SEEDS} seeds) + oracle tests"
CITRUS_SIM_SEEDS="$SIM_SEEDS" cargo test -q -p workloads

echo "==> [12/17] rollup recompute-differential wall + chaos drills"
cargo test -q -p citrus --test rollup_differential --test rollup_drills

echo "==> [13/17] executor bench smoke"
sh scripts/bench.sh --smoke

echo "==> [14/17] workloads bench smoke"
sh scripts/bench_workloads.sh --smoke

echo "==> [15/17] columnar vectorized bench smoke"
sh scripts/bench_columnar.sh --smoke

echo "==> [16/17] rollup incremental-vs-recompute bench smoke"
sh scripts/bench_rollup.sh --smoke

echo "==> [17/17] bench regression gate (vs committed smoke baselines)"
python3 scripts/check_bench_regression.py

echo "==> CI green"
