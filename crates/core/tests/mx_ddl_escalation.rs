//! Generation-fence drill suite for MX sessions under concurrent DDL and
//! shard moves (the §5 escalation contract).
//!
//! Every MX transaction stamps the metadata generation it planned against;
//! a bump that lands mid-transaction is detected at the next statement or
//! at commit. The contract under drill here:
//!
//! * a bump that touched one of the transaction's tables **aborts** it with
//!   a retryable 40001 — remote locks released cleanly, the retry
//!   re-resolves its route against fresh metadata;
//! * a bump elsewhere **escalates** the session to the coordinator path
//!   mid-flight and the transaction commits;
//! * propagated TRUNCATE/DROP and shard moves never **wait** forever behind
//!   an idle-in-transaction holder — no wait-for cycle ever forms there, so
//!   the bounded-wait fence tier aborts the holder instead;
//! * the fence is free in steady state: zero counter movement when no
//!   metadata change lands inside an open transaction.
//!
//! The drills interleave DDL, frozen-mid-fan-out DDL
//! ([`citrus::interleave::freeze_ddl`]), shard moves, and failovers at
//! statement boundaries of an open MX transaction, and the trace test pins
//! the whole fence path to byte-identical fingerprints at 1 and 8 executor
//! threads.

use citrus::cluster::{Cluster, ClusterConfig};
use citrus::metadata::NodeId;
use citrus::{ha, interleave, rebalancer};
use pgmini::error::ErrorCode;
use pgmini::types::Datum;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

const SEED_ROWS: i64 = 8;

/// 2 workers, 8 shards, `t(k, v)` and `bystander(k, v)` distributed and
/// seeded — any executor thread count.
fn build(threads: usize, tracing: bool) -> Arc<Cluster> {
    let mut cfg = ClusterConfig::default();
    cfg.shard_count = 8;
    cfg.executor_threads = threads;
    cfg.tracing = tracing;
    let c = Cluster::new(cfg);
    c.add_worker().unwrap();
    c.add_worker().unwrap();
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    s.execute("CREATE TABLE bystander (k bigint, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('bystander', 'k')").unwrap();
    for k in 0..SEED_ROWS {
        s.execute(&format!("INSERT INTO t VALUES ({k}, 0)")).unwrap();
    }
    c
}

fn aborts(c: &Cluster) -> u64 {
    c.metrics.mx_generation_aborts.load(Ordering::Relaxed)
}

fn escalations(c: &Cluster) -> u64 {
    c.metrics.mx_midtxn_escalations.load(Ordering::Relaxed)
}

fn cell_i64(c: &Arc<Cluster>, sql: &str) -> i64 {
    let mut s = c.session().unwrap();
    let r = s.execute(sql).unwrap();
    let rows = r.rows();
    let d = &rows[0][0];
    d.as_i64().or_else(|_| d.as_f64().map(|f| f as i64)).unwrap()
}

/// A propagated CREATE INDEX on one of the transaction's tables lands
/// between two statements: the next statement surfaces a retryable 40001
/// with the remote transaction rolled back, and the retry commits — the
/// abort-retry leg of the escalation contract.
#[test]
fn conflicting_ddl_fences_open_txn_with_retryable_40001() {
    let c = build(2, false);
    let mut mx = c.mx_session();
    mx.execute("BEGIN").unwrap();
    mx.execute("INSERT INTO t VALUES (100, 1)").unwrap();
    assert_ne!(mx.last_node(), NodeId(0), "single-shard insert must pin a worker");

    let mut s = c.session().unwrap();
    s.execute("CREATE INDEX t_v_idx ON t (v)").unwrap();

    let err = mx.execute("UPDATE t SET v = 2 WHERE k = 100").unwrap_err();
    assert_eq!(err.code, ErrorCode::SerializationFailure, "{err:?}");
    assert!(err.message.contains("fenced"), "unexpected message: {}", err.message);
    assert_eq!(aborts(&c), 1);
    assert_eq!(escalations(&c), 0);

    // locks were released cleanly: the retry re-resolves its route and
    // commits without blocking behind the aborted attempt
    mx.execute("BEGIN").unwrap();
    mx.execute("INSERT INTO t VALUES (100, 1)").unwrap();
    mx.execute("UPDATE t SET v = 2 WHERE k = 100").unwrap();
    mx.execute("COMMIT").unwrap();

    assert_eq!(cell_i64(&c, "SELECT count(*) FROM t WHERE k = 100"), 1, "lost or dup write");
    assert_eq!(cell_i64(&c, "SELECT sum(v) FROM t WHERE k = 100"), 2);
    assert_eq!(aborts(&c), 1, "retry must not re-count the fence");
}

/// The last fence window: a conflicting bump that lands *after* the final
/// statement but before COMMIT must not commit the stale transaction.
#[test]
fn fence_fires_at_commit_when_bump_lands_after_last_statement() {
    let c = build(2, false);
    let mut mx = c.mx_session();
    mx.execute("BEGIN").unwrap();
    mx.execute("INSERT INTO t VALUES (101, 7)").unwrap();

    let mut s = c.session().unwrap();
    s.execute("CREATE INDEX t_v_idx2 ON t (v)").unwrap();

    let err = mx.execute("COMMIT").unwrap_err();
    assert_eq!(err.code, ErrorCode::SerializationFailure, "{err:?}");
    assert_eq!(aborts(&c), 1);

    mx.execute("BEGIN").unwrap();
    mx.execute("INSERT INTO t VALUES (101, 7)").unwrap();
    mx.execute("COMMIT").unwrap();
    assert_eq!(cell_i64(&c, "SELECT count(*) FROM t WHERE k = 101"), 1, "fenced write leaked");
}

/// A bump on a table the transaction never touched is non-conflicting: the
/// session escalates to the coordinator path mid-flight (counted once per
/// transaction) and the transaction commits.
#[test]
fn nonconflicting_ddl_escalates_midtxn_and_commits() {
    let c = build(2, false);
    let mut mx = c.mx_session();
    mx.execute("BEGIN").unwrap();
    mx.execute("INSERT INTO t VALUES (200, 1)").unwrap();

    let mut s = c.session().unwrap();
    s.execute("CREATE INDEX by_v_idx ON bystander (v)").unwrap();

    mx.execute("UPDATE t SET v = 2 WHERE k = 200").unwrap();
    assert_eq!(escalations(&c), 1);

    // a second non-conflicting bump inside the same transaction does not
    // re-count: escalation is a per-transaction transition
    s.execute("CREATE INDEX by_k_idx ON bystander (k)").unwrap();
    mx.execute("COMMIT").unwrap();
    assert_eq!(escalations(&c), 1);
    assert_eq!(aborts(&c), 0);
    assert_eq!(cell_i64(&c, "SELECT sum(v) FROM t WHERE k = 200"), 2);
}

/// A shard move switches the pinned transaction's placement out from under
/// it: the move's bounded-wait pre-fence aborts the idle holder instead of
/// stalling, the session surfaces 40001, and the retry re-resolves onto the
/// *new* placement. No write is lost or duplicated.
#[test]
fn shard_move_fences_pinned_txn_and_retry_lands_on_new_placement() {
    let c = build(2, false);
    let k = 3i64;
    let (bucket, from) = {
        let meta = c.metadata.read();
        let bucket = meta.shard_index_for_value("t", &Datum::Int(k)).unwrap();
        let t = meta.table("t").unwrap();
        let shard = meta.shard(t.shards[bucket]).unwrap();
        (bucket, *shard.placements.first().unwrap())
    };
    let to = if from == NodeId(1) { NodeId(2) } else { NodeId(1) };

    let mut mx = c.mx_session();
    mx.execute("BEGIN").unwrap();
    mx.execute(&format!("UPDATE t SET v = 1 WHERE k = {k}")).unwrap();
    assert_eq!(mx.last_node(), from, "write must pin the owning placement");

    // the pre-fence gives the holder one bounded wait, then force-aborts it
    // so the move cannot hang behind the idle-in-transaction session
    rebalancer::move_shard_group(&c, "t", bucket, from, to).unwrap();

    let err = mx.execute(&format!("UPDATE t SET v = 2 WHERE k = {k}")).unwrap_err();
    assert_eq!(err.code, ErrorCode::SerializationFailure, "{err:?}");
    assert!(aborts(&c) >= 1);

    mx.execute("BEGIN").unwrap();
    mx.execute(&format!("UPDATE t SET v = 2 WHERE k = {k}")).unwrap();
    assert_eq!(mx.last_node(), to, "retry must re-resolve onto the moved placement");
    mx.execute("COMMIT").unwrap();

    assert_eq!(cell_i64(&c, &format!("SELECT count(*) FROM t WHERE k = {k}")), 1);
    assert_eq!(
        cell_i64(&c, &format!("SELECT sum(v) FROM t WHERE k = {k}")),
        2,
        "aborted attempt's write leaked, or the retry's write landed in the moved-away copy"
    );
}

/// DDL frozen mid-fan-out: the generation bump and pre-fence precede the
/// shard steps, so an open transaction driven through the fence *inside*
/// the frozen window still observes the bump — the stale-plan window the
/// fence exists for. Release, complete the DDL, retry the transaction.
#[test]
fn frozen_ddl_window_fences_inside_the_propagation_gap() {
    let c = build(2, false);
    let mut mx = c.mx_session();
    mx.execute("BEGIN").unwrap();
    mx.execute("INSERT INTO t VALUES (300, 1)").unwrap();

    let frozen = interleave::freeze_ddl(&c, NodeId(1), "create_index");
    let mut s = c.session().unwrap();
    assert!(
        s.execute("CREATE INDEX t_fz ON t (v)").is_err(),
        "propagation must stop at the frozen node"
    );
    // inside the window: the bump already landed, the index has not
    let err = mx.execute("UPDATE t SET v = 2 WHERE k = 300").unwrap_err();
    assert_eq!(err.code, ErrorCode::SerializationFailure, "{err:?}");
    assert_eq!(aborts(&c), 1);
    frozen.release().unwrap();

    // the local shell index survived the abort; complete under a fresh name
    s.execute("CREATE INDEX t_fz_retry ON t (v)").unwrap();
    mx.execute("BEGIN").unwrap();
    mx.execute("INSERT INTO t VALUES (300, 1)").unwrap();
    mx.execute("UPDATE t SET v = 2 WHERE k = 300").unwrap();
    mx.execute("COMMIT").unwrap();
    assert_eq!(cell_i64(&c, "SELECT count(*) FROM t WHERE k = 300"), 1);
    assert_eq!(cell_i64(&c, "SELECT sum(v) FROM t WHERE k = 300"), 2);
}

/// Failover drill: the pinned worker dies (crash + standby promotion)
/// before COMMIT. The commit surfaces a ConnectionFailure naming the lost
/// node, the dead transaction's writes are gone, and the next statement
/// re-pins against the promoted engine.
#[test]
fn pinned_worker_failover_surfaces_lost_before_commit_then_repins() {
    let c = build(2, false);
    let mut mx = c.mx_session();
    mx.execute("BEGIN").unwrap();
    mx.execute("INSERT INTO t VALUES (400, 1)").unwrap();
    let pinned = mx.last_node();
    assert_ne!(pinned, NodeId(0));

    ha::fail_over(&c, pinned).unwrap();

    let err = mx.execute("COMMIT").unwrap_err();
    assert_eq!(err.code, ErrorCode::ConnectionFailure, "{err:?}");
    assert!(err.message.contains("lost before commit"), "{}", err.message);

    // same placement, promoted engine: the session re-resolves and re-pins
    mx.execute("BEGIN").unwrap();
    mx.execute("INSERT INTO t VALUES (400, 1)").unwrap();
    assert_eq!(mx.last_node(), pinned);
    mx.execute("COMMIT").unwrap();
    assert_eq!(
        cell_i64(&c, "SELECT count(*) FROM t WHERE k = 400"),
        1,
        "the dead transaction's write must not have survived the promotion"
    );
    assert_eq!(aborts(&c), 0, "failover is not a fence event");
}

/// A propagated TRUNCATE behind an idle-in-transaction MX holder. The
/// holder is not *waiting*, so no wait-for cycle ever forms and the
/// deadlock detector's cycle search is structurally blind to the stall;
/// the bounded-wait fence breaks it instead: the TRUNCATE completes, the
/// holder is aborted rather than waited out, and its write is gone.
#[test]
fn truncate_fences_idle_mx_holder_without_a_wait_cycle() {
    let c = build(2, false);
    let mut mx = c.mx_session();
    mx.execute("BEGIN").unwrap();
    mx.execute("INSERT INTO t VALUES (500, 1)").unwrap();

    let started = std::time::Instant::now();
    let c2 = c.clone();
    let truncate = std::thread::spawn(move || c2.session().unwrap().execute("TRUNCATE t"));
    // the detector finds no cycle: the holder is idle, not waiting
    assert!(citrus::deadlock::detect_once(&c).unwrap().is_none());
    truncate.join().unwrap().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "bounded-wait fence took {:?}",
        started.elapsed()
    );
    assert_eq!(c.metrics.deadlock_victims.load(Ordering::Relaxed), 0, "no cycle to break");
    assert!(aborts(&c) >= 1, "the idle holder must have been fenced");
    let err = mx.execute("COMMIT").unwrap_err();
    assert_eq!(err.code, ErrorCode::SerializationFailure, "{err:?}");
    assert_eq!(cell_i64(&c, "SELECT count(*) FROM t"), 0, "fenced write leaked past TRUNCATE");
}

/// Zero steady-state overhead: a stream of MX transactions with no
/// concurrent metadata change never moves either fence counter — the
/// generation stamp comparison is the only added work, and it never fires.
#[test]
fn fence_counters_stay_zero_without_concurrent_metadata_changes() {
    let c = build(2, false);
    let mut mx = c.mx_session();
    for k in 0..12 {
        mx.execute("BEGIN").unwrap();
        mx.execute(&format!("INSERT INTO t VALUES ({}, 1)", 700 + k)).unwrap();
        mx.execute(&format!("UPDATE t SET v = 2 WHERE k = {}", 700 + k)).unwrap();
        mx.execute("COMMIT").unwrap();
        mx.execute(&format!("SELECT v FROM t WHERE k = {}", 700 + k)).unwrap();
    }
    assert_eq!(aborts(&c), 0);
    assert_eq!(escalations(&c), 0);
    assert_eq!(cell_i64(&c, "SELECT count(*) FROM t WHERE v = 2"), 12);
}

/// The §3.6 determinism contract extended to the fence path: one full drill
/// (fence-abort, retry, mid-transaction escalation) produces byte-identical
/// statement-trace fingerprints and identical counters at 1 and 8 executor
/// threads.
#[test]
fn drill_traces_identical_at_1_and_8_threads() {
    let run = |threads: usize| {
        let c = build(threads, true);
        let mut mx = c.mx_session();
        mx.execute("BEGIN").unwrap();
        mx.execute("INSERT INTO t VALUES (100, 1)").unwrap();
        let mut s = c.session().unwrap();
        s.execute("CREATE INDEX t_v_idx ON t (v)").unwrap();
        mx.execute("UPDATE t SET v = 2 WHERE k = 100").unwrap_err();
        mx.execute("BEGIN").unwrap();
        mx.execute("INSERT INTO t VALUES (100, 1)").unwrap();
        mx.execute("UPDATE t SET v = 2 WHERE k = 100").unwrap();
        mx.execute("COMMIT").unwrap();
        mx.execute("BEGIN").unwrap();
        mx.execute("INSERT INTO t VALUES (101, 1)").unwrap();
        s.execute("CREATE INDEX by_v_idx ON bystander (v)").unwrap();
        mx.execute("COMMIT").unwrap();
        let renders: Vec<String> = c.tracer.statements().iter().map(|t| t.render()).collect();
        (citrus::trace::fingerprint_str(&renders.join("\n")), aborts(&c), escalations(&c))
    };
    let (a, b) = (run(1), run(8));
    assert_eq!(a.0, b.0, "drill traces differ between 1 and 8 threads");
    assert_eq!(a.1, b.1, "fence-abort counts differ across thread counts");
    assert_eq!(a.2, b.2, "escalation counts differ across thread counts");
}
