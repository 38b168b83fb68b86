//! Wall for the two executor fast paths: pipelined statement batching and
//! local execution (the worker half of MX mode).
//!
//! Both fast paths change *where wire time is spent*, never what a
//! statement returns; the result side of that contract is checked against
//! the single-node oracle by `oracle_differential.rs` (BEGIN/COMMIT-grouped
//! streams at 1 and 8 executor threads). This suite pins the wire side:
//!
//! * golden per-statement wire accounting — the trace's `wire=` attribute,
//!   the exchange/coalesced counter deltas, and net time in whole round
//!   trips — so a change that stops coalescing (or starts charging riding
//!   statements) fails here;
//! * clean per-statement fallback when a fault plan errors or crashes a
//!   node mid-batch;
//! * MX sessions executing routed tasks in the worker backend.

use citrus::cluster::{Cluster, ClusterConfig};
use citrus::metadata::NodeId;
use netsim::fault::{FaultKind, FaultOp, FaultPlan, FaultRule};
use pgmini::error::ErrorCode;
use pgmini::types::Datum;
use std::sync::atomic::Ordering;
use std::sync::Arc;

const SEED_ROWS: i64 = 16;

/// 2 workers, 8 shards, `t(k, v)` seeded.
fn build(threads: usize, tracing: bool) -> Arc<Cluster> {
    let mut cfg = ClusterConfig::default();
    cfg.shard_count = 8;
    cfg.executor_threads = threads;
    cfg.tracing = tracing;
    let c = Cluster::new(cfg);
    for _ in 0..2 {
        c.add_worker().unwrap();
    }
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    for k in 0..SEED_ROWS {
        s.execute(&format!("INSERT INTO t VALUES ({k}, {})", k * 10)).unwrap();
    }
    c
}

/// Golden wire accounting for a multi-statement single-shard transaction
/// and a multi-shard scan, on a session whose worker connections are
/// already pooled (so net time is round trips only). Per statement: the
/// trace's `wire=` attribute (`None` when the statement left no trace), the
/// deltas of `Metrics::pipeline_exchanges` and `pipeline_coalesced`, and
/// `net_ms` in whole `net_rtt_ms` units.
///
/// The first in-transaction statement opens one exchange and pays two round
/// trips (the remote BEGIN, then the statement); the three that follow ride
/// it for free; the 8-task scan collapses to one exchange per worker under
/// one round trip. If the open exchange stops being ridden, the riding rows
/// turn into `exchange` rows that each pay a round trip, and this fails.
#[test]
fn pipelined_wire_accounting_matches_golden() {
    #[rustfmt::skip]
    let golden: [(&str, Option<&str>, u64, u64, u32); 7] = [
        ("BEGIN",                              None,              0, 0, 0),
        ("SELECT v FROM t WHERE k = 1",        Some("exchange"),  1, 0, 2),
        ("UPDATE t SET v = v + 1 WHERE k = 1", Some("pipelined"), 0, 1, 0),
        ("SELECT v FROM t WHERE k = 1",        Some("pipelined"), 0, 1, 0),
        ("UPDATE t SET v = v + 1 WHERE k = 1", Some("pipelined"), 0, 1, 0),
        ("COMMIT",                             None,              0, 0, 1),
        ("SELECT count(*), sum(v) FROM t",     Some("exchange"),  2, 6, 1),
    ];
    let c = build(1, true);
    let mut s = c.session().unwrap();
    // pool one connection per worker, and drain that statement's cost
    s.execute("SELECT count(*) FROM t").unwrap();
    s.last_dist_cost();
    let rtt = c.config.engine.cost.net_rtt_ms;
    let counters = || {
        (
            c.metrics.pipeline_exchanges.load(Ordering::Relaxed),
            c.metrics.pipeline_coalesced.load(Ordering::Relaxed),
        )
    };
    for (sql, wire, exchanges, coalesced, rtts) in golden {
        let traced = c.tracer.statements().len();
        let (ex0, co0) = counters();
        s.execute(sql).unwrap();
        let (ex1, co1) = counters();
        let traces = c.tracer.statements();
        let got_wire = traces[traced..].last().and_then(|t| t.field("wire").map(str::to_string));
        let net_ms = s.last_dist_cost().net_ms;
        assert_eq!(got_wire.as_deref(), wire, "`{sql}`: wire= attribute");
        assert_eq!(ex1 - ex0, exchanges, "`{sql}`: exchanges opened");
        assert_eq!(co1 - co0, coalesced, "`{sql}`: tasks coalesced");
        assert_eq!(net_ms, f64::from(rtts) * rtt, "`{sql}`: net_ms in round trips");
    }
}

/// Mid-batch statement error inside a pipelined transaction: the statement
/// fails cleanly, ROLLBACK discards the transaction's writes, and the
/// session (its exchange re-synced by the per-statement fallback) keeps
/// working.
#[test]
fn mid_batch_error_falls_back_cleanly() {
    let c = build(1, false);
    let mut s = c.session().unwrap();
    // one-shot, pinned to the shard holding k=1: the in-transaction read of
    // that shard dies mid-batch (scoping keeps the shot off the
    // transaction-id assignment RPC, which is also a tagged select)
    let shard_scope = {
        let meta = c.metadata.read();
        let b = meta.shard_index_for_value("t", &Datum::Int(1)).unwrap();
        format!("s{}", meta.table("t").unwrap().shards[b].0)
    };
    let inj = c.install_faults(
        FaultPlan::new().with(
            FaultRule::new(FaultOp::Statement, FaultKind::Error)
                .with_tag("select")
                .scoped_to(&shard_scope),
        ),
        0,
    );
    s.execute("BEGIN").unwrap();
    s.execute("UPDATE t SET v = v + 100 WHERE k = 1").unwrap();
    let err = s.execute("SELECT v FROM t WHERE k = 1").unwrap_err();
    assert_eq!(err.code, ErrorCode::ConnectionFailure);
    assert_eq!(inj.fired(), 1);
    s.execute("ROLLBACK").unwrap();

    // the aborted transaction left nothing behind
    let r = s.execute("SELECT v FROM t WHERE k = 1").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(10), "update must be rolled back");

    // and the session still pipelines fresh transactions
    s.execute("BEGIN").unwrap();
    s.execute("UPDATE t SET v = v + 1 WHERE k = 1").unwrap();
    s.execute("COMMIT").unwrap();
    let r = s.execute("SELECT v FROM t WHERE k = 1").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(11), "post-fault txn commits");
}

/// Mid-batch node crash on a replicated read: the coordinator's local
/// replica dies under the locally executed task, and the executor fails
/// over to a surviving placement inside the batch — answering exactly what
/// the healthy cluster answered.
#[test]
fn mid_batch_crash_fails_over_identically() {
    let mut cfg = ClusterConfig::default();
    cfg.shard_count = 8;
    cfg.executor_threads = 1;
    let c = Cluster::new(cfg);
    for _ in 0..2 {
        c.add_worker().unwrap();
    }
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE r (id bigint PRIMARY KEY, label text)").unwrap();
    s.execute("SELECT create_reference_table('r')").unwrap();
    s.execute("INSERT INTO r VALUES (1, 'a'), (2, 'b'), (3, 'c')").unwrap();
    let healthy = s.execute("SELECT count(*) FROM r").unwrap();
    let inj = c.install_faults(
        FaultPlan::new().with(
            FaultRule::new(FaultOp::Statement, FaultKind::Crash).on_node(0).with_tag("select"),
        ),
        0,
    );
    let r = s.execute("SELECT count(*) FROM r").unwrap();
    assert_eq!(inj.fired(), 1);
    assert!(!c.node(NodeId(0)).unwrap().is_active(), "replica crashed");
    assert_eq!(r.rows(), healthy.rows(), "failover answers what the healthy cluster did");
    assert_eq!(healthy.rows()[0][0], Datum::Int(3));
}

/// The MX half: a routed tenant transaction plans, executes, and commits on
/// the worker owning its placement — zero coordinator involvement, and the
/// worker's tasks run in the client backend via local execution.
#[test]
fn mx_sessions_stay_off_the_coordinator() {
    let c = build(2, false);
    let mut mx = c.mx_session();
    mx.execute("BEGIN").unwrap();
    for sql in [
        "SELECT v FROM t WHERE k = 1",
        "UPDATE t SET v = v + 1 WHERE k = 1",
    ] {
        mx.execute(sql).unwrap();
        let d = mx.last_dist_cost();
        assert!(
            !d.per_node.contains_key(&NodeId(0)),
            "`{sql}` booked work on the coordinator: {:?}",
            d.per_node
        );
    }
    mx.execute("COMMIT").unwrap();
    assert_eq!(mx.escalated, 0, "nothing escalated");
    assert!(mx.routed >= 2, "statements routed to the owning worker");
    assert_ne!(mx.last_node(), NodeId(0), "transaction pinned to a worker");
    assert!(
        c.metrics.local_exec_tasks.load(Ordering::Relaxed) > 0,
        "routed tasks must run in the worker backend via local execution"
    );
    // escalation still reaches the coordinator when the shape needs it
    mx.execute("SELECT count(*) FROM t").unwrap();
    assert_eq!(mx.escalated, 1);
    assert_eq!(mx.last_node(), NodeId(0));
}

