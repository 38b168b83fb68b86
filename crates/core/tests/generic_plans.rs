//! Backend generic plans under the distributed layer: a shard statement is
//! planned once per backend and later executions — MX-local tasks, pooled
//! worker connections — run the cached plan.
//!
//! * A differential run compares a cluster whose backends keep their plans
//!   against one whose every engine discards them before each statement:
//!   results, final state and every non-planning cost must agree.
//! * Invalidation drills: CREATE INDEX on a distributed table, DROP and
//!   re-CREATE, a columnar table, a shard move away and back, and a
//!   failover to a promoted standby. A stale plan would read the wrong
//!   storage or miss the new index.

use citrus::cluster::{Cluster, ClusterConfig};
use citrus::cost::DistCost;
use citrus::metadata::NodeId;
use pgmini::session::QueryResult;
use pgmini::types::Datum;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

fn cluster() -> Arc<Cluster> {
    let mut cfg = ClusterConfig::default();
    cfg.shard_count = 8;
    cfg.executor_threads = 1;
    let c = Cluster::new(cfg);
    for _ in 0..3 {
        c.add_worker().unwrap();
    }
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint, s text)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    s.execute("CREATE TABLE item (i bigint PRIMARY KEY, price double precision)").unwrap();
    s.execute("SELECT create_reference_table('item')").unwrap();
    for k in 0..40i64 {
        s.execute(&format!("INSERT INTO t VALUES ({k}, {}, 's{}')", k % 6, k % 4)).unwrap();
    }
    for i in 0..20i64 {
        s.execute(&format!("INSERT INTO item VALUES ({i}, {i}.5)")).unwrap();
    }
    c
}

/// A CRUD stream of repeated shapes with changing literals.
fn stream() -> Vec<String> {
    let mut out = Vec::new();
    for r in 0..12i64 {
        let k = (r * 7) % 40;
        out.push(format!("SELECT v, s FROM t WHERE k = {k}"));
        out.push(format!("UPDATE t SET v = v + {r} WHERE k = {k}"));
        out.push(format!("SELECT price FROM item WHERE i = {}", r % 20));
        out.push(format!("INSERT INTO t VALUES ({}, {r}, 'n{r}')", 100 + r));
        out.push(format!("SELECT count(*), sum(v) FROM t WHERE v > {}", r % 5));
        out.push(format!("DELETE FROM t WHERE k = {} AND v < {}", 100 + r - 1, 1000));
        out.push("BEGIN".into());
        out.push(format!("UPDATE t SET s = 'x{r}' WHERE k = {}", (k + 1) % 40));
        out.push(format!("SELECT s FROM t WHERE k = {}", (k + 1) % 40));
        out.push("COMMIT".into());
    }
    out
}

fn dump(c: &Arc<Cluster>) -> Vec<QueryResult> {
    let mut s = c.session().unwrap();
    ["SELECT k, v, s FROM t ORDER BY k", "SELECT i, price FROM item ORDER BY i"]
        .iter()
        .map(|q| s.execute(q).unwrap())
        .collect()
}

/// (node, io bits, pages, rows, cpu − base_plan_ms × plannings) per node.
fn demand(d: &DistCost) -> Vec<(u32, u64, u64, u64, f64)> {
    let base = pgmini::cost::CostModel::default().base_plan_ms;
    d.per_node
        .iter()
        .map(|(n, c)| {
            let cpu = c.cpu_ms - base * c.plan_misses as f64;
            (n.0, c.io_ms.to_bits(), c.pages_read, c.rows_processed, cpu)
        })
        .collect()
}

fn same_demand(a: &DistCost, b: &DistCost, sql: &str) {
    let (da, db) = (demand(a), demand(b));
    assert_eq!(da.len(), db.len(), "{sql}");
    for (x, y) in da.iter().zip(&db) {
        assert_eq!((x.0, x.1, x.2, x.3), (y.0, y.1, y.2, y.3), "{sql}");
        assert!((x.4 - y.4).abs() < 1e-9, "non-planning cpu {} vs {}: {sql}", x.4, y.4);
    }
}

#[test]
fn cached_plans_match_discarded_plans_through_the_cluster() {
    let (hot, cold) = (cluster(), cluster());
    let discard = |c: &Arc<Cluster>| {
        for n in c.nodes() {
            n.engine().invalidate_generic_plans();
        }
    };
    let mut hot_mx = hot.mx_session();
    let mut cold_mx = cold.mx_session();
    let mut hot_co = hot.session().unwrap();
    let mut cold_co = cold.session().unwrap();
    let (hot_hits, cold_hits) =
        (hot.metrics.local_plan_hits.load(Relaxed), cold.metrics.local_plan_hits.load(Relaxed));
    for (i, sql) in stream().iter().enumerate() {
        // MX-routed (local execution) and coordinator (pooled worker
        // connections) paths in turn
        discard(&cold);
        if i % 2 == 0 {
            let a = hot_mx.execute(sql).map_err(|e| e.code);
            let b = cold_mx.execute(sql).map_err(|e| e.code);
            assert_eq!(a, b, "{sql}");
            same_demand(&hot_mx.last_dist_cost(), &cold_mx.last_dist_cost(), sql);
        } else {
            let a = hot_co.execute(sql).map_err(|e| e.code);
            let b = cold_co.execute(sql).map_err(|e| e.code);
            assert_eq!(a, b, "{sql}");
            same_demand(&hot_co.last_dist_cost(), &cold_co.last_dist_cost(), sql);
        }
    }
    assert!(
        hot.metrics.local_plan_hits.load(Relaxed) > hot_hits,
        "the warm cluster's backends reused their plans"
    );
    assert_eq!(cold.metrics.local_plan_hits.load(Relaxed), cold_hits, "discarded plans never hit");
    assert_eq!(dump(&hot), dump(&cold), "final state");
}

/// Run `sql` until every task hits a cached plan; returns the answer.
fn warm(c: &Arc<Cluster>, s: &mut citrus::cluster::ClientSession, sql: &str) -> QueryResult {
    let mut last = None;
    for _ in 0..3 {
        last = Some(s.execute(sql).unwrap());
    }
    let (hits, misses) =
        (c.metrics.local_plan_hits.load(Relaxed), c.metrics.local_plan_misses.load(Relaxed));
    let r = s.execute(sql).unwrap();
    assert!(c.metrics.local_plan_hits.load(Relaxed) > hits, "warm: {sql}");
    assert_eq!(c.metrics.local_plan_misses.load(Relaxed), misses, "warm: {sql}");
    assert_eq!(Some(&r), last.as_ref());
    r
}

/// One execution of `sql`: (answer, planned on the worker?).
fn once(
    c: &Arc<Cluster>,
    s: &mut citrus::cluster::ClientSession,
    sql: &str,
) -> (QueryResult, bool) {
    let misses = c.metrics.local_plan_misses.load(Relaxed);
    let r = s.execute(sql).unwrap();
    (r, c.metrics.local_plan_misses.load(Relaxed) > misses)
}

#[test]
fn create_index_on_a_distributed_table_replans_on_the_workers() {
    let c = cluster();
    let mut s = c.session().unwrap();
    let q = "SELECT k FROM t WHERE k = 9 AND s = 's1'";
    let before = warm(&c, &mut s, q);
    s.execute("CREATE INDEX t_s ON t (s)").unwrap();
    let (after, planned) = once(&c, &mut s, q);
    assert!(planned, "the shard's index changed the catalog: the worker replans");
    assert_eq!(after, before);
    warm(&c, &mut s, q);
}

#[test]
fn drop_and_recreate_replans() {
    let c = cluster();
    let mut s = c.session().unwrap();
    let q = "SELECT count(*) FROM t WHERE v >= 0";
    warm(&c, &mut s, q);
    s.execute("DROP TABLE t").unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint, s text)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    s.execute("INSERT INTO t VALUES (1, 1, 'a'), (2, 2, 'b')").unwrap();
    let (r, planned) = once(&c, &mut s, q);
    assert!(planned);
    assert_eq!(r.rows()[0][0], Datum::Int(2));
}

#[test]
fn columnar_distributed_table_caches_and_replans() {
    let c = cluster();
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE m (g bigint, x bigint) USING columnar").unwrap();
    s.execute("SELECT create_distributed_table('m', 'g')").unwrap();
    s.execute("INSERT INTO m VALUES (1, 5), (1, 6), (2, 7), (3, 8)").unwrap();
    let q = "SELECT g, sum(x) FROM m WHERE x > 1 GROUP BY g ORDER BY 1";
    let r = warm(&c, &mut s, q);
    assert_eq!(r.rows().len(), 3);
    // re-create as a heap table: the shard names repeat, the storage differs
    s.execute("DROP TABLE m").unwrap();
    s.execute("CREATE TABLE m (g bigint, x bigint)").unwrap();
    s.execute("SELECT create_distributed_table('m', 'g')").unwrap();
    s.execute("INSERT INTO m VALUES (1, 5)").unwrap();
    let (r, planned) = once(&c, &mut s, q);
    assert!(planned);
    assert_eq!(r.rows(), &[vec![Datum::Int(1), Datum::Int(5)]]);
}

/// Move a shard group away and back: the source node drops and later
/// re-creates the very same shard table, so a plan it cached before the
/// move names storage that no longer exists.
#[test]
fn shard_move_away_and_back_replans() {
    let c = cluster();
    let mut mx = c.mx_session();
    let q = "SELECT v FROM t WHERE k = 7";
    for _ in 0..4 {
        mx.execute(q).unwrap();
    }
    let (bucket, from) = {
        let meta = c.metadata.read();
        let b = meta.shard_index_for_value("t", &Datum::Int(7)).unwrap();
        let dt = meta.table("t").unwrap();
        (b, meta.shard(dt.shards[b]).unwrap().placements[0])
    };
    let to = c.worker_ids().into_iter().find(|n| *n != from).unwrap();
    mx.execute("UPDATE t SET v = 70 WHERE k = 7").unwrap();
    citrus::rebalancer::move_shard_group(&c, "t", bucket, from, to).unwrap();
    assert_eq!(mx.execute(q).unwrap().rows()[0][0], Datum::Int(70));
    assert_eq!(mx.last_node(), to);
    citrus::rebalancer::move_shard_group(&c, "t", bucket, to, from).unwrap();
    mx.execute("UPDATE t SET v = 71 WHERE k = 7").unwrap();
    for _ in 0..3 {
        assert_eq!(mx.execute(q).unwrap().rows()[0][0], Datum::Int(71));
        assert_eq!(mx.last_node(), from);
    }
}

#[test]
fn failover_to_a_promoted_standby_replans() {
    let c = cluster();
    let mut mx = c.mx_session();
    let q = "SELECT v FROM t WHERE k = 11";
    for _ in 0..4 {
        mx.execute(q).unwrap();
    }
    mx.execute("UPDATE t SET v = 111 WHERE k = 11").unwrap();
    let victim = mx.last_node();
    assert_ne!(victim, NodeId(0));
    citrus::ha::crash_node(&c, victim).unwrap();
    citrus::ha::promote_standby(&c, victim).unwrap();
    for _ in 0..3 {
        assert_eq!(mx.execute(q).unwrap().rows()[0][0], Datum::Int(111));
    }
    let mut s = c.session().unwrap();
    for _ in 0..3 {
        assert_eq!(s.execute(q).unwrap().rows()[0][0], Datum::Int(111));
    }
}

/// `EXPLAIN (ANALYZE, DISTRIBUTED)` names a task that ran a cached plan.
#[test]
fn explain_analyze_marks_cached_task_plans() {
    let c = cluster();
    let mut s = c.session().unwrap();
    let q = "SELECT v FROM t WHERE k = 3";
    warm(&c, &mut s, q);
    let r = s.execute(&format!("EXPLAIN (ANALYZE, DISTRIBUTED) {q}")).unwrap();
    let text: Vec<String> =
        r.rows().iter().map(|row| row[0].as_str().unwrap().to_string()).collect();
    assert!(
        text.iter().any(|l| l.contains("task{") && l.contains("plan=cached")),
        "cached task plan visible:\n{}",
        text.join("\n")
    );
}
