//! Session lifecycle: a closed session's distributed state — above all its
//! pooled worker connections — is released when the session closes.
//!
//! Every distributed statement leaves its worker connection pooled in the
//! session's state for reuse, and each pooled connection holds a slot of the
//! shared per-node connection limit. If a closed session's state outlived
//! it, a stream of short-lived sessions (a rollup drain commits through one)
//! would exhaust the limit and fail with SQLSTATE 53300.

use citrus::cluster::{Cluster, ClusterConfig};
use citrus::rollup;
use std::sync::Arc;

fn rollup_cluster() -> Arc<Cluster> {
    let mut cfg = ClusterConfig::default();
    cfg.shard_count = 8;
    cfg.executor_threads = 1;
    let c = Cluster::new(cfg);
    for _ in 0..2 {
        c.add_worker().unwrap();
    }
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE sales (k bigint PRIMARY KEY, region text, amount bigint)").unwrap();
    s.execute("SELECT create_distributed_table('sales', 'k')").unwrap();
    s.execute(
        "CREATE ROLLUP sales_by_region AS SELECT region, count(*) AS n, \
         sum(amount) AS total FROM sales GROUP BY region",
    )
    .unwrap();
    c
}

fn worker_connections(c: &Arc<Cluster>) -> Vec<u32> {
    c.worker_ids().into_iter().map(|n| c.connections_to(n)).collect()
}

/// 1,200 transient coordinator sessions — more than twice the shared
/// connection limit — each doing one distributed write, with a rollup drain
/// after every tenth. Nothing fails with 53300, the tracked connection count
/// stays flat, and once the last handle is gone the cluster itself is freed.
#[test]
fn transient_sessions_release_their_worker_connections() {
    let c = rollup_cluster();
    let limit = c.connection_limit() as usize;
    let sessions = 1_200;
    assert!(sessions > 2 * limit, "the stream outlasts the connection limit");
    let baseline = worker_connections(&c);
    for k in 0..sessions as i64 {
        {
            let mut s = c.session().unwrap();
            s.execute(&format!("INSERT INTO sales VALUES ({k}, 'r{}', {k})", k % 3))
                .unwrap_or_else(|e| panic!("session {k}: {e:?}"));
        }
        if k % 10 == 9 {
            rollup::refresh(&c, "sales_by_region")
                .unwrap_or_else(|e| panic!("drain after session {k}: {e:?}"));
        }
        assert_eq!(worker_connections(&c), baseline, "session {k} left a connection behind");
    }
    let mut s = c.session().unwrap();
    let n = s.execute("SELECT sum(n) FROM sales_by_region").unwrap();
    assert_eq!(n.rows()[0][0].as_i64().unwrap(), sessions as i64);
    drop(s);

    // the pooled connections held the cluster alive (each holds an
    // `Arc<Cluster>`); with every session's state released, nothing does
    let weak = Arc::downgrade(&c);
    drop(c);
    assert!(weak.upgrade().is_none(), "a dropped cluster is freed");
}
