//! Virtual-clock and count metrics are a pure function of the workload and
//! its seed: two runs agree, so do runs at one and two executor threads,
//! traced runs among themselves too; tracing leaves the unit stream as it
//! is, and a different seed changes it.
//!
//! Runs each workload at the benchmark's own scale for exactly its minimum
//! unit count (about five minutes on 2 cores):
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.
//!
//! Every metric agrees bit for bit, except the virtual times of
//! `rta_ingest` (and its node-demand share), which agree to 1e-9 relative: the distributed COPY adds
//! per-shard batch costs in `HashMap` order, so a node's summed cost can
//! differ in its last bits between runs.

use perfbench::report::{self, Metric};
use perfbench::suite::Kind;
use perfbench::{run, RunConfig};
use std::sync::Mutex;

/// One full-scale cluster at a time keeps the tests' memory small.
static SERIAL: Mutex<()> = Mutex::new(());

fn measure(kind: Kind, seed: u64, threads: usize, trace: bool) -> (Vec<Metric>, u64) {
    let mut cfg = RunConfig::new(kind, seed, 0.0, trace);
    cfg.executor_threads = threads;
    cfg.record_stream = true;
    let m = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
    assert_eq!(
        report::failed(&m),
        0,
        "{}: {:?}",
        kind.name(),
        m.verdict.notes
    );
    (report::deterministic(&m), m.stream_hash)
}

fn assert_same(kind: Kind, what: &str, a: &[Metric], b: &[Metric]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.name, y.name);
        // virtual times, and the node-demand share made of them
        let summed_cost =
            matches!(x.unit, "vms" | "1/vs") || x.name == "pgmini.node_demand_max_share";
        let same = if kind == Kind::RtaIngest && summed_cost {
            (x.value - y.value).abs() <= 1e-9 * x.value.abs().max(y.value.abs())
        } else {
            x.value.to_bits() == y.value.to_bits()
        };
        assert!(
            same,
            "{}: {what}: {} is {} vs {}",
            kind.name(),
            x.name,
            x.value,
            y.value
        );
    }
}

fn check(kind: Kind) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (a, stream_a) = measure(kind, 1, 2, false);
    let (b, stream_b) = measure(kind, 1, 2, false);
    let (one, stream_one) = measure(kind, 1, 1, false);
    let (traced_two, _) = measure(kind, 1, 2, true);
    let (traced_one, stream_traced) = measure(kind, 1, 1, true);
    let (_, stream_other) = measure(kind, 2, 2, false);
    assert!(a
        .iter()
        .any(|m| m.name == "vthroughput_units_vs" && m.value > 0.0));
    // the counts only traced units feed are compared, not 0 against 0
    assert!(
        traced_one
            .iter()
            .any(|m| m.name == "statement_shapes" && m.value > 0.0),
        "{}: traced run reports no statement shapes",
        kind.name()
    );
    assert_same(kind, "two runs", &a, &b);
    assert_same(
        kind,
        "traced at 1 vs 2 executor threads",
        &traced_two,
        &traced_one,
    );
    assert_eq!(
        stream_a,
        stream_traced,
        "{}: tracing changes the stream",
        kind.name()
    );
    assert_eq!(
        stream_a,
        stream_b,
        "{}: two runs issue different streams",
        kind.name()
    );
    assert_same(kind, "1 vs 2 executor threads", &a, &one);
    assert_eq!(
        stream_a,
        stream_one,
        "{}: thread count changes the stream",
        kind.name()
    );
    assert_ne!(
        stream_a,
        stream_other,
        "{}: seed does not change the unit stream",
        kind.name()
    );
}

#[test]
fn oltp_tenant_is_deterministic() {
    check(Kind::OltpTenant);
}

#[test]
fn olap_tpch_is_deterministic() {
    check(Kind::OlapTpch);
}

#[test]
fn rta_ingest_is_deterministic() {
    check(Kind::RtaIngest);
}
