//! Differential wall for the backend-local generic plan cache.
//!
//! Three engines get the same schema and the same statement stream through
//! three sessions:
//!
//! * **hit** — the normal path: a statement shape is planned once per
//!   backend (from its second sighting on, the plan is kept) and later
//!   executions run the cached generic plan;
//! * **cold** — the same path with the backend's plans discarded before
//!   every statement, so every statement plans its generic form afresh;
//! * **custom** — every statement planned with its literals as constants
//!   (run with a parameter list, which has no generic form).
//!
//! Results, affected counts, errors and the final table contents must agree
//! across all three; every cost field but planning (`base_plan_ms` per
//! planned statement) must agree between hit and cold, and cold must cost
//! exactly what a custom plan costs.

use pgmini::cost::SimCost;
use pgmini::engine::Engine;
use pgmini::error::ErrorCode;
use pgmini::session::{QueryResult, Session};
use pgmini::types::Datum;
use proptest::prelude::*;
use std::sync::Arc;

const SCHEMA: &[&str] = &[
    "CREATE TABLE t (k bigint PRIMARY KEY, v bigint, s text, f double precision, ts timestamp)",
    "CREATE INDEX t_v ON t (v)",
    "CREATE TABLE u (k bigint PRIMARY KEY, w bigint)",
    "CREATE TABLE m (g bigint, x bigint) USING columnar",
];

fn engine_with_data() -> (Arc<Engine>, Session) {
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    for ddl in SCHEMA {
        s.execute(ddl).unwrap();
    }
    for k in 0..40i64 {
        let v = if k % 7 == 0 { "NULL".to_string() } else { (k % 9).to_string() };
        s.execute(&format!(
            "INSERT INTO t VALUES ({k}, {v}, 's{}', {}.5, '2020-01-0{}')",
            k % 5,
            k % 11,
            1 + k % 8
        ))
        .unwrap();
    }
    for k in 0..10i64 {
        s.execute(&format!("INSERT INTO u VALUES ({k}, {})", k * 3)).unwrap();
    }
    for g in 0..30i64 {
        s.execute(&format!("INSERT INTO m (g, x) VALUES ({}, {g})", g % 4)).unwrap();
    }
    (e, s)
}

/// A literal of any type, rendered as SQL.
#[derive(Debug, Clone)]
enum Lit {
    Int(i64),
    Float(i64),
    Text(String),
    Null,
}

impl Lit {
    fn sql(&self) -> String {
        match self {
            Lit::Int(v) => v.to_string(),
            Lit::Float(v) => format!("{}.25", v),
            Lit::Text(s) => format!("'{s}'"),
            Lit::Null => "NULL".into(),
        }
    }
}

fn arb_lit() -> impl Strategy<Value = Lit> {
    prop_oneof![
        (-2..45i64).prop_map(Lit::Int),
        (-2..45i64).prop_map(Lit::Int),
        (-2..45i64).prop_map(Lit::Int),
        (-2..12i64).prop_map(Lit::Float),
        "[s0-9%]{0,3}".prop_map(Lit::Text),
        Just(Lit::Null),
    ]
}

/// One statement of the stream: a shape, three slot literals, and two small
/// integers used where a literal is consumed while planning (LIMIT counts,
/// ORDER BY positions, select-list constants, keys).
fn render(shape: u8, l: &[Lit; 3], a: i64, b: i64) -> String {
    let [x, y, z] = l;
    let (x, y, z) = (x.sql(), y.sql(), z.sql());
    match shape % 17 {
        0 => format!("SELECT v, s FROM t WHERE k = {x}"),
        1 => format!("SELECT k, v FROM t WHERE v BETWEEN {x} AND {y} ORDER BY k LIMIT {a}"),
        2 => format!("SELECT count(*), sum(v) FROM t WHERE s LIKE {x}"),
        3 => format!("SELECT k, v FROM t WHERE k IN ({x}, {y}, {z}) ORDER BY {}", 1 + b % 2),
        4 => format!("SELECT k FROM t WHERE f > {x} ORDER BY k"),
        5 => format!("SELECT k, s FROM t WHERE s = {x} OR v IS NULL ORDER BY 1"),
        6 => format!("SELECT v + {a}, k FROM t WHERE k = {x}"),
        7 => format!(
            "SELECT t.k, u.w FROM t JOIN u ON u.k = t.k AND u.w > {x} WHERE t.v < {y} \
             ORDER BY 1"
        ),
        8 => format!("SELECT g, sum(x), count(*) FROM m WHERE x > {x} GROUP BY g ORDER BY 1"),
        9 => format!(
            "INSERT INTO t VALUES ({a}, {x}, {y}, {z}, '2020-02-01'::timestamp) \
             ON CONFLICT (k) DO UPDATE SET v = excluded.v + {b}"
        ),
        10 => format!("UPDATE t SET v = v + {x}, s = {y} WHERE k = {z}"),
        11 => format!("DELETE FROM t WHERE k = {x} AND v < {y}"),
        12 => format!("INSERT INTO u VALUES ({a}, {x}) ON CONFLICT DO NOTHING"),
        13 => format!("INSERT INTO m VALUES ({x}, {y})"),
        14 => format!("SELECT k, v FROM t WHERE k = {x} FOR UPDATE"),
        15 => {
            format!("INSERT INTO u SELECT k + 100, v FROM t WHERE k = {x} ON CONFLICT DO NOTHING")
        }
        _ => format!("SELECT k FROM t WHERE ts < {x}::timestamp OR k = {y} ORDER BY k LIMIT 3"),
    }
}

type Outcome = Result<QueryResult, ErrorCode>;

fn run(s: &mut Session, sql: &str, mode: Mode) -> (Outcome, SimCost) {
    let r = match mode {
        Mode::Hit => s.execute(sql),
        Mode::Cold => {
            s.discard_plans();
            s.execute(sql)
        }
        // a parameter list means no generic form: the literals plan as
        // constants (the unused `$1` is harmless)
        Mode::Custom => s.execute_with_params(sql, &[Datum::Null]),
    };
    (r.map_err(|e| e.code), s.last_cost())
}

#[derive(Clone, Copy)]
enum Mode {
    Hit,
    Cold,
    Custom,
}

/// Every cost field a cached plan must not change.
fn non_planning(c: &SimCost) -> (u64, u64, u64, u64, u64, u64, u64) {
    (
        c.io_ms.to_bits(),
        c.net_ms.to_bits(),
        c.pages_read,
        c.page_misses,
        c.rows_processed,
        c.net_rtts,
        c.batches,
    )
}

fn dump(s: &mut Session) -> Vec<QueryResult> {
    ["SELECT * FROM t ORDER BY k", "SELECT * FROM u ORDER BY k", "SELECT * FROM m ORDER BY g, x"]
        .iter()
        .map(|q| s.execute(q).unwrap())
        .collect()
}

/// Run `stream` on hit/cold/custom sessions and check the differential
/// contract. Returns the hit session's plan hits.
fn check_stream(stream: &[String]) -> u64 {
    let base_plan_ms = pgmini::cost::CostModel::default().base_plan_ms;
    let (_e1, mut hit) = engine_with_data();
    let (_e2, mut cold) = engine_with_data();
    let (_e3, mut custom) = engine_with_data();
    let mut hits = 0;
    for sql in stream {
        let (rh, ch) = run(&mut hit, sql, Mode::Hit);
        let (rc, cc) = run(&mut cold, sql, Mode::Cold);
        let (rx, cx) = run(&mut custom, sql, Mode::Custom);
        assert_eq!(rh, rc, "hit vs cold result: {sql}");
        assert_eq!(rc, rx, "generic vs custom plan result: {sql}");
        assert_eq!(non_planning(&ch), non_planning(&cc), "hit vs cold cost: {sql}");
        assert_eq!(non_planning(&cc), non_planning(&cx), "cold vs custom cost: {sql}");
        assert_eq!(cc.cpu_ms.to_bits(), cx.cpu_ms.to_bits(), "cold vs custom cpu: {sql}");
        assert_eq!(cc.plan_hits, 0, "a discarded cache never hits");
        // planning is the only CPU a hit saves
        let saved = (cc.plan_misses - ch.plan_misses) as f64 * base_plan_ms;
        assert!(
            (ch.cpu_ms + saved - cc.cpu_ms).abs() <= 1e-9 * cc.cpu_ms.max(1.0),
            "hit cpu {} + saved {saved} != cold cpu {}: {sql}",
            ch.cpu_ms,
            cc.cpu_ms
        );
        hits += ch.plan_hits;
    }
    let final_state = dump(&mut hit);
    assert_eq!(final_state, dump(&mut cold), "final state hit vs cold");
    assert_eq!(final_state, dump(&mut custom), "final state generic vs custom");
    hits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Mixed literal types (ints, floats, text, NULLs) in every slot,
    /// varying LIMIT counts, ORDER BY positions and select-list constants.
    #[test]
    fn cached_plans_match_fresh_and_custom_plans(
        stmts in prop::collection::vec(
            (0..17u8, arb_lit(), arb_lit(), arb_lit(), 0..6i64, 0..4i64),
            10..60,
        )
    ) {
        let stream: Vec<String> = stmts
            .iter()
            .map(|(shape, x, y, z, a, b)| render(*shape, &[x.clone(), y.clone(), z.clone()], *a, *b))
            .collect();
        check_stream(&stream);
    }
}

/// Every shape, repeated with fresh literals of one type: the cache really
/// is exercised (from the second planning of a shape on, executions hit).
#[test]
fn every_shape_hits_its_cached_plan() {
    let mut stream = Vec::new();
    for round in 0..4i64 {
        for shape in 0..17u8 {
            let l = [Lit::Int(round * 3 + 1), Lit::Int(round + 2), Lit::Int(40 - round)];
            stream.push(render(shape, &l, 2, 1));
        }
    }
    let hits = check_stream(&stream);
    // rounds 0 and 1 plan each shape, rounds 2 and 3 hit
    assert_eq!(hits, 2 * 17, "every shape hits from its third execution on");
}

fn last_plan(s: &Session) -> (u64, u64) {
    let c = s.last_cost();
    (c.plan_hits, c.plan_misses)
}

/// Warm `sql` into the session's cache: two plannings, then a hit.
fn warm(s: &mut Session, sql: &str) {
    s.execute(sql).unwrap();
    s.execute(sql).unwrap();
    s.execute(sql).unwrap();
    assert_eq!(last_plan(s), (1, 0), "warmed: {sql}");
}

/// CREATE INDEX (from another backend) invalidates the plan; the replan
/// picks the new index up.
#[test]
fn create_index_replans_with_the_index() {
    let (e, mut s) = engine_with_data();
    let q = "SELECT k FROM t WHERE s = 's3' ORDER BY k";
    warm(&mut s, q);
    let seq = s.last_cost();
    let mut other = e.session().unwrap();
    other.execute("CREATE INDEX t_s ON t (s)").unwrap();
    let before = s.execute(q).unwrap();
    assert_eq!(last_plan(&s), (0, 1), "catalog change: the cached plan is stale");
    let idx = s.last_cost();
    assert!(idx.rows_processed < seq.rows_processed, "the replan probes the new index");
    assert_eq!(s.execute(q).unwrap(), before);
    assert_eq!(last_plan(&s), (1, 0), "the new plan is cached again");
}

/// DROP + re-CREATE of a table under the same name: a stale plan would scan
/// the dropped table's storage.
#[test]
fn drop_and_recreate_replans() {
    let (_e, mut s) = engine_with_data();
    let q = "SELECT count(*), sum(w) FROM u WHERE k < 5";
    warm(&mut s, q);
    s.execute("DROP TABLE u").unwrap();
    s.execute("CREATE TABLE u (k bigint PRIMARY KEY, w bigint)").unwrap();
    s.execute("INSERT INTO u VALUES (1, 100)").unwrap();
    let r = s.execute(q).unwrap();
    assert_eq!(r.rows(), &[vec![Datum::Int(1), Datum::Int(100)]]);
    assert_eq!(last_plan(&s), (0, 1));
}

/// Columnar conversion swaps a table's storage: plans built for the heap
/// are stale.
#[test]
fn columnar_conversion_replans() {
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    s.execute("CREATE TABLE c (g bigint, x bigint)").unwrap();
    let q = "SELECT g, sum(x) FROM c WHERE x > 0 GROUP BY g ORDER BY 1";
    warm(&mut s, q);
    e.set_columnar("c").unwrap();
    s.execute("INSERT INTO c VALUES (1, 5), (1, 6), (2, 7)").unwrap();
    let r = s.execute(q).unwrap();
    assert_eq!(last_plan(&s), (0, 1), "conversion invalidated the heap plan");
    assert_eq!(
        r.rows(),
        &[vec![Datum::Int(1), Datum::Int(11)], vec![Datum::Int(2), Datum::Int(7)]]
    );
    assert!(s.last_cost().batches > 0, "the replan scans the columnar store");
}

/// Engine-wide invalidation reaches every backend.
#[test]
fn invalidate_generic_plans_reaches_every_backend() {
    let (e, mut s) = engine_with_data();
    let mut s2 = e.session().unwrap();
    let q = "SELECT v FROM t WHERE k = 3";
    warm(&mut s, q);
    warm(&mut s2, q);
    e.invalidate_generic_plans();
    s.execute(q).unwrap();
    assert_eq!(last_plan(&s), (0, 1));
    s2.execute(q).unwrap();
    assert_eq!(last_plan(&s2), (0, 1));
}
