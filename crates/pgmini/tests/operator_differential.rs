//! Row operators against independent references: every join kind against a
//! naive nested-loop join written here, column-pruned heap scans and
//! constant IN-sets against hand-computed answers, and each statement's
//! simulated cost (rows, CPU) against the values the engine charged before
//! its hash tables and scans were rewritten for host speed.
//!
//! The reference joins use only SQL's definition of an equi-join — every
//! (left, right) pair whose keys are non-NULL and equal, in left-input then
//! right-input order, outer joins padding the unmatched side — so they share
//! no code with the executor beyond `Datum`'s comparison.

use pgmini::engine::Engine;
use pgmini::session::Session;
use pgmini::types::Datum;
use std::cmp::Ordering;
use std::sync::Arc;

fn engine(script: &str) -> Arc<Engine> {
    let e = Engine::new_default();
    e.session().unwrap().execute_script(script).unwrap();
    e
}

fn rows(s: &mut Session, sql: &str) -> Vec<Vec<Datum>> {
    s.execute(sql)
        .unwrap_or_else(|e| panic!("{sql}: {e:?}"))
        .into_rows()
}

fn int(v: i64) -> Datum {
    Datum::Int(v)
}

fn opt(v: Option<i64>) -> Datum {
    v.map_or(Datum::Null, Datum::Int)
}

fn text(s: &str) -> Datum {
    Datum::from_text(s)
}

/// SQL equality of two join keys: no NULLs, every column equal.
fn keys_match(a: &[Datum], b: &[Datum]) -> bool {
    a.iter()
        .zip(b)
        .all(|(x, y)| !x.is_null() && !y.is_null() && x.total_cmp(y) == Ordering::Equal)
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Inner,
    Left,
    Right,
    Full,
}

impl Kind {
    const ALL: [Kind; 4] = [Kind::Inner, Kind::Left, Kind::Right, Kind::Full];

    fn sql(self) -> &'static str {
        match self {
            Kind::Inner => "JOIN",
            Kind::Left => "LEFT JOIN",
            Kind::Right => "RIGHT JOIN",
            Kind::Full => "FULL JOIN",
        }
    }
}

/// Nested-loop join of `left` and `right` (each a row with its join key),
/// emitting `out(l, r)` per result row; `extra` is a residual ON condition.
fn nested_loop(
    kind: Kind,
    left: &[(Vec<Datum>, Vec<Datum>)],
    right: &[(Vec<Datum>, Vec<Datum>)],
    extra: impl Fn(&[Datum], &[Datum]) -> bool,
    out: impl Fn(Option<&[Datum]>, Option<&[Datum]>) -> Vec<Datum>,
) -> Vec<Vec<Datum>> {
    let mut result = Vec::new();
    let mut right_used = vec![false; right.len()];
    for (lrow, lkey) in left {
        let mut used = false;
        for (ri, (rrow, rkey)) in right.iter().enumerate() {
            if keys_match(lkey, rkey) && extra(lrow, rrow) {
                used = true;
                right_used[ri] = true;
                result.push(out(Some(lrow), Some(rrow)));
            }
        }
        if !used && matches!(kind, Kind::Left | Kind::Full) {
            result.push(out(Some(lrow), None));
        }
    }
    if matches!(kind, Kind::Right | Kind::Full) {
        for (ri, (rrow, _)) in right.iter().enumerate() {
            if !right_used[ri] {
                result.push(out(None, Some(rrow)));
            }
        }
    }
    result
}

// l and r: duplicate keys on both sides, NULL keys on both sides, keys
// present on one side only
const L: &[(i64, Option<i64>, Option<&str>)] = &[
    (1, Some(1), Some("a")),
    (2, Some(2), Some("b")),
    (3, None, Some("c")),
    (4, Some(2), Some("b")),
    (5, Some(3), Some("x")),
    (6, Some(1), None),
    (7, Some(9), Some("z")),
    (8, Some(2), Some("q")),
];
const R: &[(i64, Option<i64>, Option<&str>)] = &[
    (10, Some(2), Some("b")),
    (11, Some(1), Some("a")),
    (12, None, Some("c")),
    (13, Some(2), Some("q")),
    (14, Some(4), Some("w")),
    (15, Some(1), Some("a")),
    (16, None, None),
    (17, Some(2), Some("b")),
];

fn lr_engine() -> Arc<Engine> {
    let values = |rows: &[(i64, Option<i64>, Option<&str>)]| {
        rows.iter()
            .map(|(id, k, t)| {
                let k = k.map_or("NULL".to_string(), |k| k.to_string());
                let t = t.map_or("NULL".to_string(), |t| format!("'{t}'"));
                format!("({id}, {k}, {t})")
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    engine(&format!(
        "CREATE TABLE l (id bigint, k bigint, t text);
         CREATE TABLE r (id bigint, k bigint, t text);
         INSERT INTO l VALUES {};
         INSERT INTO r VALUES {};",
        values(L),
        values(R)
    ))
}

fn side(
    rows: &[(i64, Option<i64>, Option<&str>)],
    key: impl Fn(Option<i64>, Option<&str>) -> Vec<Datum>,
) -> Vec<(Vec<Datum>, Vec<Datum>)> {
    rows.iter()
        .map(|&(id, k, t)| (vec![int(id)], key(k, t)))
        .collect()
}

fn id_pair(l: Option<&[Datum]>, r: Option<&[Datum]>) -> Vec<Datum> {
    vec![
        l.map_or(Datum::Null, |l| l[0].clone()),
        r.map_or(Datum::Null, |r| r[0].clone()),
    ]
}

#[test]
fn single_key_joins_of_every_kind_match_nested_loop() {
    let e = lr_engine();
    let mut s = e.session().unwrap();
    let key = |k: Option<i64>, _: Option<&str>| vec![opt(k)];
    for kind in Kind::ALL {
        let sql = format!("SELECT l.id, r.id FROM l {} r ON l.k = r.k", kind.sql());
        let want = nested_loop(kind, &side(L, key), &side(R, key), |_, _| true, id_pair);
        assert_eq!(rows(&mut s, &sql), want, "{sql}");
    }
}

#[test]
fn two_key_joins_of_every_kind_match_nested_loop() {
    let e = lr_engine();
    let mut s = e.session().unwrap();
    let key = |k: Option<i64>, t: Option<&str>| vec![opt(k), t.map_or(Datum::Null, text)];
    for kind in Kind::ALL {
        let sql = format!(
            "SELECT l.id, r.id FROM l {} r ON l.k = r.k AND l.t = r.t",
            kind.sql()
        );
        let want = nested_loop(kind, &side(L, key), &side(R, key), |_, _| true, id_pair);
        assert_eq!(rows(&mut s, &sql), want, "{sql}");
    }
}

#[test]
fn residual_on_conditions_and_expression_keys_match_nested_loop() {
    let e = lr_engine();
    let mut s = e.session().unwrap();
    let key = |k: Option<i64>, _: Option<&str>| vec![opt(k)];
    // a key match whose residual fails leaves an outer row unmatched
    for kind in [Kind::Inner, Kind::Left] {
        let sql = format!(
            "SELECT l.id, r.id FROM l {} r ON l.k = r.k AND l.id + 10 < r.id",
            kind.sql()
        );
        let extra = |l: &[Datum], r: &[Datum]| l[0].as_i64().unwrap() + 10 < r[0].as_i64().unwrap();
        let want = nested_loop(kind, &side(L, key), &side(R, key), extra, id_pair);
        assert_eq!(rows(&mut s, &sql), want, "{sql}");
    }
    // keys that are expressions, not columns
    let lkey = |k: Option<i64>, _: Option<&str>| vec![opt(k.map(|k| k + 1))];
    let sql = "SELECT l.id, r.id FROM l JOIN r ON l.k + 1 = r.k";
    let want = nested_loop(
        Kind::Inner,
        &side(L, lkey),
        &side(R, key),
        |_, _| true,
        id_pair,
    );
    assert_eq!(rows(&mut s, sql), want, "{sql}");
}

#[test]
fn keys_equal_only_across_types_join_as_before() {
    let e = engine(
        "CREATE TABLE ti (id bigint, k bigint);
         CREATE TABLE tf (id bigint, f float);
         INSERT INTO ti VALUES (1, 1), (2, 2), (3, 3), (4, NULL), (5, 1);
         INSERT INTO tf VALUES (10, 1.0), (11, 2.5), (12, 3.0), (13, 1.0), (14, NULL);
         CREATE TABLE tt (id bigint, d text);
         CREATE TABLE ts (id bigint, at timestamp);
         INSERT INTO tt VALUES (1, '2020-06-01'), (2, '2020-06-02 12:00:00'),
                               (3, 'not a date'), (4, '2020-06-03'), (5, NULL);
         INSERT INTO ts VALUES (10, '2020-06-01'), (11, '2020-06-02 12:00:00'),
                               (12, '2020-06-01 00:00:00'), (13, '2021-01-01');",
    );
    let mut s = e.session().unwrap();
    let pairs = |v: &[(Option<i64>, Option<i64>)]| -> Vec<Vec<Datum>> {
        v.iter().map(|&(a, b)| vec![opt(a), opt(b)]).collect()
    };
    // bigint 1 equals float 1.0; 2 matches nothing (2.5), 3 matches 3.0
    assert_eq!(
        rows(&mut s, "SELECT ti.id, tf.id FROM ti JOIN tf ON ti.k = tf.f"),
        pairs(&[
            (Some(1), Some(10)),
            (Some(1), Some(13)),
            (Some(3), Some(12)),
            (Some(5), Some(10)),
            (Some(5), Some(13))
        ])
    );
    assert_eq!(
        rows(
            &mut s,
            "SELECT ti.id, tf.id FROM ti FULL JOIN tf ON ti.k = tf.f"
        ),
        pairs(&[
            (Some(1), Some(10)),
            (Some(1), Some(13)),
            (Some(2), None),
            (Some(3), Some(12)),
            (Some(4), None),
            (Some(5), Some(10)),
            (Some(5), Some(13)),
            (None, Some(11)),
            (None, Some(14)),
        ])
    );
    // a text that reads as a timestamp equals that timestamp, whatever its
    // spelling; build on the timestamp side and on the text side
    assert_eq!(
        rows(
            &mut s,
            "SELECT tt.id, ts.id FROM tt LEFT JOIN ts ON tt.d = ts.at"
        ),
        pairs(&[
            (Some(1), Some(10)),
            (Some(1), Some(12)),
            (Some(2), Some(11)),
            (Some(3), None),
            (Some(4), None),
            (Some(5), None),
        ])
    );
    assert_eq!(
        rows(
            &mut s,
            "SELECT ts.id, tt.id FROM ts JOIN tt ON ts.at = tt.d"
        ),
        pairs(&[
            (Some(10), Some(1)),
            (Some(11), Some(2)),
            (Some(12), Some(1))
        ])
    );
}

// a × b has no join condition; both join c, so the cross product is the
// probe side of the hash join with c
const A: &[(Option<i64>, &str)] = &[
    (Some(1), "a1"),
    (Some(2), "a2"),
    (None, "a3"),
    (Some(1), "a4"),
];
const B: &[Option<i64>] = &[Some(10), Some(20), None];
const C: &[(Option<i64>, Option<i64>, i64)] = &[
    (Some(1), Some(10), 100),
    (Some(2), Some(20), 200),
    (Some(1), Some(10), 101),
    (Some(2), Some(10), 210),
    (None, Some(10), 300),
    (Some(0), Some(0), 400),
];

fn abc_engine() -> Arc<Engine> {
    let o = |v: Option<i64>| v.map_or("NULL".to_string(), |v| v.to_string());
    let a: Vec<String> = A
        .iter()
        .map(|(x, n)| format!("({}, '{n}')", o(*x)))
        .collect();
    let b: Vec<String> = B.iter().map(|y| format!("({})", o(*y))).collect();
    let c: Vec<String> = C
        .iter()
        .map(|(x, y, v)| format!("({}, {}, {v})", o(*x), o(*y)))
        .collect();
    engine(&format!(
        "CREATE TABLE a (x bigint, name text);
         CREATE TABLE b (y bigint);
         CREATE TABLE c (x bigint, y bigint, v bigint);
         INSERT INTO a VALUES {};
         INSERT INTO b VALUES {};
         INSERT INTO c VALUES {};",
        a.join(", "),
        b.join(", "),
        c.join(", ")
    ))
}

/// Triple nested loop over a × b × c, keeping the triples `pred` accepts.
fn abc_reference(
    pred: impl Fn(Option<i64>, Option<i64>, Option<i64>, Option<i64>) -> bool,
) -> Vec<Vec<Datum>> {
    let mut out = Vec::new();
    for &(ax, name) in A {
        for &by in B {
            for &(cx, cy, v) in C {
                if pred(ax, by, cx, cy) {
                    out.push(vec![text(name), opt(by), int(v)]);
                }
            }
        }
    }
    out
}

fn eq(a: Option<i64>, b: Option<i64>) -> bool {
    matches!((a, b), (Some(a), Some(b)) if a == b)
}

#[test]
fn cross_product_probing_a_hash_join_matches_nested_loop() {
    let e = abc_engine();
    let mut s = e.session().unwrap();
    let sql = "SELECT a.name, b.y, c.v FROM a, b, c WHERE a.x = c.x AND b.y = c.y";
    let want = abc_reference(|ax, by, cx, cy| eq(ax, cx) && eq(by, cy));
    assert_eq!(
        want.len(),
        6,
        "the reference itself: a1 and a4 twice, a2 twice"
    );
    assert_eq!(rows(&mut s, sql), want, "{sql}");
    // a key computed from both halves of the cross product
    let sql = "SELECT a.name, b.y, c.v FROM a, b, c WHERE b.y - a.x * 10 = c.y";
    let want = abc_reference(|ax, by, _, cy| eq(ax.zip(by).map(|(ax, by)| by - ax * 10), cy));
    assert!(!want.is_empty());
    assert_eq!(rows(&mut s, sql), want, "{sql}");
    // a residual condition on top of the keys
    let sql = "SELECT a.name, b.y, c.v FROM a, b, c \
               WHERE a.x = c.x AND b.y = c.y AND c.v > a.x * 100 + 50";
    let want: Vec<Vec<Datum>> = abc_reference(|ax, by, cx, cy| eq(ax, cx) && eq(by, cy))
        .into_iter()
        .filter(|r| {
            let name = r[0].as_str().unwrap();
            let ax = A.iter().find(|(_, n)| *n == name).unwrap().0.unwrap();
            r[2].as_i64().unwrap() > ax * 100 + 50
        })
        .collect();
    assert_eq!(rows(&mut s, sql), want, "{sql}");
    // a cross product nobody joins stays a plain nested loop
    let n = rows(&mut s, "SELECT a.name, b.y FROM a, b").len();
    assert_eq!(n, A.len() * B.len());
}

fn emp_engine() -> Arc<Engine> {
    engine(
        "CREATE TABLE emp (id bigint, dept text, sal bigint, note text, hired timestamp);
         CREATE TABLE dept (name text, budget bigint, floor bigint);
         INSERT INTO emp VALUES
            (1, 'eng', 30, 'x-ray', '2020-01-01'),
            (2, 'ops', 10, 'alpha', '2020-02-01'),
            (3, 'eng', 25, NULL, '2020-03-01'),
            (4, 'sales', 15, 'max', '2020-04-01'),
            (5, 'ops', 22, 'zulu', '2020-05-01'),
            (6, 'eng', 5, 'box', '2020-06-01');
         INSERT INTO dept VALUES ('eng', 100, 3), ('ops', 50, 1), ('hr', 10, 2);",
    )
}

#[test]
fn pruned_heap_scans_keep_every_column_a_query_reads() {
    let e = emp_engine();
    let mut s = e.session().unwrap();
    // `*` reads every column
    assert_eq!(
        rows(&mut s, "SELECT * FROM emp WHERE sal > 24 ORDER BY id"),
        vec![
            vec![
                int(1),
                text("eng"),
                int(30),
                text("x-ray"),
                Datum::Timestamp(1_577_836_800_000_000)
            ],
            vec![
                int(3),
                text("eng"),
                int(25),
                Datum::Null,
                Datum::Timestamp(1_583_020_800_000_000)
            ],
        ]
    );
    // hidden ORDER BY column, NULLs sort last ascending, first descending
    let ids =
        |v: Vec<Vec<Datum>>| -> Vec<i64> { v.iter().map(|r| r[0].as_i64().unwrap()).collect() };
    assert_eq!(
        ids(rows(&mut s, "SELECT id FROM emp ORDER BY note")),
        vec![2, 6, 4, 1, 5, 3]
    );
    assert_eq!(
        ids(rows(&mut s, "SELECT id FROM emp ORDER BY note DESC")),
        vec![3, 5, 1, 4, 6, 2]
    );
    assert_eq!(
        ids(rows(
            &mut s,
            "SELECT id FROM emp ORDER BY hired DESC LIMIT 2"
        )),
        vec![6, 5]
    );
    // HAVING over an aggregate of a column the output never shows
    assert_eq!(
        rows(
            &mut s,
            "SELECT dept, count(*) FROM emp GROUP BY dept HAVING max(sal) > 20 ORDER BY 1"
        ),
        vec![vec![text("eng"), int(3)], vec![text("ops"), int(2)]]
    );
    // GROUP BY / ORDER BY ordinals
    assert_eq!(
        rows(
            &mut s,
            "SELECT dept, sum(sal) FROM emp GROUP BY 1 ORDER BY 2 DESC"
        ),
        vec![
            vec![text("eng"), int(60)],
            vec![text("ops"), int(32)],
            vec![text("sales"), int(15)],
        ]
    );
    // filter and join key columns that are not projected
    assert_eq!(
        rows(
            &mut s,
            "SELECT e.id, d.budget FROM emp e JOIN dept d ON e.dept = d.name \
             WHERE e.note LIKE '%x%' ORDER BY e.id"
        ),
        vec![vec![int(1), int(100)], vec![int(6), int(100)]]
    );
    assert_eq!(
        rows(
            &mut s,
            "SELECT DISTINCT dept FROM emp WHERE hired >= '2020-03-01' ORDER BY dept"
        ),
        vec![vec![text("eng")], vec![text("ops")], vec![text("sales")]]
    );
    // a derived table passes its projected columns through
    assert_eq!(
        ids(rows(
            &mut s,
            "SELECT q.i FROM (SELECT id AS i, sal FROM emp) q WHERE q.sal < 12 ORDER BY 1"
        )),
        vec![2, 6]
    );
    // writes read whole rows: the UPDATE keeps every column it does not set
    s.execute("UPDATE emp SET note = dept WHERE sal < 12")
        .unwrap();
    assert_eq!(
        rows(
            &mut s,
            "SELECT id, dept, sal, note FROM emp WHERE sal < 12 ORDER BY id"
        ),
        vec![
            vec![int(2), text("ops"), int(10), text("ops")],
            vec![int(6), text("eng"), int(5), text("eng")],
        ]
    );
    s.execute("CREATE TABLE emp2 (id bigint, dept text, sal bigint, note text, hired timestamp)")
        .unwrap();
    s.execute("INSERT INTO emp2 SELECT * FROM emp WHERE dept = 'ops'")
        .unwrap();
    assert_eq!(
        rows(&mut s, "SELECT * FROM emp2 ORDER BY id"),
        rows(&mut s, "SELECT * FROM emp WHERE dept = 'ops' ORDER BY id")
    );
}

/// A literal list of more than 32 items, which the binder compiles into a
/// hashed set: `head` first, then `pad` values no row holds.
fn long_list(head: &[&str]) -> String {
    let mut items: Vec<String> = head.iter().map(|s| s.to_string()).collect();
    items.extend((0..40).map(|i| (1000 + i).to_string()));
    items.join(", ")
}

#[test]
fn constant_in_sets_with_duplicates_and_nulls() {
    let e = engine(
        "CREATE TABLE n (id bigint, v bigint, at timestamp);
         INSERT INTO n VALUES (1, 1, '2020-06-01'), (2, 2, '2020-06-02'), (3, 3, '2020-06-03'),
                              (4, NULL, NULL), (5, 2, '2020-06-05');",
    );
    let mut s = e.session().unwrap();
    let ids = |s: &mut Session, sql: &str| -> Vec<i64> {
        rows(s, sql)
            .iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect()
    };
    let dups = long_list(&["2", "2", "3", "2", "3"]);
    assert_eq!(
        ids(&mut s, &format!("SELECT id FROM n WHERE v IN ({dups})")),
        vec![2, 3, 5]
    );
    assert_eq!(
        ids(&mut s, &format!("SELECT id FROM n WHERE v NOT IN ({dups})")),
        vec![1]
    );
    // a NULL item: IN keeps its matches, NOT IN is never true
    let with_null = long_list(&["1", "NULL", "1", "NULL"]);
    assert_eq!(
        ids(
            &mut s,
            &format!("SELECT id FROM n WHERE v IN ({with_null})")
        ),
        vec![1]
    );
    assert!(ids(
        &mut s,
        &format!("SELECT id FROM n WHERE v NOT IN ({with_null})")
    )
    .is_empty());
    // ... and the three-valued result itself
    assert_eq!(
        rows(&mut s, &format!("SELECT v IN ({with_null}), v NOT IN ({with_null}) FROM n WHERE id <= 2 ORDER BY id")),
        vec![vec![Datum::Bool(true), Datum::Bool(false)], vec![Datum::Null, Datum::Null]]
    );
    // float items equal integer values
    let floats = long_list(&["3.0", "1.5", "3.0"]);
    assert_eq!(
        ids(&mut s, &format!("SELECT id FROM n WHERE v IN ({floats})")),
        vec![3]
    );
    // text items equal the timestamps they spell
    let dates = long_list(&["'2020-06-02'", "'2020-06-05 00:00:00'", "'2020-06-02'"]);
    assert_eq!(
        ids(&mut s, &format!("SELECT id FROM n WHERE at IN ({dates})")),
        vec![2, 5]
    );
}

/// Per statement: (rows processed, simulated CPU ms) as the engine charged
/// them with ordered-map joins and unpruned scans. Host-speed changes to the
/// operators must leave every one bit-identical.
const COSTS: &[(&str, u64, f64)] = &[
    (
        "SELECT l.id, r.id FROM l JOIN r ON l.k = r.k",
        58,
        0.07900000000000001,
    ),
    (
        "SELECT l.id, r.id FROM l LEFT JOIN r ON l.k = r.k AND l.t = r.t",
        54,
        0.07700000000000001,
    ),
    (
        "SELECT l.id, r.id FROM l FULL JOIN r ON l.k = r.k",
        70,
        0.085,
    ),
    (
        "SELECT l.id, r.id FROM l RIGHT JOIN r ON l.k + 1 = r.k",
        54,
        0.07700000000000001,
    ),
    (
        "SELECT a.name, b.y, c.v FROM a, b, c WHERE a.x = c.x AND b.y = c.y",
        55,
        0.07750000000000001,
    ),
    (
        "SELECT a.name, b.y, c.v FROM a, b, c WHERE b.y - a.x * 10 = c.y",
        65,
        0.0825,
    ),
    ("SELECT a.name, b.y FROM a, b", 31, 0.0655),
    (
        "SELECT * FROM emp WHERE sal > 24 ORDER BY id",
        8,
        0.05500000000000001,
    ),
    (
        "SELECT dept, count(*) FROM emp GROUP BY dept HAVING max(sal) > 20 ORDER BY 1",
        14,
        0.05800000000000001,
    ),
    (
        "SELECT e.id, d.budget FROM emp e JOIN dept d ON e.dept = d.name WHERE e.note LIKE '%x%'",
        19,
        0.05950000000000001,
    ),
];

#[test]
fn simulated_cost_per_statement_is_unchanged() {
    let script = |e: &Arc<Engine>, sql: &str| {
        let mut s = e.session().unwrap();
        s.execute(sql).unwrap();
        s
    };
    let lr = lr_engine();
    let abc = abc_engine();
    let emp = emp_engine();
    let mut got = Vec::new();
    for &(sql, _, _) in COSTS {
        let e = if sql.contains(" l ") {
            &lr
        } else if sql.contains(" a,") {
            &abc
        } else {
            &emp
        };
        // a fresh session plans the statement (no cached plan) every time
        let c = script(e, sql).last_cost();
        got.push((sql, c.rows_processed, c.cpu_ms));
    }
    let listing: String = got
        .iter()
        .map(|(sql, r, c)| format!("    (\"{sql}\", {r}, {c:?}),\n"))
        .collect();
    for (&(sql, rows, cpu), &(_, got_rows, got_cpu)) in COSTS.iter().zip(&got) {
        assert!(
            rows == got_rows && cpu.to_bits() == got_cpu.to_bits(),
            "{sql}: want ({rows}, {cpu:?}), got ({got_rows}, {got_cpu:?}); all:\n{listing}"
        );
    }
}
