//! IN and NOT IN over distributed subqueries, run through the cluster: the
//! coordinator runs the subquery as a subplan and ships its values to every
//! shard task as a literal list, each distinct value once. Results are
//! checked against answers computed here from the loaded rows — repeated
//! values, NULLs, short lists (bound as IN-lists on the workers) and long
//! ones (bound as hashed sets).

use citrus::cluster::{Cluster, ClusterConfig};
use pgmini::types::Datum;
use std::sync::Arc;

/// `events.tenant` for event `id`: NULL for every tenth event.
fn tenant(id: i64) -> Option<i64> {
    (id % 10 != 0).then_some(id % 12)
}

/// `marks` rows `(id, ref)`: three groups of subquery results.
fn marks() -> Vec<(i64, Option<i64>)> {
    let mut m = vec![
        // short, repeated values and a NULL
        (1, Some(3)),
        (2, Some(3)),
        (3, Some(5)),
        (4, None),
        (5, Some(5)),
        (6, Some(7)),
        (7, Some(3)),
    ];
    // 40 values, only 4 distinct
    m.extend((101..=140).map(|id| (id, Some(id % 4))));
    // 50 distinct values, 10 of them twice, then a NULL
    m.extend((201..=250).map(|id| (id, Some(id - 200))));
    m.extend((251..=260).map(|id| (id, Some(id - 250))));
    m.push((261, None));
    m
}

fn cluster() -> Arc<Cluster> {
    let cfg = ClusterConfig {
        shard_count: 8,
        ..ClusterConfig::default()
    };
    let c = Cluster::new(cfg);
    for _ in 0..3 {
        c.add_worker().unwrap();
    }
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE events (id bigint, tenant bigint)")
        .unwrap();
    s.execute("SELECT create_distributed_table('events', 'id')")
        .unwrap();
    s.execute("CREATE TABLE marks (id bigint, ref bigint)")
        .unwrap();
    s.execute("SELECT create_distributed_table('marks', 'id')")
        .unwrap();
    let o = |v: Option<i64>| v.map_or("NULL".to_string(), |v| v.to_string());
    let ev: Vec<String> = (1..=60)
        .map(|id| format!("({id}, {})", o(tenant(id))))
        .collect();
    s.execute(&format!("INSERT INTO events VALUES {}", ev.join(", ")))
        .unwrap();
    let mk: Vec<String> = marks()
        .iter()
        .map(|(id, r)| format!("({id}, {})", o(*r)))
        .collect();
    s.execute(&format!("INSERT INTO marks VALUES {}", mk.join(", ")))
        .unwrap();
    c
}

/// The subquery's values: `ref` of the marks with ids in `ids`.
fn refs(ids: std::ops::RangeInclusive<i64>) -> Vec<Option<i64>> {
    marks()
        .into_iter()
        .filter(|(id, _)| ids.contains(id))
        .map(|(_, r)| r)
        .collect()
}

/// Event ids where `tenant IN refs` (or `NOT IN`) is true, by SQL's
/// three-valued rules: a NULL tenant is never in or not in anything, and
/// `NOT IN` a list holding a NULL is never true.
fn expected(refs: &[Option<i64>], negated: bool) -> Vec<Datum> {
    let has_null = refs.contains(&None);
    (1..=60)
        .filter(|&id| match tenant(id) {
            None => false,
            Some(t) => {
                let hit = refs.contains(&Some(t));
                if negated {
                    !hit && !has_null
                } else {
                    hit
                }
            }
        })
        .map(Datum::Int)
        .collect()
}

fn ids(c: &Arc<Cluster>, sql: &str) -> Vec<Datum> {
    let mut s = c.session().unwrap();
    s.execute(sql)
        .unwrap_or_else(|e| panic!("{sql}: {e:?}"))
        .rows()
        .iter()
        .map(|r| r[0].clone())
        .collect()
}

#[test]
fn in_and_not_in_subplans_match_hand_computed_answers() {
    let c = cluster();
    // (subquery filter, the values it selects)
    let cases: [(&str, Vec<Option<i64>>); 6] = [
        ("id <= 7", refs(1..=7)),
        (
            "id <= 7 AND ref IS NOT NULL",
            refs(1..=7).into_iter().filter(Option::is_some).collect(),
        ),
        ("id BETWEEN 101 AND 140", refs(101..=140)),
        ("id BETWEEN 201 AND 260", refs(201..=260)),
        ("id BETWEEN 201 AND 261", refs(201..=261)),
        ("id BETWEEN 1 AND 261", refs(1..=261)),
    ];
    for (filter, values) in &cases {
        for negated in [false, true] {
            let op = if negated { "NOT IN" } else { "IN" };
            let sql = format!(
                "SELECT id FROM events WHERE tenant {op} \
                 (SELECT ref FROM marks WHERE {filter}) ORDER BY id"
            );
            assert_eq!(ids(&c, &sql), expected(values, negated), "{sql}");
        }
    }
    // the answers are not vacuous
    assert_eq!(expected(&refs(1..=7), false).len(), 15);
    assert!(expected(&refs(1..=7), true).is_empty());
    assert_eq!(expected(&refs(101..=140), true).len(), 36);
}

#[test]
fn repeated_subplan_values_do_not_repeat_rows() {
    let c = cluster();
    // a count over the IN-filtered rows: duplicates in the subquery result
    // must not multiply them
    let sql = "SELECT count(*) FROM events WHERE tenant IN (SELECT ref FROM marks)";
    let want = expected(&refs(1..=261), false).len() as i64;
    assert_eq!(ids(&c, sql), vec![Datum::Int(want)]);
}

#[test]
fn each_subplan_value_ships_once() {
    let c = cluster();
    let mut s = c.session().unwrap();
    let plan = s
        .execute(
            "EXPLAIN SELECT id FROM events WHERE tenant IN (SELECT ref FROM marks WHERE id <= 7)",
        )
        .unwrap();
    let mut tasks = 0;
    for row in plan.rows() {
        let line = row[0].to_text();
        let Some((_, list)) = line.split_once("tenant IN (") else {
            continue;
        };
        let list = list.trim_end_matches(')');
        let mut items: Vec<&str> = list.split(", ").collect();
        assert_eq!(items.len(), 4, "3, 5, 7 and one NULL: {line}");
        items.sort_unstable();
        assert_eq!(items, vec!["3", "5", "7", "NULL"], "{line}");
        tasks += 1;
    }
    assert_eq!(tasks, 8, "one line per shard task");
}
