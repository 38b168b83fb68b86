//! Turning a [`Measured`] run into named metrics and the result line.

use crate::spans::SpanTotals;
use crate::suite::Kind;
use crate::Measured;
use netsim::mva::{self, Station};
use std::collections::BTreeMap;
use workloads::patterns::scale_requirements;

/// End-to-end metrics, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 9] = [
    ("throughput_units_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("vthroughput_units_vs", "1/vs"),
    ("vlatency_p50_ms", "vms"),
    ("vlatency_tail_ms", "vms"),
    ("vcapacity_units_s", "1/vs"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by a traced run.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("workloads.gen_us_per_unit", "us"),
    ("sqlparse.parse_us_per_stmt", "us"),
    ("sqlparse.deparse_us_per_task", "us"),
    ("planner.plan_us_per_stmt", "us"),
    ("planner.unplanned_per_unit", "count"),
    ("planner.cache_hit_rate", "ratio"),
    ("planner.tier_fast_path_per_unit", "count"),
    ("planner.tier_router_per_unit", "count"),
    ("planner.tier_pushdown_per_unit", "count"),
    ("planner.tier_join_order_per_unit", "count"),
    ("planner.origin_cpu_ms_per_unit", "vms"),
    ("execute.begin_us", "us"),
    ("execute.select_us", "us"),
    ("execute.insert_us", "us"),
    ("execute.update_us", "us"),
    ("execute.delete_us", "us"),
    ("execute.commit_us", "us"),
    ("execute.copy_us", "us"),
    ("execute.insert_select_us", "us"),
    ("executor.exchanges_per_unit", "count"),
    ("executor.coalesced_per_unit", "count"),
    ("executor.local_tasks_per_unit", "count"),
    ("netsim.rtts_per_unit", "count"),
    ("netsim.net_ms_per_unit", "vms"),
    ("pgmini.worker_cpu_ms_per_unit", "vms"),
    ("pgmini.worker_io_ms_per_unit", "vms"),
    ("pgmini.rows_per_unit", "count"),
    ("pgmini.batches_per_unit", "count"),
    ("pgmini.node_demand_max_share", "ratio"),
    ("buffer.pages_read_per_unit", "count"),
    ("buffer.miss_ratio", "ratio"),
    ("commit.us", "us"),
    ("commit.twopc_frac", "ratio"),
    ("wal.records_per_unit", "count"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("copy.us_per_row", "us"),
    ("insert_select.us_per_row", "us"),
    ("rollup.drain_read_us", "us"),
    ("rollup.read_us", "us"),
    ("rollup.deltas_per_drain", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.parse_plan_share", "ratio"),
    ("failed_frac", "ratio"),
    ("statement_shapes", "count"),
];

/// Per-layer metrics of the calls only `rta_ingest` makes (COPY,
/// INSERT..SELECT, rollup reads). The other workloads never make them, so
/// they leave these out rather than report a constant 0.
pub const RTA_ONLY: [&str; 7] = [
    "execute.copy_us",
    "execute.insert_select_us",
    "copy.us_per_row",
    "insert_select.us_per_row",
    "rollup.drain_read_us",
    "rollup.read_us",
    "rollup.deltas_per_drain",
];

/// Whether a per-layer metric is reported for workload `kind`.
pub fn reports(kind: Kind, name: &str) -> bool {
    kind == Kind::RtaIngest || !RTA_ONLY.contains(&name)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nearest-rank percentile of an unsorted sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Median unit of a mix of unit kinds: each kind stands at its own median,
/// weighted by how many units of it ran. Where the plain median falls in
/// the gap between two kinds (short Payment and long NewOrder transactions,
/// the 9th and 10th of 18 queries), noise inside a kind would otherwise
/// move it across the gap.
pub fn kind_median(values: &[f64], kinds: &[usize]) -> f64 {
    let mut by_kind: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (v, k) in values.iter().zip(kinds) {
        by_kind.entry(*k).or_default().push(*v);
    }
    let mut medians: Vec<(f64, usize)> = by_kind.values().map(|v| (median(v), v.len())).collect();
    medians.sort_by(|a, b| a.0.total_cmp(&b.0));
    let rank = values.len().div_ceil(2);
    let mut seen = 0;
    for (m, n) in &medians {
        seen += n;
        if seen >= rank {
            return *m;
        }
    }
    0.0
}

/// Wall-clock per-unit median: the mean over consecutive blocks of `mix`
/// units, each holding the exact mix of unit kinds, of the block's
/// [`kind_median`]. The host's speed switches between two levels every few
/// seconds; a median over the whole run lands on one level or the other as
/// the share of slow time crosses a half, the mean of short blocks' medians
/// moves with that share. Falls back to the whole run's median when no
/// block is whole.
pub fn block_median(values: &[f64], kinds: &[usize], mix: usize) -> f64 {
    let medians: Vec<f64> = values
        .chunks_exact(mix.max(1))
        .zip(kinds.chunks_exact(mix.max(1)))
        .map(|(v, k)| kind_median(v, k))
        .collect();
    if medians.is_empty() {
        kind_median(values, kinds)
    } else {
        medians.iter().sum::<f64>() / medians.len() as f64
    }
}

/// The highest percentile of the ladder that leaves at least ten of `n`
/// samples beyond it. The ladder stops at p99.5: above it the TPC-C
/// virtual latency is the cost of the largest transaction shape, the same
/// constant in every run.
pub fn tail_quantile(n: u64) -> f64 {
    const LADDER: [f64; 7] = [0.5, 0.75, 0.8, 0.9, 0.95, 0.99, 0.995];
    LADDER
        .into_iter()
        .rev()
        .find(|q| n as f64 * (1.0 - q) >= 10.0)
        .unwrap_or(0.5)
}

/// Tail percentile `q` of consecutive units: the median of `q` over blocks
/// that each leave ten units beyond it, when there are at least three such
/// blocks, so one burst of outside interference moves one block's tail;
/// otherwise `q` over all of them.
pub fn block_tail(values: &[f64], q: f64) -> f64 {
    let block = (10.0 / (1.0 - q)).ceil() as usize;
    let tails: Vec<f64> = values
        .chunks_exact(block)
        .map(|c| percentile(c, q))
        .collect();
    if tails.len() >= 3 {
        median(&tails)
    } else {
        percentile(values, q)
    }
}

/// MVA closed-loop throughput (units per virtual second) at the largest
/// client count whose mean response stays within `limit_ms`; at one client
/// when even that exceeds it.
pub fn capacity(m: &Measured, limit_ms: f64) -> f64 {
    let units = m.min_units.max(1) as f64;
    let mut stations = Vec::new();
    for (node, (cpu, io)) in &m.ledger.demand {
        if *cpu > 0.0 {
            stations.push(Station::queueing(
                &format!("cpu{node}"),
                cpu / units,
                m.node_cores,
            ));
        }
        if *io > 0.0 {
            stations.push(Station::queueing(&format!("disk{node}"), io / units, 1));
        }
    }
    if m.ledger.net_ms > 0.0 {
        stations.push(Station::delay("net", m.ledger.net_ms / units));
    }
    if stations.is_empty() {
        return 0.0;
    }
    let (mut lo, mut hi) = (1u32, 1u32 << 14);
    if mva::solve(&stations, hi, 0.0).response_ms <= limit_ms {
        lo = hi;
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if mva::solve(&stations, mid, 0.0).response_ms <= limit_ms {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    mva::solve(&stations, lo, 0.0).throughput_per_sec
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // fields after the parenthesised command name; utime and stime are the
    // 12th and 13th of them, in clock ticks (100 per second on Linux)
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// High-water resident set of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

pub fn attempted(m: &Measured) -> u64 {
    m.unit_wall_ms.len() as u64
}

pub fn failed(m: &Measured) -> u64 {
    (m.errors + m.verdict.failed_units).min(attempted(m))
}

/// Wall ms of the first `min_units` units: the same work in every run.
/// TPC-C tables grow as it runs, so units past a fixed count would make the
/// figures depend on how fast the host got through them.
pub fn measured_wall(m: &Measured) -> Vec<f64> {
    m.unit_wall_ms
        .iter()
        .take(m.min_units as usize)
        .map(|(w, _)| *w)
        .collect()
}

pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let wall = measured_wall(m);
    let q = tail_quantile(m.min_units);
    let vsum: f64 = m.unit_vms.iter().sum();
    let limit = scale_requirements(m.kind.pattern()).typical_latency_ms;
    let values = [
        ratio(wall.len() as f64 * 1e3, wall.iter().sum()),
        block_median(&wall, &m.unit_kind, m.mix_len as usize),
        block_tail(&wall, q),
        ratio(m.unit_vms.len() as f64 * 1e3, vsum),
        kind_median(&m.unit_vms, &m.unit_kind),
        percentile(&m.unit_vms, q),
        capacity(m, limit),
        median(&m.setup_s),
        m.peak_rss_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

pub fn per_layer(m: &Measured) -> Vec<Metric> {
    let t: BTreeMap<&str, SpanTotals> = m.spans.totals();
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let us = |ns: u64| ns as f64 / 1e3;
    let mean_us = |name: &str| {
        let s = get(name);
        ratio(us(s.total_ns), s.count as f64)
    };
    let per_n_us = |name: &str| {
        let s = get(name);
        ratio(us(s.total_ns), s.n as f64)
    };
    let v = m.min_units.max(1) as f64;
    let c = &m.counters;
    let l = &m.ledger;
    let tally = &m.tally;
    let tier_total: u64 = c.tiers.iter().sum();
    let per_unit = |x: f64| x / v;

    let unit = get("unit");
    let exec_ns: u64 = t
        .iter()
        .filter(|(k, _)| k.starts_with("execute.") || k.starts_with("rollup."))
        .map(|(_, s)| s.total_ns)
        .sum();
    let parse_plan_ns = get("sqlparse.parse").total_ns + get("planner.plan").total_ns;

    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for (w, tr) in &m.unit_wall_ms {
        if *tr {
            traced.push(*w)
        } else {
            untraced.push(*w)
        }
    }
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    let overhead = if traced.is_empty() || untraced.is_empty() {
        0.0
    } else {
        mean(&traced) / mean(&untraced) - 1.0
    };

    let node_total: f64 = l.demand.values().map(|(c, i)| c + i).sum();
    let node_max = l.demand.values().map(|(c, i)| c + i).fold(0.0, f64::max);
    let tiers = |k: usize| per_unit(c.tiers[k] as f64);

    let values: [f64; PER_LAYER.len()] = [
        ratio(us(unit.self_ns), unit.count as f64),
        mean_us("sqlparse.parse"),
        per_n_us("sqlparse.deparse"),
        mean_us("planner.plan"),
        ratio(tally.unplanned as f64, m.traced_accounted as f64),
        ratio(c.cache_hits as f64, tier_total as f64),
        tiers(0),
        tiers(1),
        tiers(2),
        tiers(3),
        per_unit(l.origin_cpu_ms),
        mean_us("execute.begin"),
        mean_us("execute.select"),
        mean_us("execute.insert"),
        mean_us("execute.update"),
        mean_us("execute.delete"),
        mean_us("execute.commit"),
        mean_us("execute.copy"),
        mean_us("execute.insert_select"),
        per_unit(c.exchanges as f64),
        per_unit(c.coalesced as f64),
        per_unit(c.local_tasks as f64),
        per_unit(ratio(l.net_ms, m.rtt_ms)),
        per_unit(l.net_ms),
        per_unit(l.worker_cpu_ms),
        per_unit(l.worker_io_ms),
        per_unit(l.rows as f64),
        per_unit(l.batches as f64),
        ratio(node_max, node_total),
        per_unit(l.pages_read as f64),
        ratio(l.page_misses as f64, l.pages_read as f64),
        mean_us("execute.commit"),
        ratio(tally.twopc_commits as f64, tally.commits as f64),
        per_unit(c.wal_records as f64),
        ratio(tally.wal_bytes as f64, tally.user_bytes as f64),
        per_n_us("execute.copy"),
        per_n_us("execute.insert_select"),
        mean_us("rollup.drain_read"),
        mean_us("rollup.read"),
        ratio(m.rollup_drains.1 as f64, m.rollup_drains.0 as f64),
        overhead,
        ratio(parse_plan_ns as f64, exec_ns as f64),
        ratio(failed(m) as f64, attempted(m) as f64),
        m.shapes as f64,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .filter(|(&(name, _), _)| reports(m.kind, name))
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

/// The metrics that must repeat exactly for a seed: every virtual-clock
/// and count metric (taken over the first `min_units` units).
pub fn deterministic(m: &Measured) -> Vec<Metric> {
    const WALL: [&str; 4] = [
        "throughput_units_s",
        "latency_p50_ms",
        "latency_tail_ms",
        "setup_s",
    ];
    let e2e = end_to_end(m)
        .into_iter()
        .filter(|x| !WALL.contains(&x.name) && x.name != "peak_rss_mb");
    let layer = per_layer(m)
        .into_iter()
        .filter(|x| x.unit == "count" || x.unit == "vms" || x.unit == "ratio");
    e2e.chain(layer)
        .filter(|x| !x.name.starts_with("trace."))
        .collect()
}

/// Self time per span name, per traced unit, for the report.
pub fn self_time_lines(m: &Measured) -> Vec<String> {
    let t = m.spans.totals();
    let units = t.get("unit").map(|s| s.count).unwrap_or(0).max(1) as f64;
    t.iter()
        .map(|(name, s)| {
            format!(
                "  {name:<24} calls/unit {:>8.2}  self us/unit {:>10.2}  total us/unit {:>10.2}",
                s.count as f64 / units,
                s.self_ns as f64 / 1e3 / units,
                s.total_ns as f64 / 1e3 / units
            )
        })
        .collect()
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// The result object: the last line of the benchmark's output.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn kind_median_weighs_kind_medians() {
        // 3 short units of kind 0, 2 long of kind 1: the median unit is short
        let v = [1.0, 1.2, 0.8, 9.0, 11.0];
        assert_eq!(kind_median(&v, &[0, 0, 0, 1, 1]), 1.0);
        assert_eq!(kind_median(&v, &[0, 1, 0, 1, 1]), 9.0);
    }

    #[test]
    fn block_median_averages_block_medians() {
        // two blocks of [short, short, long]: medians 1 and 3
        let v = [1.0, 1.0, 9.0, 3.0, 3.0, 9.0];
        let k = [0, 0, 1, 0, 0, 1];
        assert_eq!(block_median(&v, &k, 3), 2.0);
        // no whole block: the median over all
        assert_eq!(block_median(&v[..2], &k[..2], 3), 1.0);
    }

    #[test]
    fn block_tail_is_the_median_block_tail() {
        // three blocks of 20 at p50: block medians 9, 29, 49 -> 29
        let v: Vec<f64> = (0..60).map(f64::from).collect();
        assert_eq!(block_tail(&v, 0.5), 29.0);
        // too few blocks: the plain percentile
        assert_eq!(block_tail(&v[..30], 0.5), 14.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(20_000), 0.995);
        assert_eq!(tail_quantile(2_000), 0.995);
        assert_eq!(tail_quantile(1_000), 0.99);
        assert_eq!(tail_quantile(54), 0.8);
        assert_eq!(tail_quantile(5), 0.5);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
