//! The three workloads, each against a 4-worker, 32-shard, MX-routed
//! cluster driven by one closed-loop client, with its set-up and its result
//! checks.
//!
//! * `oltp_tenant` — the HammerDB-style TPC-C mix; one unit is one
//!   transaction. Checked by replaying the same seeded stream on a
//!   single-node pgmini engine and comparing the final state.
//! * `olap_tpch` — the 18 supported TPC-H queries in fixed order over
//!   columnar fact tables larger than each worker's buffer pool; one unit is
//!   one query. Every result is compared with the single-node answer.
//! * `rta_ingest` — COPY into the GIN-indexed `github_events`, a watermarked
//!   INSERT..SELECT into `push_commits`, and two `commit_rollup` reads; one
//!   unit is one of those four calls. Checked against the generated stream
//!   and against a recompute of the rollup's defining aggregate.

use crate::probe::Probe;
use citrus::cluster::{Cluster, ClusterConfig};
use pgmini::engine::Engine;
use pgmini::error::{PgError, PgResult};
use pgmini::types::{Datum, Row};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use workloads::patterns::Pattern;
use workloads::runner::{LocalRunner, SqlRunner};
use workloads::tpcc::{self, TpccConfig, TpccDriver, TxnKind};
use workloads::{gharchive, tpch};

pub const WORKERS: u32 = 4;
pub const SHARDS: u32 = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    OltpTenant,
    OlapTpch,
    RtaIngest,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::OltpTenant, Kind::OlapTpch, Kind::RtaIngest];

    pub fn name(self) -> &'static str {
        match self {
            Kind::OltpTenant => "oltp_tenant",
            Kind::OlapTpch => "olap_tpch",
            Kind::RtaIngest => "rta_ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The §2 pattern whose Table 1 latency bounds `vcapacity_units_s`.
    pub fn pattern(self) -> Pattern {
        match self {
            Kind::OltpTenant => Pattern::MultiTenant,
            Kind::OlapTpch => Pattern::DataWarehousing,
            Kind::RtaIngest => Pattern::RealTimeAnalytics,
        }
    }
}

/// Input sizes of the benchmark.
#[derive(Debug, Clone)]
pub struct Scale {
    pub tpcc: TpccConfig,
    /// TPC-C transactions run during set-up to fill the plan cache and the
    /// connection pools.
    pub tpcc_warmup: u64,
    pub tpch_sf: f64,
    /// Day-1 events loaded before the timed phase.
    pub gh_base: usize,
    /// Events per ingest COPY.
    pub gh_batch: usize,
    /// Units every run completes, whatever its length; virtual and count
    /// metrics are taken over exactly these units.
    pub min_units: [u64; 3],
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            tpcc: TpccConfig {
                warehouses: 16,
                ..TpccConfig::default()
            },
            tpcc_warmup: 100,
            tpch_sf: 0.01,
            gh_base: 5_000,
            gh_batch: 50,
            min_units: [20_000, 144, 800],
        }
    }

    pub fn min_units(&self, k: Kind) -> u64 {
        self.min_units[k as usize]
    }
}

/// Outcome of a workload's result checks.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Units that failed a result check.
    pub failed_units: u64,
    pub notes: Vec<String>,
}

pub trait Workload {
    /// Units per round; the timing loop never stops inside a round.
    fn round_len(&self) -> u64;
    /// Rounds per block in the traced run, which alternates untraced and
    /// traced blocks so the tracing overhead is measured on the same stream.
    fn trace_block(&self) -> u64;
    /// Units in which the mix of unit kinds repeats exactly: the wall
    /// median is averaged over blocks of this many units.
    fn mix_len(&self) -> u64 {
        self.round_len()
    }
    fn run_unit(&mut self, p: &mut Probe) -> PgResult<()>;
    /// Kind of the unit just run (transaction type, query, RTA call): the
    /// per-unit medians weigh each kind's own median by its unit count.
    fn last_kind(&self) -> usize;
    /// Check the results after the timed phase; `units` is how many units
    /// the timed phase ran.
    fn verify(&mut self, p: &mut Probe, units: u64) -> PgResult<Verdict>;
    /// `(drain reads, deltas applied by them)` over accounted units.
    fn rollup_drains(&self) -> (u64, u64) {
        (0, 0)
    }
    /// Data size against the buffer pools and statement kinds, as set up.
    fn describe(&self) -> String;
}

pub fn build_cluster(executor_threads: usize) -> PgResult<Arc<Cluster>> {
    let cfg = ClusterConfig {
        shard_count: SHARDS,
        executor_threads,
        ..ClusterConfig::default()
    };
    let c = Cluster::new(cfg);
    for _ in 0..WORKERS {
        c.add_worker()?;
    }
    Ok(c)
}

pub struct Built {
    pub cluster: Arc<Cluster>,
    pub probe: Probe,
    pub workload: Box<dyn Workload>,
}

/// Empty cluster to loaded and warmed.
pub fn setup(
    kind: Kind,
    seed: u64,
    scale: &Scale,
    executor_threads: usize,
    record_stream: bool,
) -> PgResult<Built> {
    let cluster = build_cluster(executor_threads)?;
    let mut probe = Probe::new(&cluster, record_stream);
    let workload: Box<dyn Workload> = match kind {
        Kind::OltpTenant => Box::new(Oltp::setup(&mut probe, scale, seed)?),
        Kind::OlapTpch => Box::new(Olap::setup(&mut probe, scale, seed)?),
        Kind::RtaIngest => Box::new(Rta::setup(&mut probe, scale, seed)?),
    };
    Ok(Built {
        cluster,
        probe,
        workload,
    })
}

fn run_all(r: &mut dyn SqlRunner, stmts: &[String]) -> PgResult<()> {
    for s in stmts {
        r.run(s)?;
    }
    Ok(())
}

/// Page totals on one engine: (fact-table pages, other pages).
fn engine_pages(engine: &Arc<Engine>, is_fact: impl Fn(&str) -> bool) -> (u64, u64) {
    let names = engine.catalog.read().table_names();
    let (mut fact, mut other) = (0, 0);
    for n in names {
        if let Ok(meta) = engine.table_meta(&n) {
            let pages = engine.table_pages(&meta);
            if is_fact(&n) {
                fact += pages;
            } else {
                other += pages;
            }
        }
    }
    (fact, other)
}

/// Set the simulated row width of a table's shell and every shard of it,
/// on every node.
fn set_widths(c: &Arc<Cluster>, widths: &[(&str, u32)]) {
    for node in c.nodes() {
        let engine = node.engine();
        let names = engine.catalog.read().table_names();
        for n in names {
            for (table, width) in widths {
                if n == *table || n.starts_with(&format!("{table}_")) {
                    // a name that is not a table of this workload is skipped
                    let _ = engine.set_sim_row_width(&n, *width);
                }
            }
        }
    }
}

fn mb(pages: u64) -> f64 {
    (pages * pgmini::cost::PAGE_SIZE) as f64 / (1024.0 * 1024.0)
}

/// Simulated data per node against its buffer pool.
fn footprint(c: &Arc<Cluster>) -> String {
    let nodes: Vec<String> = c
        .nodes()
        .iter()
        .map(|n| {
            let e = n.engine();
            let (_, pages) = engine_pages(&e, |_| false);
            format!(
                "{} {:.1} MB of {:.0} MB pool",
                n.name,
                mb(pages),
                mb(e.buffer.capacity_pages())
            )
        })
        .collect();
    nodes.join(", ")
}

// ---------------------------------------------------------------- result checks

/// Two datums equal up to float summation order.
fn datum_eq(a: &Datum, b: &Datum) -> bool {
    let num = |d: &Datum| match d {
        Datum::Int(i) => Some(*i as f64),
        Datum::Float(f) => Some(*f),
        _ => None,
    };
    match (num(a), num(b)) {
        (Some(x), Some(y)) => (x - y).abs() <= 1e-6 * x.abs().max(y.abs()).max(1.0),
        _ => match (a, b) {
            (Datum::Json(x), Datum::Json(y)) => x.to_string() == y.to_string(),
            _ => a == b,
        },
    }
}

fn rows_eq_in_order(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(p, q)| datum_eq(p, q)))
}

/// Sort key that rounds floats, so rows tied under ORDER BY compare as
/// multisets.
fn row_key(r: &Row) -> String {
    r.iter()
        .map(|d| match d {
            Datum::Float(f) => format!("{f:.4e}"),
            Datum::Int(i) => format!("{:.4e}", *i as f64),
            Datum::Json(j) => j.to_string(),
            other => format!("{other:?}"),
        })
        .collect::<Vec<_>>()
        .join("|")
}

/// Result rows equal: in order, or as multisets when ORDER BY leaves ties.
pub fn same_rows(a: &[Row], b: &[Row]) -> bool {
    if rows_eq_in_order(a, b) {
        return true;
    }
    let sorted = |rows: &[Row]| {
        let mut v: Vec<(String, Row)> = rows.iter().map(|r| (row_key(r), r.clone())).collect();
        v.sort_by(|x, y| x.0.cmp(&y.0));
        v.into_iter().map(|(_, r)| r).collect::<Vec<Row>>()
    };
    rows_eq_in_order(&sorted(a), &sorted(b))
}

fn single_node() -> PgResult<LocalRunner> {
    Ok(LocalRunner {
        session: Engine::new_default().session()?,
    })
}

// ---------------------------------------------------------------- oltp_tenant

/// Final-state checks of the TPC-C tables.
const TPCC_CHECKS: [&str; 7] = [
    "SELECT count(*), sum(o_id), sum(o_ol_cnt) FROM orders",
    "SELECT sum(d_next_o_id), sum(d_ytd) FROM district",
    "SELECT count(*), sum(ol_quantity) FROM order_line",
    "SELECT sum(s_quantity), sum(s_ytd) FROM stock",
    "SELECT count(*), sum(h_amount) FROM history",
    "SELECT sum(c_balance), sum(c_ytd_payment) FROM customer",
    "SELECT count(*) FROM new_order",
];

/// The HammerDB transaction mix per 100 transactions.
const TPCC_MIX: [(TxnKind, usize); 5] = [
    (TxnKind::NewOrder, 45),
    (TxnKind::Payment, 43),
    (TxnKind::OrderStatus, 4),
    (TxnKind::Delivery, 4),
    (TxnKind::StockLevel, 4),
];

/// Deals transaction kinds from a shuffled deck of [`TPCC_MIX`]: every 100
/// units hold the exact mix, so seeds differ in order and parameters but
/// not in proportions (a per-unit median of a two-humped mix would
/// otherwise jump with the proportions).
struct Deck {
    rng: StdRng,
    cards: Vec<TxnKind>,
}

impl Deck {
    fn new(seed: u64) -> Deck {
        Deck {
            rng: StdRng::seed_from_u64(seed ^ 0xdec4),
            cards: Vec::new(),
        }
    }

    fn next(&mut self) -> TxnKind {
        if self.cards.is_empty() {
            self.cards = TPCC_MIX
                .iter()
                .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
                .collect();
            for i in (1..self.cards.len()).rev() {
                let j = self.rng.random_range(0..=i);
                self.cards.swap(i, j);
            }
        }
        self.cards.pop().expect("deck refilled")
    }
}

struct Oltp {
    cfg: TpccConfig,
    seed: u64,
    warmup: u64,
    driver: TpccDriver,
    deck: Deck,
    last: TxnKind,
    summary: String,
}

impl Oltp {
    fn stream(cfg: &TpccConfig, seed: u64) -> (TpccDriver, Deck) {
        (TpccDriver::new(cfg.clone(), seed ^ 0x7139), Deck::new(seed))
    }

    fn load(r: &mut dyn SqlRunner, cfg: &TpccConfig, seed: u64, distributed: bool) -> PgResult<()> {
        run_all(r, &tpcc::schema_statements())?;
        if distributed {
            run_all(r, &tpcc::distribution_statements())?;
        }
        tpcc::load(r, cfg, seed)
    }

    fn step(d: &mut TpccDriver, deck: &mut Deck, r: &mut dyn SqlRunner) -> (TxnKind, PgResult<()>) {
        let kind = deck.next();
        (kind, d.run(r, kind).map(|_| ()))
    }

    fn setup(p: &mut Probe, scale: &Scale, seed: u64) -> PgResult<Oltp> {
        let cfg = scale.tpcc.clone();
        Oltp::load(p, &cfg, seed, true)?;
        let (mut driver, mut deck) = Oltp::stream(&cfg, seed);
        for _ in 0..scale.tpcc_warmup {
            Oltp::step(&mut driver, &mut deck, p).1?;
        }
        let summary = format!(
            "TPC-C {} warehouses x {} districts x {} customers, {} items, 5 transaction kinds; {}",
            cfg.warehouses,
            cfg.districts_per_warehouse,
            cfg.customers_per_district,
            cfg.items,
            footprint(&p.cluster)
        );
        Ok(Oltp {
            cfg,
            seed,
            warmup: scale.tpcc_warmup,
            driver,
            deck,
            last: TxnKind::NewOrder,
            summary,
        })
    }
}

impl Workload for Oltp {
    fn round_len(&self) -> u64 {
        1
    }

    fn trace_block(&self) -> u64 {
        20
    }

    fn mix_len(&self) -> u64 {
        TPCC_MIX.iter().map(|&(_, n)| n as u64).sum()
    }

    fn run_unit(&mut self, p: &mut Probe) -> PgResult<()> {
        let (kind, result) = Oltp::step(&mut self.driver, &mut self.deck, p);
        self.last = kind;
        result
    }

    fn last_kind(&self) -> usize {
        TPCC_MIX
            .iter()
            .position(|(k, _)| *k == self.last)
            .unwrap_or(0)
    }

    fn verify(&mut self, p: &mut Probe, units: u64) -> PgResult<Verdict> {
        let mut local = single_node()?;
        Oltp::load(&mut local, &self.cfg, self.seed, false)?;
        let (mut driver, mut deck) = Oltp::stream(&self.cfg, self.seed);
        for _ in 0..self.warmup + units {
            // a unit that errors on one side and not the other shows up in
            // the final state
            let _ = Oltp::step(&mut driver, &mut deck, &mut local).1;
        }
        let mut dist = p.cluster.session()?;
        let mut v = Verdict::default();
        for q in TPCC_CHECKS {
            let want = local.run(q)?.into_rows();
            let got = dist.query(q)?;
            if !same_rows(&got, &want) {
                v.notes
                    .push(format!("{q}: cluster {got:?} vs single node {want:?}"));
            }
        }
        if !v.notes.is_empty() {
            v.failed_units = units;
        }
        Ok(v)
    }

    fn describe(&self) -> String {
        self.summary.clone()
    }
}

// ---------------------------------------------------------------- olap_tpch

struct Olap {
    seed: u64,
    sf: f64,
    next: usize,
    /// First result of each supported query, and how often it ran.
    results: Vec<Option<Vec<Row>>>,
    runs: Vec<u64>,
    /// Executions whose result differed from that query's first result.
    unstable: u64,
    summary: String,
}

fn is_tpch_fact(name: &str) -> bool {
    ["lineitem", "orders"]
        .iter()
        .any(|t| name == *t || name.starts_with(&format!("{t}_")))
}

impl Olap {
    fn load(r: &mut dyn SqlRunner, sf: f64, seed: u64, distributed: bool) -> PgResult<u64> {
        run_all(r, &tpch::schema_statements())?;
        if distributed {
            run_all(r, &tpch::distribution_statements())?;
        }
        tpch::gen::load(r, sf, seed)
    }

    fn setup(p: &mut Probe, scale: &Scale, seed: u64) -> PgResult<Olap> {
        let lineitems = Olap::load(p, scale.tpch_sf, seed, true)?;
        let c = p.cluster.clone();
        set_widths(&c, tpch::SIM_WIDTHS);
        // each pool holds the dimension tables and three quarters of the
        // node's fact pages: the node's working set exceeds it and fact scans
        // miss. With a quarter or a half, the busiest disk sat at a residency
        // threshold and the virtual capacity jumped 12-15% between seeds.
        let mut lines = Vec::new();
        for node in c.nodes() {
            let engine = node.engine();
            let (fact, other) = engine_pages(&engine, is_tpch_fact);
            let pool = other + fact * 3 / 4;
            engine.buffer.set_capacity(pool);
            lines.push(format!(
                "{}: fact {:.1} MB, other {:.1} MB, pool {:.1} MB",
                node.name,
                mb(fact),
                mb(other),
                mb(pool)
            ));
        }
        let summary = format!(
            "TPC-H SF {} ({lineitems} lineitem rows), 18 query shapes; {}",
            scale.tpch_sf,
            lines.join("; ")
        );
        // warm: open the fan-out connection pools
        for q in [
            "SELECT count(*) FROM lineitem",
            "SELECT count(*) FROM orders",
        ] {
            p.run(q)?;
        }
        let n = tpch::queries::SUPPORTED.len();
        Ok(Olap {
            seed,
            sf: scale.tpch_sf,
            next: 0,
            results: vec![None; n],
            runs: vec![0; n],
            unstable: 0,
            summary,
        })
    }
}

impl Workload for Olap {
    fn round_len(&self) -> u64 {
        tpch::queries::SUPPORTED.len() as u64
    }

    fn trace_block(&self) -> u64 {
        1
    }

    fn last_kind(&self) -> usize {
        (self.next + tpch::queries::SUPPORTED.len() - 1) % tpch::queries::SUPPORTED.len()
    }

    fn run_unit(&mut self, p: &mut Probe) -> PgResult<()> {
        let i = self.next % tpch::queries::SUPPORTED.len();
        self.next += 1;
        let q = tpch::queries::query(tpch::queries::SUPPORTED[i])
            .ok_or_else(|| PgError::internal("supported TPC-H query has no text"))?;
        let rows = p.run(&q)?.into_rows();
        self.runs[i] += 1;
        match &self.results[i] {
            None => self.results[i] = Some(rows),
            Some(first) => {
                if !same_rows(first, &rows) {
                    self.unstable += 1;
                }
            }
        }
        Ok(())
    }

    fn verify(&mut self, _p: &mut Probe, _units: u64) -> PgResult<Verdict> {
        let mut local = single_node()?;
        Olap::load(&mut local, self.sf, self.seed, false)?;
        let mut v = Verdict {
            failed_units: self.unstable,
            notes: Vec::new(),
        };
        if self.unstable > 0 {
            v.notes.push(format!(
                "{} executions differed from their query's first result",
                self.unstable
            ));
        }
        for (i, n) in tpch::queries::SUPPORTED.into_iter().enumerate() {
            let Some(got) = &self.results[i] else {
                continue;
            };
            let q = tpch::queries::query(n).ok_or_else(|| PgError::internal("query text"))?;
            let want = local.run(&q)?.into_rows();
            if !same_rows(got, &want) {
                v.failed_units += self.runs[i];
                v.notes
                    .push(format!("Q{n}: cluster and single node differ"));
            }
        }
        Ok(v)
    }

    fn describe(&self) -> String {
        self.summary.clone()
    }
}

// ---------------------------------------------------------------- rta_ingest

/// The transformation of `gharchive::transformation_query`, bounded to the
/// events ingested since the last run. Event ids are fixed-width hex, so
/// they sort in ingest order and `(lo, hi]` is exactly the new batch. The
/// unbounded query re-inserts every PushEvent each time: `push_commits`
/// and the work per run grow with the number of runs, so the unbounded
/// stream never reaches a steady state.
pub fn watermarked_transformation(lo: &str, hi: &str) -> String {
    format!(
        "INSERT INTO push_commits (event_id, day, commit_count) \
         SELECT event_id, (data->>'created_at')::date, \
                jsonb_array_length(data->'payload'->'commits') \
         FROM github_events \
         WHERE data->>'type' = 'PushEvent' AND event_id > '{lo}' AND event_id <= '{hi}'"
    )
}

const ROLLUP_RECOMPUTE: &str =
    "SELECT day, count(*), sum(commit_count) FROM push_commits GROUP BY day ORDER BY day";

struct Rta {
    generator: gharchive::EventGenerator,
    batch: usize,
    /// Highest event id already transformed, and highest id ingested.
    watermark: String,
    ingested: String,
    /// (event_id, commit count) of every PushEvent ingested.
    expected: Vec<(String, i64)>,
    step: u64,
    drains: u64,
    deltas: u64,
    summary: String,
}

impl Rta {
    /// Ingest one batch, remembering its PushEvents.
    fn ingest(&mut self, p: &mut Probe, rows: Vec<Row>) -> PgResult<()> {
        for r in &rows {
            let (Datum::Text(id), Datum::Json(j)) = (&r[0], &r[1]) else {
                return Err(PgError::internal("generated event has an unexpected shape"));
            };
            if j.get_text("type").as_deref() == Some("PushEvent") {
                let commits = j.path_query("$.payload.commits[*]")?.len() as i64;
                self.expected.push((id.clone(), commits));
            }
            self.ingested = id.clone();
        }
        p.copy("github_events", &[], rows)?;
        Ok(())
    }

    fn transform(&mut self, p: &mut Probe) -> PgResult<()> {
        let sql = watermarked_transformation(&self.watermark, &self.ingested);
        p.run(&sql)?;
        self.watermark = self.ingested.clone();
        Ok(())
    }

    fn read(&mut self, p: &mut Probe) -> PgResult<()> {
        let before = p
            .cluster
            .metrics
            .rollup_deltas_applied
            .load(Ordering::Relaxed);
        p.run(&gharchive::rollup_dashboard_query())?;
        let applied = p
            .cluster
            .metrics
            .rollup_deltas_applied
            .load(Ordering::Relaxed)
            - before;
        if let Some(span) = p.last_exec {
            p.spans.rename(
                span,
                if applied > 0 {
                    "rollup.drain_read"
                } else {
                    "rollup.read"
                },
            );
        }
        if p.accounted() && applied > 0 {
            self.drains += 1;
            self.deltas += applied;
        }
        Ok(())
    }

    fn setup(p: &mut Probe, scale: &Scale, seed: u64) -> PgResult<Rta> {
        run_all(p, &gharchive::schema_statements())?;
        p.run(&gharchive::distribution_statement())?;
        run_all(p, &gharchive::transformation_schema())?;
        p.run(&gharchive::transformation_distribution())?;
        p.run(&gharchive::rollup_definition())?;
        let mut rta = Rta {
            generator: gharchive::EventGenerator::new(2, seed ^ 0x11d7),
            batch: scale.gh_batch,
            watermark: String::new(),
            ingested: String::new(),
            expected: Vec::new(),
            step: 0,
            drains: 0,
            deltas: 0,
            summary: String::new(),
        };
        let mut day1 = gharchive::EventGenerator::new(1, seed);
        let mut left = scale.gh_base;
        while left > 0 {
            let n = left.min(2_000);
            rta.ingest(p, day1.batch(n))?;
            left -= n;
        }
        set_widths(&p.cluster, &[("github_events", gharchive::SIM_ROW_WIDTH)]);
        // day 1 into push_commits, then one warm cycle
        rta.transform(p)?;
        for _ in 0..4 {
            rta.run_unit(p)?;
        }
        rta.step = 0;
        rta.drains = 0;
        rta.deltas = 0;
        rta.summary = format!(
            "github_events {} day-1 events, +{} per cycle, 4 unit kinds; {}",
            scale.gh_base,
            scale.gh_batch,
            footprint(&p.cluster)
        );
        Ok(rta)
    }
}

impl Workload for Rta {
    fn round_len(&self) -> u64 {
        4
    }

    fn trace_block(&self) -> u64 {
        4
    }

    fn last_kind(&self) -> usize {
        ((self.step + 3) % 4) as usize
    }

    fn run_unit(&mut self, p: &mut Probe) -> PgResult<()> {
        let step = self.step % 4;
        self.step += 1;
        match step {
            0 => {
                let rows = self.generator.batch(self.batch);
                self.ingest(p, rows)
            }
            1 => self.transform(p),
            _ => self.read(p),
        }
    }

    fn verify(&mut self, p: &mut Probe, units: u64) -> PgResult<Verdict> {
        let mut s = p.cluster.session()?;
        let got = s.query("SELECT event_id, commit_count FROM push_commits ORDER BY event_id")?;
        let mut v = Verdict::default();
        let want: Vec<Row> = self
            .expected
            .iter()
            .map(|(id, n)| vec![Datum::Text(id.clone()), Datum::Int(*n)])
            .collect();
        if got != want {
            v.notes.push(format!(
                "push_commits holds {} rows, {} PushEvents were ingested (missed or doubled)",
                got.len(),
                want.len()
            ));
        }
        let rollup = s.query(&gharchive::rollup_dashboard_query())?;
        let recompute = s.query(ROLLUP_RECOMPUTE)?;
        if !same_rows(&rollup, &recompute) {
            v.notes.push(format!(
                "commit_rollup {rollup:?} != recompute {recompute:?}"
            ));
        }
        if !v.notes.is_empty() {
            v.failed_units = units;
        }
        Ok(v)
    }

    fn rollup_drains(&self) -> (u64, u64) {
        (self.drains, self.deltas)
    }

    fn describe(&self) -> String {
        self.summary.clone()
    }
}
