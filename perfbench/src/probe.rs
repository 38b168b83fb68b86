//! The benchmark's connection to the cluster: an MX-routed session wrapped
//! in a [`SqlRunner`] that folds each statement's virtual cost into the
//! current unit and, in traced units, records a span around every call the
//! benchmark makes into a layer's public functions.
//!
//! Parsing happens here, once, inside its span, and the parsed statement is
//! what executes, so the `sqlparse.parse` span is on the unit's blocking
//! path. Distributed planning and task deparsing happen inside the execute
//! call; in traced units they are re-timed on the same statement through
//! `citrus::planner::plan_statement` and `sqlparse::deparse`, as spans
//! beside the execute span.

use crate::spans::Spans;
use citrus::cluster::{stmt_tag, Cluster, MxSession};
use citrus::cost::DistCost;
use citrus::metadata::NodeId;
use citrus::planner::{self, PlannerKind, SubplanExecutor};
use pgmini::error::{PgError, PgResult};
use pgmini::session::QueryResult;
use pgmini::types::{Datum, Row};
use sqlparse::ast::{InsertSource, Statement};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use workloads::runner::{RunCost, SqlRunner};

/// Virtual cost of one unit, summed from each statement's `DistCost`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UnitCost {
    /// Summed `DistCost::elapsed_ms` of the unit's statements.
    pub elapsed_ms: f64,
    /// Per node (cpu_ms, io_ms) demand; origin-side work books to the node
    /// that coordinated the statement.
    pub demand: BTreeMap<u32, (f64, f64)>,
    /// `DistCost::coordinator` CPU: planning, merge, COPY parsing.
    pub origin_cpu_ms: f64,
    pub worker_cpu_ms: f64,
    pub worker_io_ms: f64,
    pub net_ms: f64,
    pub rows: u64,
    pub batches: u64,
    pub pages_read: u64,
    pub page_misses: u64,
}

impl UnitCost {
    fn add(&mut self, d: &DistCost, origin: u32) {
        self.elapsed_ms += d.elapsed_ms;
        // HashMap order: sort so float sums repeat exactly
        let mut nodes: Vec<(&NodeId, &pgmini::cost::SimCost)> = d.per_node.iter().collect();
        nodes.sort_by_key(|(n, _)| n.0);
        for (n, c) in nodes {
            let slot = self.demand.entry(n.0).or_default();
            slot.0 += c.cpu_ms;
            slot.1 += c.io_ms;
            self.worker_cpu_ms += c.cpu_ms;
            self.worker_io_ms += c.io_ms;
            self.rows += c.rows_processed;
            self.batches += c.batches;
            self.pages_read += c.pages_read;
            self.page_misses += c.page_misses;
        }
        let co = &d.coordinator;
        if co.cpu_ms > 0.0 || co.io_ms > 0.0 {
            let slot = self.demand.entry(origin).or_default();
            slot.0 += co.cpu_ms;
            slot.1 += co.io_ms;
        }
        self.origin_cpu_ms += co.cpu_ms;
        self.net_ms += d.net_ms;
    }

    pub fn absorb(&mut self, o: &UnitCost) {
        self.elapsed_ms += o.elapsed_ms;
        for (n, (c, i)) in &o.demand {
            let slot = self.demand.entry(*n).or_default();
            slot.0 += c;
            slot.1 += i;
        }
        self.origin_cpu_ms += o.origin_cpu_ms;
        self.worker_cpu_ms += o.worker_cpu_ms;
        self.worker_io_ms += o.worker_io_ms;
        self.net_ms += o.net_ms;
        self.rows += o.rows;
        self.batches += o.batches;
        self.pages_read += o.pages_read;
        self.page_misses += o.page_misses;
    }
}

/// Snapshot of the program's own always-on counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub tiers: [u64; 4],
    pub cache_hits: u64,
    pub exchanges: u64,
    pub coalesced: u64,
    pub local_tasks: u64,
    pub wal_records: u64,
}

const TIERS: [PlannerKind; 4] = [
    PlannerKind::FastPath,
    PlannerKind::Router,
    PlannerKind::Pushdown,
    PlannerKind::JoinOrder,
];

impl Counters {
    pub fn read(c: &Cluster) -> Counters {
        let m = &c.metrics;
        Counters {
            tiers: TIERS.map(|k| m.tier_count(k)),
            cache_hits: m.cache_hit_executions.load(Ordering::Relaxed),
            exchanges: m.pipeline_exchanges.load(Ordering::Relaxed),
            coalesced: m.pipeline_coalesced.load(Ordering::Relaxed),
            local_tasks: m.local_exec_tasks.load(Ordering::Relaxed),
            wal_records: c.nodes().iter().map(|n| n.engine().wal.lsn()).sum(),
        }
    }

    pub fn since(&self, before: &Counters) -> Counters {
        let mut tiers = [0; 4];
        for (i, t) in tiers.iter_mut().enumerate() {
            *t = self.tiers[i] - before.tiers[i];
        }
        Counters {
            tiers,
            cache_hits: self.cache_hits - before.cache_hits,
            exchanges: self.exchanges - before.exchanges,
            coalesced: self.coalesced - before.coalesced,
            local_tasks: self.local_tasks - before.local_tasks,
            wal_records: self.wal_records - before.wal_records,
        }
    }
}

/// Statement and commit tallies of the accounted units.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    pub commits: u64,
    /// COMMITs during which the 2PC counter moved.
    pub twopc_commits: u64,
    /// Traced statements that did not plan without subplans (counted, not
    /// re-timed).
    pub unplanned: u64,
    /// Bytes the client sent to be stored (COPY values, write statement
    /// text) and the WAL bytes the program encoded for them, over traced
    /// accounted units.
    pub user_bytes: u64,
    pub wal_bytes: u64,
}

/// Planning helper for the re-timed calls: no subplan execution, so
/// statements needing subplans (or the join-order tier) fail to plan and
/// are counted instead of timed.
struct NoSubplans;

impl SubplanExecutor for NoSubplans {
    fn run_distributed_subquery(&mut self, _: &sqlparse::ast::Select) -> PgResult<Vec<Row>> {
        Err(PgError::unsupported("re-timed planning runs no subplans"))
    }
}

/// Span name of the execute call for a statement.
fn exec_span_name(stmt: &Statement) -> &'static str {
    if let Statement::Insert(ins) = stmt {
        if matches!(ins.source, InsertSource::Query(_)) {
            return "execute.insert_select";
        }
    }
    match stmt_tag(stmt) {
        "select" => "execute.select",
        "insert" => "execute.insert",
        "update" => "execute.update",
        "delete" => "execute.delete",
        "begin" => "execute.begin",
        "commit" => "execute.commit",
        "rollback" => "execute.rollback",
        _ => "execute.other",
    }
}

fn is_write(stmt: &Statement) -> bool {
    matches!(
        stmt,
        Statement::Insert(_) | Statement::Update(_) | Statement::Delete(_)
    )
}

/// Bytes of a datum as the client sent it.
fn datum_bytes(d: &Datum) -> u64 {
    match d {
        Datum::Null => 0,
        Datum::Bool(_) => 1,
        Datum::Int(_) | Datum::Float(_) | Datum::Timestamp(_) => 8,
        Datum::Text(s) => s.len() as u64,
        Datum::Json(j) => j.to_string().len() as u64,
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h = (h ^ *b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

pub struct Probe {
    pub session: MxSession,
    pub cluster: Arc<Cluster>,
    pub spans: Spans,
    traced: bool,
    accounted: bool,
    unit_span: Option<u32>,
    wal_mark: Vec<u64>,
    /// Virtual cost of the current unit.
    pub unit: UnitCost,
    pub tally: Tally,
    /// Statement shapes seen in traced units.
    pub shapes: BTreeSet<u64>,
    /// Span of the last execute call (traced units only).
    pub last_exec: Option<u32>,
    /// While set, `stream_hash` fingerprints every statement and COPY batch
    /// (set-up and the accounted units; the determinism tests compare it).
    pub record_stream: bool,
    pub stream_hash: u64,
}

impl Probe {
    pub fn new(cluster: &Arc<Cluster>, record_stream: bool) -> Probe {
        Probe {
            session: cluster.mx_session(),
            cluster: cluster.clone(),
            spans: Spans::default(),
            traced: false,
            accounted: false,
            unit_span: None,
            wal_mark: Vec::new(),
            unit: UnitCost::default(),
            tally: Tally::default(),
            shapes: BTreeSet::new(),
            last_exec: None,
            record_stream,
            stream_hash: FNV_OFFSET,
        }
    }

    pub fn accounted(&self) -> bool {
        self.accounted
    }

    /// Start a unit. `traced` records spans; `accounted` adds the unit's
    /// statements to the tallies.
    pub fn begin_unit(&mut self, id: u64, traced: bool, accounted: bool) {
        self.traced = traced;
        self.accounted = accounted;
        self.unit = UnitCost::default();
        self.last_exec = None;
        if traced && accounted {
            self.wal_mark = self
                .cluster
                .nodes()
                .iter()
                .map(|n| n.engine().wal.lsn())
                .collect();
        }
        if traced {
            self.spans.set_unit(id);
            self.unit_span = Some(self.spans.open("unit"));
        }
    }

    /// End the unit (after its wall time was taken) and return its cost.
    pub fn end_unit(&mut self) -> UnitCost {
        if let Some(id) = self.unit_span.take() {
            self.spans.close(id, 0);
        }
        if self.traced && self.accounted {
            // bookkeeping outside the unit's wall time
            for (node, from) in self.cluster.nodes().iter().zip(&self.wal_mark) {
                let wal = &node.engine().wal;
                for rec in wal.range(*from, wal.lsn()) {
                    self.tally.wal_bytes += pgmini::wal::encode_record(&rec).len() as u64;
                }
            }
        }
        self.traced = false;
        self.accounted = false;
        std::mem::take(&mut self.unit)
    }

    fn span_open(&mut self, name: &'static str) -> Option<u32> {
        self.traced.then(|| self.spans.open(name))
    }

    fn span_close(&mut self, id: Option<u32>, n: u64) {
        if let Some(id) = id {
            self.spans.close(id, n);
        }
    }

    fn take_cost(&mut self) {
        let origin = self.session.last_node().0;
        let d = self.session.last_dist_cost();
        self.unit.add(&d, origin);
    }

    /// Re-time distributed planning and task deparsing of a statement.
    fn retime_plan(&mut self, stmt: &Statement) {
        if !matches!(
            stmt,
            Statement::Select(_)
                | Statement::Insert(_)
                | Statement::Update(_)
                | Statement::Delete(_)
        ) {
            return;
        }
        let meta = self.cluster.metadata.read();
        let node = planner::route_node(stmt, &meta).unwrap_or(NodeId(0));
        let span = self.spans.open("planner.plan");
        let plan = planner::plan_statement(black_box(stmt), &meta, node, &mut NoSubplans);
        match plan {
            Ok(Some(plan)) => {
                self.spans.close(span, plan.tasks.len() as u64);
                let d = self.spans.open("sqlparse.deparse");
                for t in &plan.tasks {
                    black_box(sqlparse::deparse(&t.stmt));
                }
                self.spans.close(d, plan.tasks.len() as u64);
            }
            Ok(None) => self.spans.close(span, 0),
            Err(_) => {
                self.spans.close(span, 0);
                self.spans.rename(span, "planner.unplanned");
                self.tally.unplanned += self.accounted as u64;
            }
        }
    }

    /// Execute a parsed statement inside its span and fold in its cost.
    pub fn exec(&mut self, stmt: &Statement, text_len: usize) -> PgResult<QueryResult> {
        let is_commit = matches!(stmt, Statement::Commit);
        let before = self.cluster.metrics.twopc_commits.load(Ordering::Relaxed);
        let span = self.span_open(exec_span_name(stmt));
        let r = self.session.execute_stmt(stmt);
        let n = match &r {
            Ok(QueryResult::Rows { rows, .. }) => rows.len() as u64,
            Ok(q) => q.affected(),
            Err(_) => 0,
        };
        self.span_close(span, n);
        self.last_exec = span;
        // an MX BEGIN is deferred: nothing ran, so there is no cost to take
        if !matches!(stmt, Statement::Begin) {
            self.take_cost();
        }
        if self.accounted {
            if is_commit {
                self.tally.commits += 1;
                if self.cluster.metrics.twopc_commits.load(Ordering::Relaxed) > before {
                    self.tally.twopc_commits += 1;
                }
            }
            if self.traced && is_write(stmt) {
                self.tally.user_bytes += text_len as u64;
            }
        }
        r
    }
}

impl SqlRunner for Probe {
    fn run(&mut self, sql: &str) -> PgResult<QueryResult> {
        if self.record_stream {
            self.stream_hash = fnv(self.stream_hash, sql.as_bytes());
        }
        let span = self.span_open("sqlparse.parse");
        let parsed = sqlparse::parse(sql);
        self.span_close(span, 1);
        let stmt = parsed?;
        if self.traced {
            self.shapes.insert(planner::cache::shape_hash(&stmt));
            self.retime_plan(&stmt);
        }
        self.exec(&stmt, sql.len())
    }

    fn copy(&mut self, table: &str, columns: &[String], rows: Vec<Row>) -> PgResult<u64> {
        if self.record_stream {
            self.stream_hash = fnv(
                self.stream_hash,
                format!("COPY {table} {rows:?}").as_bytes(),
            );
        }
        if self.traced && self.accounted {
            self.tally.user_bytes += rows.iter().flatten().map(datum_bytes).sum::<u64>();
        }
        let span = self.span_open("execute.copy");
        let r = self.session.copy(table, columns, rows);
        self.span_close(span, *r.as_ref().unwrap_or(&0));
        self.last_exec = span;
        self.take_cost();
        r
    }

    fn last_cost(&mut self) -> RunCost {
        let u = &self.unit;
        RunCost {
            per_node: u.demand.iter().map(|(n, (c, i))| (*n, *c, *i)).collect(),
            net_ms: u.net_ms,
            elapsed_ms: u.elapsed_ms,
        }
    }
}
