//! End-to-end and per-layer benchmark of the citrus cluster.
//!
//! One run sets up one workload several times (the median is `setup_s`),
//! then drives it with one closed-loop client for at least the requested
//! seconds and at least the workload's minimum unit count, checks every
//! result, and reports metrics on two clocks: the host's wall clock and the
//! cost model's virtual clock. End-to-end and count metrics are taken over
//! the first `min_units` units only: every run measures the same work, and
//! the virtual and count metrics repeat exactly for a seed whatever the
//! host's speed or the executor thread count. Wall-clock metrics are the
//! program's own wall times; a host-speed kernel timed around the timed
//! phase is printed beside them (see [`host`]).
//!
//! An untraced run reports the end-to-end metrics. A traced run alternates
//! untraced and traced blocks of units: traced units record spans around
//! each call into a layer (see [`probe`]), and the wall-time difference
//! between the two kinds of block is the tracing overhead.

pub mod host;
pub mod probe;
pub mod report;
pub mod spans;
pub mod suite;

use pgmini::error::PgResult;
use probe::{Counters, UnitCost};
use std::time::Instant;
use suite::{Kind, Scale, Verdict};

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub executor_threads: usize,
    /// Fingerprint the inputs: the statements and COPY batches of set-up
    /// and of the accounted units.
    pub record_stream: bool,
}

impl RunConfig {
    pub fn new(kind: Kind, seed: u64, seconds: f64, trace: bool) -> RunConfig {
        RunConfig {
            kind,
            seed,
            seconds,
            trace,
            // on a shared 2-core host, two executor threads beside the client
            // thread made the TPC-H wall figures swing 15-25% between runs;
            // one thread kept them within a few percent
            executor_threads: 1,
            record_stream: false,
        }
    }
}

/// Everything measured in one run, before it becomes metrics.
pub struct Measured {
    pub kind: Kind,
    /// Wall seconds of each set-up; the first is the measured cluster's.
    pub setup_s: Vec<f64>,
    /// Host kernel ms just before and just after the timed phase.
    pub host_kernel_ms: [f64; 2],
    pub elapsed_s: f64,
    /// Wall ms of every timed unit, and whether it was traced.
    pub unit_wall_ms: Vec<(f64, bool)>,
    /// Kind of every timed unit (see `Workload::last_kind`).
    pub unit_kind: Vec<usize>,
    /// Virtual ms of each accounted unit.
    pub unit_vms: Vec<f64>,
    /// Summed virtual cost of the accounted units.
    pub ledger: UnitCost,
    /// Program counters moved by the accounted units.
    pub counters: Counters,
    pub tally: probe::Tally,
    pub min_units: u64,
    pub errors: u64,
    /// Traced units among the accounted ones (denominator of the tallies
    /// that only traced units feed).
    pub traced_accounted: u64,
    pub rollup_drains: (u64, u64),
    pub shapes: usize,
    pub spans: spans::Spans,
    pub verdict: Verdict,
    pub describe: String,
    pub node_cores: u32,
    /// Virtual ms of one network round trip.
    pub rtt_ms: f64,
    pub stream_hash: u64,
    /// Units in which the mix of unit kinds repeats exactly.
    pub mix_len: u64,
    /// Process high-water RSS (MB) once set-up and the first `min_units`
    /// units are done: a fixed amount of work, unlike the timed phase. The
    /// measured cluster is the process's first, so no earlier set-up is in
    /// it.
    pub peak_rss_mb: f64,
    /// Process CPU seconds (all threads) spent on the measured units.
    pub cpu_s: f64,
}

fn in_traced_block(trace: bool, round: u64, block: u64) -> bool {
    trace && (round / block.max(1)) % 2 == 1
}

/// Set-ups per run (`setup_s` is their median). The first one's cluster is
/// measured; the others are timed after it has been checked and dropped, so
/// they stay out of its `peak_rss_mb`.
const SETUPS: usize = 3;

fn timed_setup(
    cfg: &RunConfig,
    scale: &Scale,
    record_stream: bool,
) -> PgResult<(suite::Built, f64)> {
    let t = Instant::now();
    let built = suite::setup(
        cfg.kind,
        cfg.seed,
        scale,
        cfg.executor_threads,
        record_stream,
    )?;
    Ok((built, t.elapsed().as_secs_f64()))
}

/// Set up, run and check one workload.
pub fn run(cfg: &RunConfig) -> PgResult<Measured> {
    let scale = Scale::full();
    let (built, first_setup_s) = timed_setup(cfg, &scale, cfg.record_stream)?;
    let suite::Built {
        cluster,
        mut probe,
        mut workload,
    } = built;

    let min_units = scale.min_units(cfg.kind);
    let round_len = workload.round_len();
    let block = workload.trace_block();
    let start_counters = Counters::read(&cluster);
    let mut counters = Counters::default();
    let mut ledger = UnitCost::default();
    let mut unit_vms = Vec::with_capacity(min_units as usize);
    let mut unit_wall_ms = Vec::new();
    let mut unit_kind = Vec::new();
    let (mut idx, mut round, mut errors, mut traced_accounted) = (0u64, 0u64, 0u64, 0u64);
    let mut peak_rss_mb = 0.0;

    let kernel_before = host::kernel_ms();
    let cpu0 = report::process_cpu_s();
    let mut cpu_s = 0.0;
    let start = Instant::now();
    while idx < min_units || start.elapsed().as_secs_f64() < cfg.seconds {
        let traced = in_traced_block(cfg.trace, round, block);
        for _ in 0..round_len {
            let accounted = idx < min_units;
            probe.begin_unit(idx, traced, accounted);
            let t0 = Instant::now();
            let result = workload.run_unit(&mut probe);
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            let cost = probe.end_unit();
            if let Err(e) = result {
                errors += 1;
                if errors <= 3 {
                    eprintln!("unit {idx} failed: {e}");
                }
            }
            if accounted {
                ledger.absorb(&cost);
                unit_vms.push(cost.elapsed_ms);
                traced_accounted += traced as u64;
            }
            unit_wall_ms.push((wall_ms, traced));
            unit_kind.push(workload.last_kind());
            idx += 1;
            if idx == min_units {
                counters = Counters::read(&cluster).since(&start_counters);
                peak_rss_mb = report::peak_rss_mb();
                cpu_s = report::process_cpu_s() - cpu0;
                probe.record_stream = false;
            }
        }
        round += 1;
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let host_kernel_ms = [kernel_before, host::kernel_ms()];

    let verdict = workload.verify(&mut probe, idx)?;
    let mut measured = Measured {
        kind: cfg.kind,
        setup_s: vec![first_setup_s],
        host_kernel_ms,
        elapsed_s,
        unit_wall_ms,
        unit_kind,
        unit_vms,
        ledger,
        counters,
        tally: probe.tally.clone(),
        min_units,
        errors,
        traced_accounted,
        rollup_drains: workload.rollup_drains(),
        shapes: probe.shapes.len(),
        spans: std::mem::take(&mut probe.spans),
        verdict,
        describe: workload.describe(),
        node_cores: cluster.config.engine.cores,
        rtt_ms: cluster.config.engine.cost.net_rtt_ms,
        stream_hash: probe.stream_hash,
        mix_len: workload.mix_len(),
        peak_rss_mb,
        cpu_s,
    };
    drop((workload, probe, cluster));
    for _ in 1..SETUPS {
        let (built, s) = timed_setup(cfg, &scale, false)?;
        // dropped before the next set-up is timed
        drop(built);
        measured.setup_s.push(s);
    }
    Ok(measured)
}
