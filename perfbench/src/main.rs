//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the citrus benchmark and prints every metric by
//! name and unit, then, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A traced run also
//! writes its spans as TSV under the cargo target directory.

use perfbench::report::{self, Metric};
use perfbench::suite::Kind;
use perfbench::RunConfig;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<RunConfig, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = std::collections::HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        opts.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| opts.get(k).ok_or_else(|| format!("missing --{k}"));
    let kind = Kind::parse(get("workload")?).ok_or("unknown workload")?;
    let seed: u64 = get("seed")?
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(RunConfig::new(kind, seed, seconds, trace))
}

fn spans_path(cfg: &RunConfig) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    target
        .join("perfbench-spans")
        .join(format!("{}-seed{}.tsv", cfg.kind.name(), cfg.seed))
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let m = match perfbench::run(&cfg) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{}: {e}", cfg.kind.name());
            return ExitCode::FAILURE;
        }
    };
    let q = report::tail_quantile(m.min_units);
    let n = m.unit_wall_ms.len();
    println!(
        "workload {} seed {} trace {} executor_threads {} ({} cores), 1 closed-loop client",
        cfg.kind.name(),
        cfg.seed,
        cfg.trace as u8,
        cfg.executor_threads,
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    println!("  {}", m.describe);
    println!(
        "  {} units in {:.2} s; end-to-end and count metrics are taken over the \
         first {} (tails: p{} of them)",
        n,
        m.elapsed_s,
        m.min_units,
        q * 100.0
    );
    println!("  set-up times (s): {:?}", m.setup_s);
    println!(
        "  measured units: {:.2} s wall, {:.2} s process CPU; \
         host kernel {:.2} ms before the timed phase, {:.2} ms after",
        report::measured_wall(&m).iter().sum::<f64>() / 1e3,
        m.cpu_s,
        m.host_kernel_ms[0],
        m.host_kernel_ms[1]
    );
    let units = m.min_units.max(1) as f64;
    let demand: Vec<String> = m
        .ledger
        .demand
        .iter()
        .map(|(n, (c, i))| format!("node {n} cpu {:.3} io {:.3}", c / units, i / units))
        .collect();
    println!("  virtual demand per unit (ms): {}", demand.join("; "));
    for note in &m.verdict.notes {
        println!("  CHECK FAILED: {note}");
    }
    let metrics = if cfg.trace {
        println!("per-layer self time (traced units):");
        for line in report::self_time_lines(&m) {
            println!("{line}");
        }
        let path = spans_path(&cfg);
        match m.spans.write_tsv(&path, 1_000) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
        report::per_layer(&m)
    } else {
        report::end_to_end(&m)
    };
    print_metrics(&metrics);
    let failed = report::failed(&m);
    println!(
        "{}",
        report::result_json(failed == 0, report::attempted(&m).max(1), failed, &metrics)
    );
    ExitCode::SUCCESS
}
