//! In-memory span recorder for the traced run.
//!
//! A span is one timed call the benchmark makes into a layer of the program
//! (or one workload unit, the root of its calls): name, start, end, parent
//! span and the unit it belongs to, plus a work count (`n`: rows, tasks).
//! Spans stay in memory while the workload runs and are written out as TSV
//! when it ends. A layer's self time is its spans' durations minus the part
//! covered by their child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub unit: u64,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub n: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over every recorded span.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub n: u64,
}

pub struct Spans {
    epoch: Instant,
    recs: Vec<SpanRec>,
    stack: Vec<u32>,
    unit: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            recs: Vec::new(),
            stack: Vec::new(),
            unit: 0,
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_unit(&mut self, unit: u64) {
        self.unit = unit;
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = self.recs.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.recs.push(SpanRec {
            name,
            unit: self.unit,
            parent,
            start_ns,
            end_ns: start_ns,
            n: 0,
        });
        self.stack.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32, n: u64) {
        let end = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        let rec = &mut self.recs[id as usize];
        rec.end_ns = end;
        rec.n = n;
    }

    pub fn rename(&mut self, id: u32, name: &'static str) {
        self.recs[id as usize].name = name;
    }

    /// Totals and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.recs.len()];
        for r in &self.recs {
            if r.parent != NO_PARENT {
                child_ns[r.parent as usize] += r.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (r, c) in self.recs.iter().zip(child_ns) {
            let t = out.entry(r.name).or_default();
            t.count += 1;
            t.total_ns += r.dur_ns();
            t.self_ns += r.dur_ns().saturating_sub(c);
            t.n += r.n;
        }
        out
    }

    /// Write the spans of the first `max_units` traced units as TSV.
    pub fn write_tsv(&self, path: &std::path::Path, max_units: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "unit\tid\tparent\tname\tstart_ns\tend_ns\tn")?;
        let mut units = 0usize;
        let mut last_unit = None;
        for (id, r) in self.recs.iter().enumerate() {
            if last_unit != Some(r.unit) {
                units += 1;
                last_unit = Some(r.unit);
                if units > max_units {
                    break;
                }
            }
            let parent = if r.parent == NO_PARENT {
                "-".to_string()
            } else {
                r.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{id}\t{parent}\t{}\t{}\t{}\t{}",
                r.unit, r.name, r.start_ns, r.end_ns, r.n
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::default();
        s.set_unit(7);
        let root = s.open("unit");
        let child = s.open("execute.select");
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.close(child, 3);
        s.close(root, 0);
        let t = s.totals();
        let (u, e) = (t["unit"], t["execute.select"]);
        assert_eq!(u.count, 1);
        assert_eq!(e.n, 3);
        assert!(e.total_ns >= 2_000_000);
        assert_eq!(u.self_ns, u.total_ns - e.total_ns);
        assert_eq!(e.self_ns, e.total_ns);
    }
}
