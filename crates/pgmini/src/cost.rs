//! Virtual-time cost model.
//!
//! Every figure in the paper is reported in *simulated* time: the engine
//! executes real queries on real (scaled-down) data, while this module
//! accounts what the same work would cost on the paper's hardware (16 vcpu
//! Azure VMs, 64 GB memory, 7500 IOPS network-attached disks). Wall-clock
//! time never enters a benchmark number.

/// Simulated page size, matching PostgreSQL's 8 KiB.
pub const PAGE_SIZE: u64 = 8192;

/// Cost-model constants, tunable per engine instance.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// CPU time to process one tuple through one operator (ms).
    pub cpu_tuple_ms: f64,
    /// CPU time per operator/expression evaluation step on a tuple (ms).
    pub cpu_operator_ms: f64,
    /// CPU time for one B-tree descent (ms).
    pub index_descend_ms: f64,
    /// Time to read one 8 KiB page from disk at the configured IOPS (ms).
    pub page_io_ms: f64,
    /// CPU time to parse + plan a trivial statement (ms); complex planners
    /// add their own overhead on top.
    pub base_plan_ms: f64,
    /// One network round trip between any two nodes (ms).
    pub net_rtt_ms: f64,
    /// Cost to establish a new backend connection: process fork + auth (ms).
    pub connect_ms: f64,
    /// Per-tuple cost of sending a row over the wire (ms).
    pub net_tuple_ms: f64,
    /// Fixed dispatch cost of one vectorized kernel invocation over a batch
    /// (ms). Charged once per kernel per batch, independent of batch fill.
    pub batch_kernel_ms: f64,
    /// Per-value cost inside a vectorized kernel (ms). Tight loop over a
    /// column vector: no per-tuple interpreter dispatch, so this sits far
    /// below `cpu_tuple_ms`.
    pub batch_value_ms: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            cpu_tuple_ms: 0.0005,
            cpu_operator_ms: 0.0001,
            index_descend_ms: 0.02,
            // 7500 IOPS network-attached disk, as in the paper's setup.
            page_io_ms: 1000.0 / 7500.0,
            base_plan_ms: 0.05,
            // same-datacenter round trip
            net_rtt_ms: 0.5,
            connect_ms: 15.0,
            net_tuple_ms: 0.0005,
            batch_kernel_ms: 0.004,
            batch_value_ms: 0.00002,
        }
    }
}

/// Accumulated simulated resource consumption for one statement or task.
///
/// `cpu_ms` and `io_ms` are *service demands* on distinct resources; the
/// closed-loop solver in `netsim` treats them separately, which is what lets
/// the benchmarks show I/O-bound single nodes vs CPU-bound clusters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimCost {
    /// CPU service demand in milliseconds.
    pub cpu_ms: f64,
    /// Disk service demand in milliseconds.
    pub io_ms: f64,
    /// Network latency (round trips × RTT), in milliseconds. Latency, not
    /// bandwidth: it elapses but does not occupy CPU or disk.
    pub net_ms: f64,
    /// Pages read through the buffer pool (hits + misses).
    pub pages_read: u64,
    /// Pages that missed the buffer pool and hit the disk.
    pub page_misses: u64,
    /// Tuples processed by executor operators.
    pub rows_processed: u64,
    /// Network round trips incurred.
    pub net_rtts: u64,
    /// Column batches processed by vectorized kernels (0 on the volcano
    /// path); surfaces in EXPLAIN ANALYZE / trace spans as `batches=N`.
    pub batches: u64,
    /// Statements that ran a backend's cached generic plan (no planning, no
    /// `base_plan_ms`).
    pub plan_hits: u64,
    /// Statements that were planned (each charged `base_plan_ms`).
    pub plan_misses: u64,
}

impl SimCost {
    pub const ZERO: SimCost = SimCost {
        cpu_ms: 0.0,
        io_ms: 0.0,
        net_ms: 0.0,
        pages_read: 0,
        page_misses: 0,
        rows_processed: 0,
        net_rtts: 0,
        batches: 0,
        plan_hits: 0,
        plan_misses: 0,
    };

    /// Total elapsed simulated time if the work ran serially.
    pub fn total_ms(&self) -> f64 {
        self.cpu_ms + self.io_ms + self.net_ms
    }

    pub fn add(&mut self, other: &SimCost) {
        self.cpu_ms += other.cpu_ms;
        self.io_ms += other.io_ms;
        self.net_ms += other.net_ms;
        self.pages_read += other.pages_read;
        self.page_misses += other.page_misses;
        self.rows_processed += other.rows_processed;
        self.net_rtts += other.net_rtts;
        self.batches += other.batches;
        self.plan_hits += other.plan_hits;
        self.plan_misses += other.plan_misses;
    }

    pub fn add_cpu(&mut self, ms: f64) {
        self.cpu_ms += ms;
    }

    pub fn add_rtt(&mut self, model: &CostModel, count: u64) {
        self.net_rtts += count;
        self.net_ms += model.net_rtt_ms * count as f64;
    }

    /// Account `rows` tuples flowing through one operator.
    pub fn add_tuples(&mut self, model: &CostModel, rows: u64) {
        self.rows_processed += rows;
        self.cpu_ms += model.cpu_tuple_ms * rows as f64;
    }

    /// Account a buffer-pool access of `pages` pages, `misses` of which hit disk.
    pub fn add_pages(&mut self, model: &CostModel, pages: u64, misses: u64) {
        self.pages_read += pages;
        self.page_misses += misses;
        self.io_ms += model.page_io_ms * misses as f64;
    }

    /// Account `kernels` vectorized kernel invocations touching `values`
    /// vector lanes in total. Deliberately does NOT bump `rows_processed` —
    /// callers account scanned tuples once per scan, not once per kernel.
    pub fn add_kernels(&mut self, model: &CostModel, kernels: u64, values: u64) {
        self.cpu_ms +=
            model.batch_kernel_ms * kernels as f64 + model.batch_value_ms * values as f64;
    }
}

impl std::ops::Add for SimCost {
    type Output = SimCost;
    fn add(mut self, rhs: SimCost) -> SimCost {
        SimCost::add(&mut self, &rhs);
        self
    }
}

/// Number of simulated pages occupied by `rows` rows of `row_width` bytes.
pub fn pages_for(rows: u64, row_width: u32) -> u64 {
    let rows_per_page = (PAGE_SIZE / row_width.max(1) as u64).max(1);
    rows.div_ceil(rows_per_page)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_math() {
        assert_eq!(pages_for(0, 100), 0);
        assert_eq!(pages_for(1, 100), 1);
        // 81 rows of 100 bytes per 8 KiB page
        assert_eq!(pages_for(81, 100), 1);
        assert_eq!(pages_for(82, 100), 2);
        // degenerate widths never divide by zero
        assert_eq!(pages_for(10, 0), 1);
        assert_eq!(pages_for(10, 100_000), 10);
    }

    #[test]
    fn cost_accumulation() {
        let m = CostModel::default();
        let mut c = SimCost::ZERO;
        c.add_tuples(&m, 1000);
        c.add_pages(&m, 100, 40);
        c.add_rtt(&m, 2);
        assert_eq!(c.rows_processed, 1000);
        assert_eq!(c.pages_read, 100);
        assert_eq!(c.page_misses, 40);
        assert_eq!(c.net_rtts, 2);
        assert!(c.cpu_ms > 0.0 && c.io_ms > 0.0 && c.net_ms > 0.0);
        let total = c.total_ms();
        assert!((total - (c.cpu_ms + c.io_ms + c.net_ms)).abs() < 1e-9);
    }

    #[test]
    fn default_io_matches_7500_iops() {
        let m = CostModel::default();
        assert!((m.page_io_ms - 0.1333).abs() < 0.001);
    }
}
