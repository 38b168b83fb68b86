//! Distributed cost accounting.
//!
//! A distributed statement consumes resources on several nodes at once; the
//! closed-loop benchmark solver needs the per-node breakdown (who burned CPU,
//! whose disk was hit), and single-session benchmarks need the elapsed
//! virtual time (parallel makespan, not the sum).

use crate::metadata::NodeId;
use pgmini::cost::SimCost;
use std::collections::BTreeMap;

/// Resource consumption of one distributed statement.
#[derive(Debug, Clone, Default)]
pub struct DistCost {
    /// Service demand per worker node (CPU/disk used on that node), in node
    /// order so every sum over it repeats bit for bit.
    pub per_node: BTreeMap<NodeId, SimCost>,
    /// Coordinator-side work (planning, merging, COPY parsing).
    pub coordinator: SimCost,
    /// Network latency spent, in ms (round trips × RTT).
    pub net_ms: f64,
    /// Elapsed virtual time of the statement (parallel makespan + serial
    /// coordinator work + network).
    pub elapsed_ms: f64,
}

impl DistCost {
    pub fn add_node(&mut self, node: NodeId, cost: &SimCost) {
        self.per_node.entry(node).or_default().add(cost);
    }

    pub fn add(&mut self, other: &DistCost) {
        for (n, c) in &other.per_node {
            self.add_node(*n, c);
        }
        self.coordinator.add(&other.coordinator);
        self.net_ms += other.net_ms;
        self.elapsed_ms += other.elapsed_ms;
    }

    /// Total service demand across all nodes (for sanity checks).
    pub fn total_demand_ms(&self) -> f64 {
        self.per_node.values().map(|c| c.cpu_ms + c.io_ms).sum::<f64>()
            + self.coordinator.cpu_ms
            + self.coordinator.io_ms
    }

    /// Total CPU demand on one node.
    pub fn node_cpu_ms(&self, node: NodeId) -> f64 {
        self.per_node.get(&node).map(|c| c.cpu_ms).unwrap_or(0.0)
    }

    /// Total disk demand on one node.
    pub fn node_io_ms(&self, node: NodeId) -> f64 {
        self.per_node.get(&node).map(|c| c.io_ms).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_per_node() {
        let mut d = DistCost::default();
        let mut c = SimCost::ZERO;
        c.cpu_ms = 2.0;
        c.io_ms = 1.0;
        d.add_node(NodeId(1), &c);
        d.add_node(NodeId(1), &c);
        d.add_node(NodeId(2), &c);
        d.coordinator.cpu_ms = 0.5;
        assert!((d.node_cpu_ms(NodeId(1)) - 4.0).abs() < 1e-9);
        assert!((d.node_io_ms(NodeId(2)) - 1.0).abs() < 1e-9);
        assert!((d.total_demand_ms() - 9.5).abs() < 1e-9);
        let mut e = DistCost::default();
        e.add(&d);
        e.add(&d);
        assert!((e.total_demand_ms() - 19.0).abs() < 1e-9);
    }
}
