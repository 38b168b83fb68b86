//! Distributed plan cache for the CRUD hot path (§3.5.1).
//!
//! Citus caches the distributed plan of a prepared statement so repeated
//! executions skip planning. We generalise that to *all* statements: the
//! cache key is the statement's **shape** — its structure with literal
//! constants parameterized away — so `SELECT … WHERE k = 1` and
//! `… WHERE k = 2` share one entry.
//!
//! A cache entry stores only `(metadata generation, planner tier)`, not a
//! materialized plan: shard pruning depends on the literal values, so on a
//! hit the executor re-runs just that tier's planner (fast-path extraction,
//! router bucket inference, or reference-replica choice, each followed by
//! the shard-name rewrite) and skips the full preamble — table
//! classification, reference-write detection, colocation checks, and the
//! tier cascade. That keeps hits cheap while recomputing exactly the part
//! that must be per-execution: the shard-pruning bucket or the replica.
//! It also makes hash collisions harmless — the tier planner fully
//! re-validates the statement and falls back to complete planning when it
//! declines.
//!
//! Invalidation is by metadata generation: every placement-visible change
//! (DDL, `create_distributed_table`, rebalancer shard moves) bumps
//! [`Metadata::generation`](crate::metadata::Metadata::generation), and a
//! lookup whose stored generation no longer matches is evicted as a miss.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The statement-shape key: structure plus literal types, values elided
/// (shared with the backends' generic plan caches, see [`sqlparse::shape`]).
pub use sqlparse::shape::shape_hash;

/// Which single-task planner to re-run on a cache hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachedTier {
    FastPath,
    Router,
    /// A read touching only reference tables: re-pick the replica
    /// (`reference_read_plan`) and rewrite to its shard names.
    Reference,
}

struct CachedEntry {
    generation: u64,
    tier: CachedTier,
}

/// Cache-size bound; the whole map is cleared when full (shape churn at
/// this scale means the workload is not CRUD-shaped anyway).
const MAX_ENTRIES: usize = 1024;

/// Hit/miss counters plus current size, for benches and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: usize,
}

impl PlanCacheStats {
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Per-extension distributed plan cache. All methods take `&self`; the map
/// serialises internally and the counters are atomic.
#[derive(Default)]
pub struct PlanCache {
    entries: Mutex<HashMap<u64, CachedEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Look up a statement shape under the current metadata generation.
    /// Counts a hit or miss; a stale entry (older generation) is evicted
    /// and reported as a miss.
    pub fn lookup(&self, key: u64, generation: u64) -> Option<CachedTier> {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        match entries.get(&key) {
            Some(e) if e.generation == generation => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.tier)
            }
            Some(_) => {
                entries.remove(&key);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Record the tier that successfully planned a statement shape.
    pub fn insert(&self, key: u64, generation: u64, tier: CachedTier) {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if entries.len() >= MAX_ENTRIES {
            entries.clear();
        }
        entries.insert(key, CachedEntry { generation, tier });
    }

    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries.lock().unwrap_or_else(|e| e.into_inner()).len(),
        }
    }

    pub fn clear(&self) {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_generation_is_evicted_as_miss() {
        let cache = PlanCache::new();
        cache.insert(7, 1, CachedTier::FastPath);
        assert_eq!(cache.lookup(7, 1), Some(CachedTier::FastPath));
        assert_eq!(cache.lookup(7, 2), None, "generation bump invalidates");
        assert_eq!(cache.lookup(7, 2), None, "entry was evicted, not retried");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 0));
    }

    #[test]
    fn cache_bounds_its_size() {
        let cache = PlanCache::new();
        for k in 0..(MAX_ENTRIES as u64 + 5) {
            cache.insert(k, 0, CachedTier::Router);
        }
        assert!(cache.stats().entries <= MAX_ENTRIES);
    }

    /// Regression: propagated DDL issued on the *coordinator* must
    /// invalidate the plan caches of MX workers. Every node's cache entries
    /// are stamped with the shared metadata generation, so the bug was that
    /// DDL propagation never bumped the generation at all — worker caches
    /// kept serving entries planned against the old schema.
    #[test]
    fn remote_ddl_generation_bump_invalidates_worker_plan_cache() {
        let mut cfg = crate::cluster::ClusterConfig::default();
        cfg.shard_count = 8;
        let c = crate::cluster::Cluster::new(cfg);
        c.add_worker().unwrap();
        c.add_worker().unwrap();
        let mut s = c.session().unwrap();
        s.execute("CREATE TABLE t (k bigint, v bigint)").unwrap();
        s.execute("SELECT create_distributed_table('t', 'k')").unwrap();

        // warm one worker's cache through the MX routed path
        let mut mx = c.mx_session();
        mx.execute("INSERT INTO t VALUES (1, 0)").unwrap();
        let worker = mx.last_node();
        assert_ne!(worker, crate::metadata::NodeId(0), "fast-path insert routes to a worker");
        mx.execute("INSERT INTO t VALUES (1, 0)").unwrap();
        let ext = c.extension(worker).unwrap();
        let warmed = ext.plan_cache_stats();
        assert!(warmed.hits >= 1, "same shape re-plans from the worker cache: {warmed:?}");

        // remote DDL on the coordinator: the generation bump must evict the
        // worker's stale entry (next same-shape statement misses, then the
        // refilled entry hits again)
        s.execute("CREATE INDEX t_v_idx ON t (v)").unwrap();
        mx.execute("INSERT INTO t VALUES (1, 0)").unwrap();
        let after = ext.plan_cache_stats();
        assert_eq!(
            after.misses,
            warmed.misses + 1,
            "remote generation bump invalidates the worker cache: {after:?}"
        );
        assert_eq!(after.hits, warmed.hits, "the post-DDL statement must not hit");
        mx.execute("INSERT INTO t VALUES (1, 0)").unwrap();
        assert_eq!(ext.plan_cache_stats().hits, warmed.hits + 1, "cache refills after the bump");
    }
}
