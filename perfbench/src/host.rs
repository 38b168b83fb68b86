//! Host speed, printed beside the metrics as a diagnostic.
//!
//! Shared machines drift in speed by 20–35% over tens of seconds as
//! neighbours come and go. A fixed kernel that uses only the standard
//! library (sorting, hashing, formatting over a few MB) slows down with the
//! host; a run times it before and after its timed phase and prints both,
//! so a reader can tell a slow host from a slow program. The metrics are
//! the program's own wall times and are never scaled by it.

use std::hint::black_box;
use std::time::Instant;

/// Run the kernel once and return its wall time in ms.
pub fn kernel_ms() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut v: Vec<u64> = (0..200_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();
    let mut m = std::collections::HashMap::with_capacity(50_000);
    for (i, k) in v.iter().step_by(4).enumerate() {
        m.insert(*k, i);
    }
    let hits = v.iter().step_by(3).filter(|k| m.contains_key(k)).count();
    let s: String = (0..2_000).map(|i| format!("{i},")).collect();
    black_box((hits, s.len()));
    t.elapsed().as_secs_f64() * 1e3
}
