//! Hash tables over pre-hashed keys: the build side of hash joins, constant
//! IN-sets, and order-preserving deduplication of IN-list values.
//!
//! Keys are hashed once by the caller with [`Datum::key_hash`] /
//! [`super::hash_row`] and the tables never allocate per key: entries with
//! the same hash form a chain in insertion order, and the caller resolves
//! hash collisions with its own equality. The map over those hashes keeps
//! the standard library's keyed hasher, since the values come from user
//! data.

use super::Datum;
use std::collections::HashMap;

const END: u32 = u32::MAX;

/// Entry ids grouped by hash, each group chained in insertion order.
#[derive(Debug, Clone, Default)]
pub(crate) struct HashChains {
    /// hash → (first, last) entry of its chain
    heads: HashMap<u64, (u32, u32)>,
    /// `next[id]`: the entry after `id` in its chain
    next: Vec<u32>,
}

impl HashChains {
    /// Room for entry ids `0..n`.
    pub fn with_capacity(n: usize) -> Self {
        HashChains {
            heads: HashMap::with_capacity(n),
            next: Vec::with_capacity(n),
        }
    }

    /// Append entry `id` to the chain of `hash`. Ids need not be dense, but
    /// each is pushed at most once.
    pub fn push(&mut self, hash: u64, id: usize) {
        let id32 = u32::try_from(id).expect("hash table entry id fits in u32");
        if self.next.len() <= id {
            self.next.resize(id + 1, END);
        }
        let (_, last) = self.heads.entry(hash).or_insert((id32, id32));
        if *last != id32 {
            self.next[*last as usize] = id32;
            *last = id32;
        }
    }

    /// The entries pushed with `hash`, in push order.
    pub fn chain(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let mut cur = self.heads.get(&hash).map_or(END, |&(first, _)| first);
        std::iter::from_fn(move || {
            (cur != END).then(|| {
                let id = cur as usize;
                cur = self.next[id];
                id
            })
        })
    }
}

/// A set of datums under [`Datum::total_cmp`] equality (what a
/// `BTreeSet<SortKey>` of one-column keys holds), hashed by
/// [`Datum::key_hash`].
#[derive(Clone, Default)]
pub struct DatumSet {
    values: Vec<Datum>,
    chains: HashChains,
}

impl DatumSet {
    pub fn with_capacity(n: usize) -> Self {
        DatumSet {
            values: Vec::with_capacity(n),
            chains: HashChains::with_capacity(n),
        }
    }

    /// Add `v` unless an equal value is present; returns whether it was added.
    pub fn insert(&mut self, v: Datum) -> bool {
        let h = v.key_hash();
        if self.find(h, &v) {
            return false;
        }
        self.chains.push(h, self.values.len());
        self.values.push(v);
        true
    }

    pub fn contains(&self, v: &Datum) -> bool {
        self.find(v.key_hash(), v)
    }

    fn find(&self, h: u64, v: &Datum) -> bool {
        self.chains
            .chain(h)
            .any(|i| self.values[i].total_cmp(v).is_eq())
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl std::fmt::Debug for DatumSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(&self.values).finish()
    }
}

/// Set equality: the same members, whatever their insertion order.
impl PartialEq for DatumSet {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.values.iter().all(|v| other.contains(v))
    }
}

/// The distinct values of `values` in first-appearance order, distinct by
/// structural equality (`==`: the same type and value; one NULL kept).
/// Structural equality is what keeps `x IN (list)` unchanged: two
/// structurally equal items compare identically against any `x`.
pub fn distinct_values<'a>(values: impl IntoIterator<Item = &'a Datum>) -> Vec<&'a Datum> {
    let values = values.into_iter();
    let mut out: Vec<&Datum> = Vec::with_capacity(values.size_hint().0);
    let mut chains = HashChains::with_capacity(values.size_hint().0);
    for v in values {
        let h = v.key_hash();
        if !chains.chain(h).any(|i| out[i] == v) {
            chains.push(h, out.len());
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_keep_push_order_per_hash() {
        let mut c = HashChains::with_capacity(6);
        for (id, h) in [(0, 7), (1, 9), (2, 7), (4, 7), (5, 9)] {
            c.push(h, id);
        }
        assert_eq!(c.chain(7).collect::<Vec<_>>(), vec![0, 2, 4]);
        assert_eq!(c.chain(9).collect::<Vec<_>>(), vec![1, 5]);
        assert_eq!(c.chain(8).count(), 0);
    }

    #[test]
    fn datum_set_matches_sort_key_equality() {
        let set_of = |values: &[Datum]| {
            let mut set = DatumSet::with_capacity(values.len());
            for v in values {
                set.insert(v.clone());
            }
            set
        };
        let set = set_of(&[
            Datum::Int(1),
            Datum::Float(1.0),
            Datum::from_text("2020-06-01"),
            Datum::Int(2),
        ]);
        assert_eq!(set.len(), 3, "1 and 1.0 are one member");
        assert!(set.contains(&Datum::Float(1.0)));
        assert!(set.contains(&Datum::Float(2.0)));
        let ts = crate::types::time::parse_timestamp("2020-06-01").unwrap();
        assert!(
            set.contains(&Datum::Timestamp(ts)),
            "text equals its timestamp"
        );
        assert!(!set.contains(&Datum::Int(3)));
        assert!(!set.contains(&Datum::from_text("1")));
        let reordered = set_of(&[
            Datum::Int(2),
            Datum::from_text("2020-06-01"),
            Datum::Float(1.0),
        ]);
        assert_eq!(set, reordered);
    }

    #[test]
    fn distinct_values_are_structural_and_ordered() {
        let vals = [
            Datum::Int(3),
            Datum::Null,
            Datum::Int(1),
            Datum::Float(1.0),
            Datum::Int(3),
            Datum::Null,
        ];
        let d: Vec<Datum> = distinct_values(&vals).into_iter().cloned().collect();
        assert_eq!(
            d,
            vec![Datum::Int(3), Datum::Null, Datum::Int(1), Datum::Float(1.0)]
        );
    }
}
