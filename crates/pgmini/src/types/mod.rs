//! Value types: datums, JSON, text operators, and civil time math.

pub mod datum;
pub mod hashtable;
pub mod json;
pub mod text_ops;
pub mod time;

pub use datum::{hash_bytes, hash_row, splitmix64, Datum, Row, SortKey};
pub(crate) use hashtable::HashChains;
pub use hashtable::{distinct_values, DatumSet};
pub use json::Json;
