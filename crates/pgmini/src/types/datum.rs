//! Runtime values (`Datum`), rows, and their two hash functions: `hash64`,
//! the hash partitioning of distributed tables, and `key_hash`, the hash the
//! executor's hash tables (joins, IN-sets) key on.

use super::json::Json;
use super::time;
use crate::error::{ErrorCode, PgError, PgResult};
use sqlparse::ast::TypeName;
use std::cmp::Ordering;

/// A runtime value. `Timestamp` is microseconds since the Unix epoch.
#[derive(Debug, Clone, PartialEq)]
pub enum Datum {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(String),
    Json(Json),
    Timestamp(i64),
}

/// A tuple of datums.
pub type Row = Vec<Datum>;

impl Datum {
    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null)
    }

    /// The normalised type of this value, or `None` for NULL.
    pub fn type_name(&self) -> Option<TypeName> {
        Some(match self {
            Datum::Null => return None,
            Datum::Bool(_) => TypeName::Bool,
            Datum::Int(_) => TypeName::Int,
            Datum::Float(_) => TypeName::Float,
            Datum::Text(_) => TypeName::Text,
            Datum::Json(_) => TypeName::Json,
            Datum::Timestamp(_) => TypeName::Timestamp,
        })
    }

    pub fn from_text(s: &str) -> Datum {
        Datum::Text(s.to_string())
    }

    /// SQL-style text rendering (no quotes), as `::text` would produce.
    pub fn to_text(&self) -> String {
        match self {
            Datum::Null => String::new(),
            Datum::Bool(true) => "t".to_string(),
            Datum::Bool(false) => "f".to_string(),
            Datum::Int(v) => v.to_string(),
            Datum::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                    format!("{v}")
                } else {
                    format!("{v}")
                }
            }
            Datum::Text(s) => s.clone(),
            Datum::Json(j) => j.to_string(),
            Datum::Timestamp(t) => time::format_timestamp(*t),
        }
    }

    /// Numeric view for arithmetic; errors on non-numeric types.
    pub fn as_f64(&self) -> PgResult<f64> {
        match self {
            Datum::Int(v) => Ok(*v as f64),
            Datum::Float(v) => Ok(*v),
            Datum::Bool(b) => Ok(*b as i64 as f64),
            other => Err(PgError::new(
                ErrorCode::InvalidText,
                format!("value is not numeric: {}", other.to_text()),
            )),
        }
    }

    pub fn as_i64(&self) -> PgResult<i64> {
        match self {
            Datum::Int(v) => Ok(*v),
            Datum::Float(v) => Ok(*v as i64),
            Datum::Bool(b) => Ok(*b as i64),
            other => Err(PgError::new(
                ErrorCode::InvalidText,
                format!("value is not an integer: {}", other.to_text()),
            )),
        }
    }

    pub fn as_bool(&self) -> PgResult<bool> {
        match self {
            Datum::Bool(b) => Ok(*b),
            other => Err(PgError::new(
                ErrorCode::InvalidText,
                format!("value is not boolean: {}", other.to_text()),
            )),
        }
    }

    pub fn as_str(&self) -> PgResult<&str> {
        match self {
            Datum::Text(s) => Ok(s),
            other => Err(PgError::new(
                ErrorCode::InvalidText,
                format!("value is not text: {}", other.to_text()),
            )),
        }
    }

    /// Cast to `ty` following PostgreSQL's conversion rules for the types we
    /// support. NULL casts to NULL of any type.
    pub fn cast_to(&self, ty: TypeName) -> PgResult<Datum> {
        if self.is_null() {
            return Ok(Datum::Null);
        }
        let bad = |from: &Datum| {
            PgError::new(
                ErrorCode::InvalidText,
                format!("cannot cast {} to {}", from.to_text(), ty.as_str()),
            )
        };
        Ok(match ty {
            TypeName::Int => match self {
                Datum::Int(v) => Datum::Int(*v),
                Datum::Float(v) => Datum::Int(v.round() as i64),
                Datum::Bool(b) => Datum::Int(*b as i64),
                Datum::Text(s) => Datum::Int(
                    s.trim().parse::<i64>().map_err(|_| bad(self))?,
                ),
                Datum::Json(Json::Number(n)) => Datum::Int(n.round() as i64),
                _ => return Err(bad(self)),
            },
            TypeName::Float => match self {
                Datum::Int(v) => Datum::Float(*v as f64),
                Datum::Float(v) => Datum::Float(*v),
                Datum::Text(s) => {
                    Datum::Float(s.trim().parse::<f64>().map_err(|_| bad(self))?)
                }
                Datum::Json(Json::Number(n)) => Datum::Float(*n),
                _ => return Err(bad(self)),
            },
            TypeName::Text => Datum::Text(self.to_text()),
            TypeName::Bool => match self {
                Datum::Bool(b) => Datum::Bool(*b),
                Datum::Int(v) => Datum::Bool(*v != 0),
                Datum::Text(s) => match s.trim() {
                    "t" | "true" | "on" | "1" => Datum::Bool(true),
                    "f" | "false" | "off" | "0" => Datum::Bool(false),
                    _ => return Err(bad(self)),
                },
                _ => return Err(bad(self)),
            },
            TypeName::Json => match self {
                Datum::Json(j) => Datum::Json(j.clone()),
                Datum::Text(s) => Datum::Json(Json::parse(s)?),
                Datum::Int(v) => Datum::Json(Json::Number(*v as f64)),
                Datum::Float(v) => Datum::Json(Json::Number(*v)),
                Datum::Bool(b) => Datum::Json(Json::Bool(*b)),
                _ => return Err(bad(self)),
            },
            TypeName::Timestamp => match self {
                Datum::Timestamp(t) => Datum::Timestamp(*t),
                Datum::Text(s) => {
                    Datum::Timestamp(time::parse_timestamp(s).ok_or_else(|| bad(self))?)
                }
                Datum::Int(v) => Datum::Timestamp(*v),
                _ => return Err(bad(self)),
            },
        })
    }

    /// SQL comparison: NULL compares as unknown (`None`); numerics compare
    /// across Int/Float.
    pub fn sql_cmp(&self, other: &Datum) -> Option<Ordering> {
        match (self, other) {
            (Datum::Null, _) | (_, Datum::Null) => None,
            (Datum::Int(a), Datum::Int(b)) => Some(a.cmp(b)),
            (Datum::Int(a), Datum::Float(b)) => (*a as f64).partial_cmp(b),
            (Datum::Float(a), Datum::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Datum::Float(a), Datum::Float(b)) => a.partial_cmp(b),
            (Datum::Bool(a), Datum::Bool(b)) => Some(a.cmp(b)),
            (Datum::Text(a), Datum::Text(b)) => Some(a.cmp(b)),
            (Datum::Timestamp(a), Datum::Timestamp(b)) => Some(a.cmp(b)),
            (Datum::Timestamp(a), Datum::Text(b)) => {
                time::parse_timestamp(b).map(|bt| a.cmp(&bt))
            }
            (Datum::Text(a), Datum::Timestamp(b)) => {
                time::parse_timestamp(a).map(|at| at.cmp(b))
            }
            (Datum::Json(a), Datum::Json(b)) => {
                if a == b {
                    Some(Ordering::Equal)
                } else {
                    Some(a.to_string().cmp(&b.to_string()))
                }
            }
            _ => None,
        }
    }

    /// Total order for sorting and B-tree keys: NULLs sort last (PostgreSQL's
    /// default for ascending order), cross-type falls back to type rank.
    pub fn total_cmp(&self, other: &Datum) -> Ordering {
        match (self.is_null(), other.is_null()) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Greater,
            (false, true) => return Ordering::Less,
            _ => {}
        }
        self.sql_cmp(other).unwrap_or_else(|| self.type_rank().cmp(&other.type_rank()))
    }

    fn type_rank(&self) -> u8 {
        match self {
            Datum::Null => 7,
            Datum::Bool(_) => 1,
            Datum::Int(_) => 2,
            Datum::Float(_) => 3,
            Datum::Timestamp(_) => 4,
            Datum::Text(_) => 5,
            Datum::Json(_) => 6,
        }
    }

    /// 64-bit hash behind the hash partitioning of distributed tables: the
    /// distribution hash of shard routing and co-location
    /// (`citrus::metadata::dist_hash`, which also buckets rollup groups).
    /// Int and Float of equal value hash identically, mirroring how
    /// co-location requires hash compatibility within a distribution-column
    /// type class. Changing it moves rows between shards; executor hash
    /// tables use [`Datum::key_hash`] instead.
    pub fn hash64(&self) -> u64 {
        match self {
            Datum::Null => 0,
            Datum::Bool(b) => splitmix64(2 + *b as u64),
            Datum::Int(v) => splitmix64(*v as u64 ^ 0x9E37_79B9_7F4A_7C15),
            Datum::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() && v.abs() < 9.0e18 {
                    // hash like the equal integer
                    splitmix64((*v as i64) as u64 ^ 0x9E37_79B9_7F4A_7C15)
                } else {
                    splitmix64(v.to_bits())
                }
            }
            Datum::Text(s) => hash_bytes(s.as_bytes()),
            Datum::Timestamp(t) => splitmix64(*t as u64 ^ 0x2545_F491_4F6C_DD1D),
            Datum::Json(j) => {
                let mut repr = String::new();
                j.hash_repr(&mut repr);
                hash_bytes(repr.as_bytes())
            }
        }
    }

    /// 64-bit hash consistent with [`Datum::total_cmp`] equality: two datums
    /// that compare equal hash equal, across types too. Int and Float hash
    /// their `f64` value (`1` joins `1.0`), and a Text that parses as a
    /// timestamp hashes like that Timestamp (`'2020-06-01'` joins the
    /// timestamp). Hash joins, constant IN-sets and IN-list deduplication
    /// key on it. NaN is the one exception: `total_cmp` calls it equal to
    /// every Float, which no hash can follow.
    pub fn key_hash(&self) -> u64 {
        match self {
            Datum::Null => 0x5555_5555_5555_5555,
            Datum::Bool(b) => splitmix64(2 + *b as u64),
            Datum::Int(v) => hash_f64(*v as f64),
            Datum::Float(v) => hash_f64(*v),
            Datum::Timestamp(t) => hash_timestamp(*t),
            Datum::Text(s) => match time::parse_timestamp(s) {
                Some(t) => hash_timestamp(t),
                None => hash_bytes(s.as_bytes()),
            },
            Datum::Json(j) => hash_json(j),
        }
    }
}

/// Hash of a numeric value by its `f64` (`-0.0` hashes like `0.0`, which it
/// equals).
fn hash_f64(v: f64) -> u64 {
    let v = if v == 0.0 { 0.0 } else { v };
    splitmix64(v.to_bits() ^ 0x9E37_79B9_7F4A_7C15)
}

fn hash_timestamp(t: i64) -> u64 {
    splitmix64(t as u64 ^ 0x2545_F491_4F6C_DD1D)
}

/// Structural JSON hash in field order, as `Json`'s equality compares.
fn hash_json(j: &Json) -> u64 {
    match j {
        Json::Null => 1,
        Json::Bool(b) => splitmix64(4 + *b as u64),
        Json::Number(n) => hash_f64(*n),
        Json::String(s) => hash_bytes(s.as_bytes()),
        Json::Array(items) => {
            items.iter().fold(0x4A53_4F4E_4152_5259, |h, i| splitmix64(h ^ hash_json(i)))
        }
        Json::Object(fields) => fields.iter().fold(0x4A53_4F4E_4F42_4A45, |h, (k, v)| {
            splitmix64(splitmix64(h ^ hash_bytes(k.as_bytes())) ^ hash_json(v))
        }),
    }
}

/// Finaliser from the splitmix64 generator; good avalanche, deterministic.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over bytes, finished with splitmix64 for avalanche.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    splitmix64(h)
}

/// Hash a multi-column key consistently with [`SortKey`] equality (the
/// per-column [`Datum::key_hash`], combined in column order).
pub fn hash_row<'a>(values: impl IntoIterator<Item = &'a Datum>) -> u64 {
    let mut h = 0xA076_1D64_78BD_642F_u64;
    for v in values {
        h = splitmix64(h ^ v.key_hash());
    }
    h
}

/// Wrapper giving rows a total order for B-tree keys and sort operators.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey(pub Vec<Datum>);

impl Eq for SortKey {}

impl PartialOrd for SortKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SortKey {
    fn cmp(&self, other: &Self) -> Ordering {
        for (a, b) in self.0.iter().zip(other.0.iter()) {
            match a.total_cmp(b) {
                Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        self.0.len().cmp(&other.0.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_type_numeric_equality() {
        assert_eq!(Datum::Int(3).sql_cmp(&Datum::Float(3.0)), Some(Ordering::Equal));
        assert_eq!(Datum::Float(2.5).sql_cmp(&Datum::Int(3)), Some(Ordering::Less));
    }

    #[test]
    fn null_compares_unknown_but_sorts_last() {
        assert_eq!(Datum::Null.sql_cmp(&Datum::Int(1)), None);
        assert_eq!(Datum::Null.total_cmp(&Datum::Int(1)), Ordering::Greater);
        assert_eq!(Datum::Null.total_cmp(&Datum::Null), Ordering::Equal);
    }

    #[test]
    fn int_float_hash_compat() {
        assert_eq!(Datum::Int(42).hash64(), Datum::Float(42.0).hash64());
        assert_ne!(Datum::Int(42).hash64(), Datum::Int(43).hash64());
    }

    #[test]
    fn hash_is_well_distributed_over_buckets() {
        let mut buckets = [0u32; 32];
        for i in 0..32_000 {
            let h = Datum::Int(i).hash64();
            buckets[(h % 32) as usize] += 1;
        }
        for b in buckets {
            assert!((800..1200).contains(&b), "skewed bucket: {b}");
        }
    }

    #[test]
    fn text_and_json_hashing() {
        assert_eq!(Datum::from_text("abc").hash64(), Datum::from_text("abc").hash64());
        assert_ne!(Datum::from_text("abc").hash64(), Datum::from_text("abd").hash64());
        let j1 = Datum::Json(Json::parse(r#"{"a":1,"b":2}"#).unwrap());
        let j2 = Datum::Json(Json::parse(r#"{"b":2,"a":1}"#).unwrap());
        assert_eq!(j1.hash64(), j2.hash64());
    }

    #[test]
    fn casts() {
        assert_eq!(Datum::from_text("42").cast_to(TypeName::Int).unwrap(), Datum::Int(42));
        assert_eq!(Datum::Int(1).cast_to(TypeName::Bool).unwrap(), Datum::Bool(true));
        assert_eq!(
            Datum::from_text("2020-01-01").cast_to(TypeName::Timestamp).unwrap(),
            Datum::Timestamp(time::parse_timestamp("2020-01-01").unwrap())
        );
        assert_eq!(Datum::Null.cast_to(TypeName::Int).unwrap(), Datum::Null);
        assert!(Datum::from_text("xyz").cast_to(TypeName::Int).is_err());
        let j = Datum::from_text(r#"{"k": 1}"#).cast_to(TypeName::Json).unwrap();
        assert!(matches!(j, Datum::Json(_)));
    }

    #[test]
    fn timestamp_text_comparison() {
        let t = Datum::Timestamp(time::parse_timestamp("2020-06-01").unwrap());
        assert_eq!(t.sql_cmp(&Datum::from_text("2020-06-01")), Some(Ordering::Equal));
        assert_eq!(t.sql_cmp(&Datum::from_text("2021-01-01")), Some(Ordering::Less));
    }

    #[test]
    fn sort_key_ordering() {
        let a = SortKey(vec![Datum::Int(1), Datum::from_text("b")]);
        let b = SortKey(vec![Datum::Int(1), Datum::from_text("c")]);
        let c = SortKey(vec![Datum::Int(2)]);
        assert!(a < b);
        assert!(b < c);
        let with_null = SortKey(vec![Datum::Null]);
        assert!(a < with_null, "nulls sort last");
    }

    #[test]
    fn row_hash_order_sensitive() {
        let a = hash_row(&[Datum::Int(1), Datum::Int(2)]);
        let b = hash_row(&[Datum::Int(2), Datum::Int(1)]);
        assert_ne!(a, b);
    }
}
