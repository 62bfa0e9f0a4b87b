//! Runtime values carried by data items in executions.
//!
//! The model keeps values deliberately simple: the privacy layer cares about
//! *which* values are visible, equal, maskable and enumerable, not about a
//! rich type system. `Masked` is a first-class citizen because the paper's
//! data-privacy mechanism replaces hidden values in-place, preserving graph
//! shape while removing content.

use std::fmt;

/// A data value flowing over an execution edge.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// Absent/unit value (e.g. a pure side-effect acknowledgment).
    Unit,
    /// Signed integer.
    Int(i64),
    /// Short text (keywords, query strings, summaries, ...).
    Str(String),
    /// A discrete attribute tuple — the representation used by the module
    /// privacy relations (each coordinate is a small domain value).
    Tuple(Vec<u16>),
    /// A value hidden by the data-privacy mechanism. Carries no content.
    Masked,
}

impl Value {
    /// Shorthand string constructor.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// Whether this value has been masked by a privacy mechanism.
    pub fn is_masked(&self) -> bool {
        matches!(self, Value::Masked)
    }

    /// A deterministic 64-bit fingerprint, used by the default execution
    /// oracle to derive downstream values from upstream ones (FNV-1a; the
    /// model must not depend on RNG crates).
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        match self {
            Value::Unit => eat(b"u"),
            Value::Int(i) => {
                eat(b"i");
                eat(&i.to_le_bytes());
            }
            Value::Str(s) => {
                eat(b"s");
                eat(s.as_bytes());
            }
            Value::Tuple(t) => {
                eat(b"t");
                for v in t {
                    eat(&v.to_le_bytes());
                }
            }
            Value::Masked => eat(b"m"),
        }
        h
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Tuple(t) => {
                write!(f, "⟨")?;
                for (i, v) in t.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "⟩")
            }
            Value::Masked => write!(f, "█"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masked_detection() {
        assert!(Value::Masked.is_masked());
        assert!(!Value::Int(3).is_masked());
    }

    #[test]
    fn fingerprint_deterministic_and_discriminating() {
        assert_eq!(Value::Int(7).fingerprint(), Value::Int(7).fingerprint());
        assert_ne!(Value::Int(7).fingerprint(), Value::Int(8).fingerprint());
        assert_ne!(Value::str("a").fingerprint(), Value::Int(7).fingerprint());
        assert_ne!(Value::Tuple(vec![1, 2]).fingerprint(), Value::Tuple(vec![2, 1]).fingerprint());
        // Tagged hashing: Str("") and Unit must differ.
        assert_ne!(Value::str("").fingerprint(), Value::Unit.fingerprint());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Unit.to_string(), "()");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::str("x").to_string(), "\"x\"");
        assert_eq!(Value::Tuple(vec![1, 2, 3]).to_string(), "⟨1,2,3⟩");
        assert_eq!(Value::Masked.to_string(), "█");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from("hi"), Value::str("hi"));
    }
}
