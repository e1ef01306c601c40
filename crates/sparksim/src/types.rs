//! Scalar values and data types of the engine.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Logical column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string (dictionary-encoded in storage).
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "int"),
            DataType::Float => write!(f, "float"),
            DataType::Str => write!(f, "string"),
        }
    }
}

/// A scalar value, including SQL NULL.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL (of any type).
    Null,
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
    /// String value.
    Str(String),
}

impl Value {
    /// The data type of the value, if not NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// True for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (ints widen to float); `None` for NULL/strings.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view; `None` otherwise.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view; `None` otherwise.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL comparison semantics: NULL compares as `None` (unknown); two
    /// integers compare exactly, as the hash join's keys do; an integer
    /// and a float compare through `f64`; strings compare
    /// lexicographically.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }
}

/// Floats hash by bit pattern: values that are `==` hash equal except
/// `0.0` / `-0.0`, so this serves fingerprints that are confirmed by
/// `==` afterwards, not `Eq`-keyed maps (`Value` is not `Eq`).
impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Value::Null => {}
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn cross_numeric_comparison() {
        assert_eq!(Value::Int(2).sql_cmp(&Value::Float(2.5)), Some(Ordering::Less));
        assert_eq!(Value::Float(3.0).sql_cmp(&Value::Int(3)), Some(Ordering::Equal));
    }

    /// 2^53 and 2^53 + 1 are one `f64`, but two integers.
    #[test]
    fn integers_compare_exactly_past_two_to_the_53() {
        let (a, b) = (Value::Int(1 << 53), Value::Int((1 << 53) + 1));
        assert_eq!(a.sql_cmp(&b), Some(Ordering::Less));
        assert_eq!(b.sql_cmp(&a), Some(Ordering::Greater));
        assert_eq!(a.sql_cmp(&Value::Float((1u64 << 53) as f64)), Some(Ordering::Equal));
    }

    #[test]
    fn string_comparison_is_lexicographic() {
        assert_eq!(
            Value::Str("abc".into()).sql_cmp(&Value::Str("abd".into())),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn strings_do_not_compare_to_numbers() {
        assert_eq!(Value::Str("1".into()).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Str("x".into()).to_string(), "'x'");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
