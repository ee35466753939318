//! Value types and runtime values.
//!
//! The IR is statically typed with a small set of types mirroring the ClickINC
//! grammar (Fig. 5 / Fig. 17 of the paper): fixed-width bit vectors, signed
//! integers, floating-point values and booleans.  The same [`Value`] enum is also
//! used by the data-plane emulator so that compiled programs can be executed
//! without an additional translation layer.

use std::fmt;

/// Static type of a variable, header field or object cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// A fixed-width bit vector (`bit<w>` in the IR syntax).
    Bit(u16),
    /// A signed integer (lowered to `bit<32>` or `bit<64>` by the backends).
    Int,
    /// An IEEE-754 double; only supported by FPGA/NFP class devices (class BCA).
    Float,
    /// A single-bit boolean.
    Bool,
}

impl ValueType {
    /// Bit width occupied by this type in the packet header vector / registers.
    pub fn width_bits(&self) -> u16 {
        match self {
            ValueType::Bit(w) => *w,
            ValueType::Int => 32,
            ValueType::Float => 32,
            ValueType::Bool => 1,
        }
    }

    /// Whether this type requires floating-point capability (class BCA).
    pub fn is_float(&self) -> bool {
        matches!(self, ValueType::Float)
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Bit(w) => write!(f, "bit<{w}>"),
            ValueType::Int => write!(f, "int"),
            ValueType::Float => write!(f, "float"),
            ValueType::Bool => write!(f, "bool"),
        }
    }
}

/// A runtime value, used by the constant folder in the frontend and by the
/// data-plane emulator when interpreting placed IR snippets.
///
/// 24 bytes on the workspace toolchain: the `Vec` in `Bytes` sets the size,
/// and the tag lives in its capacity's niche (a capacity never exceeds
/// `isize::MAX`).  Boxing it (`Bytes(Box<Vec<u8>>)`, 16 bytes) was measured
/// in PR 23, when the enum was taken to be 32 bytes: +4.5 % packets/s and
/// −10 % RSS on `mlagg_serve`, but `kvs_serve` `setup_s` 6.3 → 9.0 ms (an
/// allocator size-class effect, past the benchmark's 25 % bound) — left as
/// it is.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Signed integer (also used for bit vectors up to 64 bits).
    Int(i64),
    /// Floating-point value.
    Float(f64),
    /// Boolean value.
    Bool(bool),
    /// Opaque byte string (wide keys such as the 128-bit KVS key).
    Bytes(Vec<u8>),
    /// Absence of a value (e.g. a table miss).
    None,
}

impl Value {
    /// Interpret the value as an integer, coercing booleans and truncating floats.
    ///
    /// Returns `None` for [`Value::None`] and [`Value::Bytes`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Float(v) => Some(*v as i64),
            Value::Bool(b) => Some(i64::from(*b)),
            Value::Bytes(_) | Value::None => None,
        }
    }

    /// Interpret the value as a float.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Bytes(_) | Value::None => None,
        }
    }

    /// Whether this is [`Value::None`].
    pub fn is_none(&self) -> bool {
        matches!(self, Value::None)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Bytes(b) => write!(f, "0x{}", hex(b)),
            Value::None => write!(f, "None"),
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_of_types() {
        assert_eq!(ValueType::Bit(128).width_bits(), 128);
        assert_eq!(ValueType::Int.width_bits(), 32);
        assert_eq!(ValueType::Bool.width_bits(), 1);
        assert!(ValueType::Float.is_float());
        assert!(!ValueType::Int.is_float());
    }

    #[test]
    fn value_coercions() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Float(2.9).as_int(), Some(2));
        assert_eq!(Value::Bool(true).as_int(), Some(1));
        assert_eq!(Value::None.as_int(), None);
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::Bytes(vec![1]).as_float(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ValueType::Bit(16).to_string(), "bit<16>");
        assert_eq!(Value::Bytes(vec![0xab, 0x01]).to_string(), "0xab01");
        assert_eq!(Value::None.to_string(), "None");
    }
}
