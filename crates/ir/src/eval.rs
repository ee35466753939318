//! Value-level evaluation of ALU operations and comparisons.
//!
//! These are the *reference semantics* of the IR: the emulator's interpreter,
//! the register VM, and the frontend's constant folder all call the same two
//! functions, so a folded constant is bit-identical to what either execution
//! backend would have computed at packet time.

use crate::instr::{AluOp, CmpOp};
use crate::types::Value;

/// Compare two values under the interpreter's coercion rules: `None` equals
/// only `None` (and satisfies the non-strict orderings against it), `None`
/// against anything else satisfies only `!=`, and everything else coerces to
/// integers.
pub fn compare(a: &Value, op: CmpOp, b: &Value) -> bool {
    match (a, b) {
        (Value::None, Value::None) => matches!(op, CmpOp::Eq | CmpOp::Le | CmpOp::Ge),
        (Value::None, _) | (_, Value::None) => matches!(op, CmpOp::Ne),
        _ => {
            let (x, y) = (a.as_int().unwrap_or(0), b.as_int().unwrap_or(0));
            op.eval_int(x, y)
        }
    }
}

/// Apply an ALU operation. Integer arithmetic wraps, division and modulo by
/// zero yield zero, and `Slice` extracts the bit range packed into `b` as
/// `(hi << 8) | lo`. The `float` flag selects the floating-point unit, which
/// supports the arithmetic subset and passes `a` through for the rest.
pub fn alu(op: AluOp, a: &Value, b: &Value, float: bool) -> Value {
    if float {
        let (x, y) = (a.as_float().unwrap_or(0.0), b.as_float().unwrap_or(0.0));
        let r = match op {
            AluOp::Add => x + y,
            AluOp::Sub => x - y,
            AluOp::Mul => x * y,
            AluOp::Div => {
                if y == 0.0 {
                    0.0
                } else {
                    x / y
                }
            }
            AluOp::Min => x.min(y),
            AluOp::Max => x.max(y),
            _ => x,
        };
        return Value::Float(r);
    }
    Value::Int(alu_int(op, a.as_int().unwrap_or(0), b.as_int().unwrap_or(0)))
}

/// The integer unit of [`alu`]: what `alu(op, &Int(x), &Int(y), false)`
/// computes, without the `Value` round trip — the register VM calls it
/// directly when both operands are already integers.  Nothing here panics,
/// whatever the build profile: `i64::MIN / -1` wraps like the other
/// arithmetic, and shift amounts (including `Slice`'s low bit) are taken
/// modulo 64.
#[inline]
pub fn alu_int(op: AluOp, x: i64, y: i64) -> i64 {
    match op {
        AluOp::Add => x.wrapping_add(y),
        AluOp::Sub => x.wrapping_sub(y),
        AluOp::Mul => x.wrapping_mul(y),
        AluOp::Div => {
            if y == 0 {
                0
            } else {
                x.wrapping_div(y)
            }
        }
        AluOp::Mod => {
            if y == 0 {
                0
            } else {
                x.wrapping_rem(y)
            }
        }
        AluOp::And => x & y,
        AluOp::Or => x | y,
        AluOp::Xor => x ^ y,
        AluOp::Shl => x.wrapping_shl(y as u32),
        AluOp::Shr => x.wrapping_shr(y as u32),
        AluOp::Min => x.min(y),
        AluOp::Max => x.max(y),
        AluOp::Slice => {
            let hi = (y >> 8) & 0xff;
            let lo = y & 0xff;
            let width = (hi - lo + 1).clamp(1, 63);
            // a 63-bit range wraps `i64::MIN - 1` to the 63-bit mask
            x.wrapping_shr(lo as u32) & (1i64 << width).wrapping_sub(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ALU_OPS: [AluOp; 13] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Mod,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::Min,
        AluOp::Max,
        AluOp::Slice,
    ];
    const CMP_OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
    const EDGES: [i64; 5] = [0, 1, -1, i64::MIN, i64::MAX];

    /// An operand drawn from the edge values, shift amounts 0–255, packed
    /// `Slice` ranges or the whole `i64` range, by `pick`.
    fn operand(pick: u8, raw: i64) -> i64 {
        match pick % 4 {
            0 => EDGES[(raw as u64 % EDGES.len() as u64) as usize],
            1 => raw & 0xff,
            2 => raw & 0xffff,
            _ => raw,
        }
    }

    /// The integer entry points agree with the `Value` ones on `Int` pairs.
    fn assert_int_paths_agree(x: i64, y: i64) {
        for op in ALU_OPS {
            let expected = alu(op, &Value::Int(x), &Value::Int(y), false);
            assert_eq!(Value::Int(alu_int(op, x, y)), expected, "{x} {op} {y}");
        }
        for op in CMP_OPS {
            let expected = compare(&Value::Int(x), op, &Value::Int(y));
            assert_eq!(op.eval_int(x, y), expected, "{x} {op:?} {y}");
        }
    }

    #[test]
    fn int_paths_agree_on_every_edge_pair() {
        for x in EDGES {
            for y in EDGES.into_iter().chain(0..=255) {
                assert_int_paths_agree(x, y);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn alu_int_and_eval_int_match_alu_and_compare(
            px in any::<u8>(), x in any::<i64>(), py in any::<u8>(), y in any::<i64>(),
        ) {
            assert_int_paths_agree(operand(px, x), operand(py, y));
        }
    }

    #[test]
    fn min_over_minus_one_wraps_instead_of_panicking() {
        let (min, minus_one) = (Value::Int(i64::MIN), Value::Int(-1));
        assert_eq!(alu(AluOp::Div, &min, &minus_one, false), Value::Int(i64::MIN));
        assert_eq!(alu(AluOp::Mod, &min, &minus_one, false), Value::Int(0));
    }

    #[test]
    fn slice_low_bit_past_63_wraps_like_a_shift() {
        // lo = 64 + 4 shifts by 4, as `Shr` does, and hi = lo + 2 keeps three bits
        let range = Value::Int((70 << 8) | 68);
        assert_eq!(alu(AluOp::Slice, &Value::Int(0x30), &range, false), Value::Int(3));
        assert_eq!(alu_int(AluOp::Slice, 0x30, (255 << 8) | 255), 0);
        // the widest range keeps the low 63 bits
        assert_eq!(alu_int(AluOp::Slice, -1, 62 << 8), i64::MAX);
    }

    #[test]
    fn none_compares_like_the_interpreter() {
        assert!(compare(&Value::None, CmpOp::Eq, &Value::None));
        assert!(compare(&Value::None, CmpOp::Le, &Value::None));
        assert!(!compare(&Value::None, CmpOp::Lt, &Value::None));
        assert!(compare(&Value::None, CmpOp::Ne, &Value::Int(3)));
        assert!(!compare(&Value::None, CmpOp::Eq, &Value::Int(3)));
    }

    #[test]
    fn integer_division_by_zero_is_zero() {
        assert_eq!(alu(AluOp::Div, &Value::Int(7), &Value::Int(0), false), Value::Int(0));
        assert_eq!(alu(AluOp::Mod, &Value::Int(7), &Value::Int(0), false), Value::Int(0));
        assert_eq!(alu(AluOp::Div, &Value::Float(7.0), &Value::Int(0), true), Value::Float(0.0));
    }

    #[test]
    fn slice_extracts_the_packed_bit_range() {
        // bits [11:8] of 0xabcd = 0xb; range packed as (11 << 8) | 8
        let range = Value::Int((11 << 8) | 8);
        assert_eq!(alu(AluOp::Slice, &Value::Int(0xabcd), &range, false), Value::Int(0xb));
    }

    #[test]
    fn wrapping_matches_two_complement() {
        assert_eq!(
            alu(AluOp::Add, &Value::Int(i64::MAX), &Value::Int(1), false),
            Value::Int(i64::MIN)
        );
    }
}
