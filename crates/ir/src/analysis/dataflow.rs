//! Liveness and header-read extraction over the straight-line IR.
//!
//! The frontend if-converts every branch into predicated (guarded)
//! instructions, so the CFG of an [`IrProgram`] is a single basic block and
//! liveness collapses into one backward list walk.
//!
//! Reads, definitions and header writes are iterated straight off the operand
//! walk in [`crate::instr`]; every name here is borrowed from the program.

use crate::instr::{Instruction, OpCode, Operand};
use crate::program::IrProgram;
use std::collections::BTreeSet;

/// Liveness over the value graph: an instruction is live when it is effectful
/// ([`is_effectful`]), an explicit packet action, or its defined value flows
/// (transitively) into a live instruction's operands or guard.  Dead
/// instructions are pure computations nothing observes.
pub fn live_instructions(program: &IrProgram) -> Vec<bool> {
    let mut needed: BTreeSet<&str> = BTreeSet::new();
    let mut live = vec![false; program.instructions.len()];
    for (idx, instr) in program.instructions.iter().enumerate().rev() {
        let is_root =
            is_effectful(instr) || instr.op.is_packet_action() || matches!(instr.op, OpCode::NoOp);
        if is_root || instr.dest().is_some_and(|v| needed.contains(v)) {
            live[idx] = true;
            needed.extend(instr.read_vars());
        }
    }
    live
}

/// Whether an instruction has an effect observable outside the device: it
/// mutates a state object, rewrites a header field, draws from the tenant's
/// random stream, or takes a packet action other than the default `forward`.
pub fn is_effectful(instr: &Instruction) -> bool {
    match &instr.op {
        OpCode::WriteState { .. }
        | OpCode::CountState { .. }
        | OpCode::ClearState { .. }
        | OpCode::DeleteState { .. }
        | OpCode::SetHeader { .. }
        | OpCode::Back { .. }
        | OpCode::Mirror { .. }
        | OpCode::Drop
        | OpCode::Multicast { .. }
        | OpCode::CopyTo { .. }
        | OpCode::RandInt { .. } => true,
        OpCode::Forward
        | OpCode::NoOp
        | OpCode::Assign { .. }
        | OpCode::Alu { .. }
        | OpCode::Cmp { .. }
        | OpCode::Hash { .. }
        | OpCode::ReadState { .. }
        | OpCode::Crypto { .. }
        | OpCode::Checksum { .. } => false,
    }
}

/// Header fields (strictly `hdr.*`, not metadata) read by an instruction's
/// operands and guard, each once, ordered by name.
pub fn header_reads(instr: &Instruction) -> BTreeSet<&str> {
    instr
        .reads()
        .filter_map(|operand| match operand {
            Operand::Header(field) => Some(field.as_str()),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::instr::{CmpOp, Predicate};

    fn sample() -> IrProgram {
        let mut b = ProgramBuilder::new("p");
        b.array("acc", 1, 16, 32);
        b.assign("x", Operand::int(1)); // 0
        b.guarded(Predicate::new(Operand::hdr("op"), CmpOp::Eq, Operand::int(1)), |b| {
            b.assign("y", Operand::var("x")); // 1 (guarded def of y)
        });
        b.guarded(Predicate::new(Operand::hdr("op"), CmpOp::Eq, Operand::int(2)), |b| {
            b.assign("y", Operand::int(9)); // 2 (guarded def of y)
        });
        b.count(None, "acc", vec![Operand::var("y")], Operand::int(1)); // 3
        b.assign("unused", Operand::var("x")); // 4
        b.forward(); // 5
        b.build().expect("sample builds")
    }

    #[test]
    fn liveness_flows_backwards_from_effects() {
        let p = sample();
        let live = live_instructions(&p);
        // x feeds y feeds the count; the count and the forward are roots
        assert!(live[0] && live[1] && live[2] && live[3] && live[5]);
        assert!(!live[4], "`unused` feeds nothing observable");
    }

    #[test]
    fn header_read_write_extraction_skips_metadata() {
        let mut b = ProgramBuilder::new("p");
        b.guarded(
            Predicate::new(Operand::Meta("inc_user".into()), CmpOp::Eq, Operand::int(1)),
            |b| {
                b.assign("k", Operand::hdr("key"));
                b.set_header("op", Operand::var("k"));
            },
        );
        let p = b.build().unwrap();
        assert_eq!(header_reads(&p.instructions[0]).into_iter().collect::<Vec<_>>(), vec!["key"]);
        assert_eq!(p.instructions[0].op.header_writes().count(), 0);
        assert_eq!(p.instructions[1].op.header_writes().collect::<Vec<_>>(), vec!["op"]);
    }
}
