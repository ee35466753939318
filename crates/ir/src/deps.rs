//! Dependency-edge computation.
//!
//! Paper §5.2, Step 1: "If an instruction *i* reads a variable whose value is
//! written by a previous instruction *j*, *i* depends on *j*. [...] All
//! instructions that write or read the same state are mutually dependent."
//! This module computes both flavours of edges over an instruction slice.
//! What an instruction reads and writes comes straight from the operand walk
//! in [`crate::instr`] ([`Instruction::reads`], [`Instruction::dest`],
//! [`OpCode::header_writes`]); the one fact the walk cannot know — which
//! state an access shares, given the object declarations — is [`state_key`].

use crate::instr::{Instruction, OpCode, Operand};
use crate::object::{ObjectDecl, ObjectKind};
use crate::types::Value;
use std::collections::BTreeMap;

/// The state an instruction shares with others: the stateful object it
/// accesses, and the row when the access can be narrowed to one.
///
/// Objects that are *not* stateful (Hash, Crypto, stateless tables) share
/// nothing and yield `None`; `objects` supplies that distinction.  If the
/// referenced object cannot be found it is conservatively treated as stateful.
///
/// Multi-row register arrays addressed with a *constant* row index are a
/// collection of independent register arrays: accesses to different rows
/// carry no mutual state dependency, which is what lets the placement engine
/// split e.g. the MLAgg parameter vector across devices.  The key is refined
/// to `(object, Some(row))` in that case.
pub fn state_key<'a>(
    instr: &'a Instruction,
    objects: &[ObjectDecl],
) -> Option<(&'a str, Option<i64>)> {
    let name = instr.object()?;
    let Some(decl) = objects.iter().find(|o| o.name == name) else {
        return Some((name, None));
    };
    if !decl.kind.is_stateful() {
        return None;
    }
    let first_index = match &instr.op {
        OpCode::ReadState { index, .. }
        | OpCode::WriteState { index, .. }
        | OpCode::CountState { index, .. }
        | OpCode::DeleteState { index, .. } => index.first(),
        _ => None,
    };
    match (&decl.kind, first_index) {
        (ObjectKind::Array { rows, .. }, Some(Operand::Const(Value::Int(row)))) if *rows > 1 => {
            Some((name, Some(*row)))
        }
        _ => Some((name, None)),
    }
}

/// The kind of dependency between two instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DependencyKind {
    /// True data dependency: the later instruction reads a variable or header
    /// field written by the earlier one.
    Data,
    /// State-sharing dependency: both instructions access the same stateful
    /// object; per the paper they are *mutually* dependent and must co-locate.
    State,
}

/// Compute dependency edges over a slice of instructions.
///
/// Returns `(from, to, kind)` triples over instruction *indices* (not ids):
///
/// * a [`DependencyKind::Data`] edge from the defining instruction to each later
///   instruction reading the defined variable or written header field;
/// * a pair of [`DependencyKind::State`] edges (both directions) between every
///   pair of instructions sharing a stateful object, reflecting the paper's
///   "mutually dependent" rule (these are what the block builder later collapses
///   into a single block).
pub fn dependency_edges(
    instructions: &[Instruction],
    objects: &[ObjectDecl],
) -> Vec<(usize, usize, DependencyKind)> {
    let mut edges = Vec::new();

    // variable/field definition sites; `Header` and `Meta` reads share the one
    // field namespace header writes define
    let mut var_defs: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut field_defs: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (idx, instr) in instructions.iter().enumerate() {
        if let Some(v) = instr.dest() {
            var_defs.entry(v).or_default().push(idx);
        }
        for fld in instr.op.header_writes() {
            field_defs.entry(fld).or_default().push(idx);
        }
    }

    for (idx, instr) in instructions.iter().enumerate() {
        for operand in instr.reads() {
            let defs = match operand {
                Operand::Var(v) => var_defs.get(v.as_str()),
                Operand::Header(fld) | Operand::Meta(fld) => field_defs.get(fld.as_str()),
                Operand::Const(_) => None,
            };
            // last definition strictly before this instruction
            if let Some(&def) = defs.and_then(|defs| defs.iter().rfind(|d| **d < idx)) {
                edges.push((def, idx, DependencyKind::Data));
            }
        }
    }

    // state-sharing (mutual) dependencies
    let mut by_state: BTreeMap<(&str, Option<i64>), Vec<usize>> = BTreeMap::new();
    for (idx, instr) in instructions.iter().enumerate() {
        if let Some(key) = state_key(instr, objects) {
            by_state.entry(key).or_default().push(idx);
        }
    }
    for idxs in by_state.values() {
        for i in 0..idxs.len() {
            for j in (i + 1)..idxs.len() {
                edges.push((idxs[i], idxs[j], DependencyKind::State));
                edges.push((idxs[j], idxs[i], DependencyKind::State));
            }
        }
    }

    edges.sort_by_key(|(a, b, k)| (*a, *b, *k == DependencyKind::State));
    edges.dedup();
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{AluOp, CmpOp, Guard, Predicate};
    use crate::object::HashAlgo;

    fn objs() -> Vec<ObjectDecl> {
        vec![
            ObjectDecl::new("agg", ObjectKind::Array { rows: 1, size: 16, width: 32 }),
            ObjectDecl::new("h", ObjectKind::Hash { algo: HashAlgo::Crc16, modulus: Some(16) }),
        ]
    }

    fn prog() -> Vec<Instruction> {
        vec![
            // i0: idx = hash(h, hdr.seq)
            Instruction::new(
                0,
                OpCode::Hash {
                    dest: "idx".into(),
                    object: "h".into(),
                    keys: vec![Operand::hdr("seq")],
                },
            ),
            // i1: cur = get(agg, idx)
            Instruction::new(
                1,
                OpCode::ReadState {
                    dest: "cur".into(),
                    object: "agg".into(),
                    index: vec![Operand::var("idx")],
                },
            ),
            // i2: new = cur + hdr.data
            Instruction::new(
                2,
                OpCode::Alu {
                    dest: "new".into(),
                    op: AluOp::Add,
                    lhs: Operand::var("cur"),
                    rhs: Operand::hdr("data"),
                    float: false,
                },
            ),
            // i3: write(agg, idx, new)
            Instruction::new(
                3,
                OpCode::WriteState {
                    object: "agg".into(),
                    index: vec![Operand::var("idx")],
                    value: vec![Operand::var("new")],
                },
            ),
            // i4: (new > 0) ? fwd
            Instruction::guarded(
                4,
                OpCode::Forward,
                Guard::single(Predicate::new(Operand::var("new"), CmpOp::Gt, Operand::int(0))),
            ),
        ]
    }

    #[test]
    fn read_write_sets() {
        let p = prog();
        let o = objs();
        assert_eq!(p[0].dest(), Some("idx"));
        assert!(p[0].reads().any(|r| *r == Operand::hdr("seq")));
        assert_eq!(state_key(&p[0], &o), None, "hash objects are pure functions");

        assert!(p[1].read_vars().any(|v| v == "idx"));
        assert_eq!(state_key(&p[1], &o), Some(("agg", None)));

        assert!(p[3].dest().is_none());
        assert!(p[3].read_vars().any(|v| v == "new"));
        assert_eq!(state_key(&p[3], &o), Some(("agg", None)));

        assert!(p[4].read_vars().any(|v| v == "new"), "guard operands are reads");
    }

    /// What every analysis sees of one instruction per opcode: rendered reads
    /// (guard first), destination, shared state, written header fields.
    #[test]
    fn every_opcode_reads_defines_and_touches_what_is_written_here() {
        use crate::object::{CryptoAlgo, MatchKind, SketchKind};
        let objects = vec![
            ObjectDecl::new("hash", ObjectKind::Hash { algo: HashAlgo::Crc16, modulus: None }),
            ObjectDecl::new("rows", ObjectKind::Array { rows: 4, size: 16, width: 32 }),
            ObjectDecl::new(
                "sketch",
                ObjectKind::Sketch { kind: SketchKind::CountMin, rows: 3, cols: 64, width: 32 },
            ),
            ObjectDecl::new(
                "lookup",
                ObjectKind::Table {
                    match_kind: MatchKind::Exact,
                    key_width: 32,
                    value_width: 32,
                    depth: 8,
                    stateful: false,
                },
            ),
            ObjectDecl::new("aes", ObjectKind::Crypto { algo: CryptoAlgo::Aes }),
        ];
        type Seen<'a> = (&'a str, Option<&'a str>, Option<(&'a str, Option<i64>)>, &'a str);
        let expected: [Seen<'_>; 20] = [
            ("a", Some("d"), None, ""),
            ("p hdr.q a hdr.b", Some("d"), None, ""),
            ("meta.a 7", Some("d"), None, ""),
            ("p hdr.q hdr.a b", Some("d"), None, ""), // the hash object is a pure function
            ("2 a", Some("d"), Some(("rows", Some(2))), ""), // constant row of a 4-row array
            ("p hdr.q a b hdr.c", None, Some(("rows", None)), ""), // row only known at run time
            ("a b", Some("d"), Some(("sketch", None)), ""),
            ("p hdr.q", None, Some(("rows", None)), ""),
            ("hdr.a", None, None, ""), // a stateless table
            ("p hdr.q", None, None, ""),
            ("", None, None, ""),
            ("p hdr.q a hdr.b", None, None, "f g"),
            ("a", None, None, "f"),
            ("p hdr.q a", None, None, ""),
            ("a b", None, None, ""),
            ("p hdr.q a", None, None, "f"),
            ("a", Some("d"), None, ""), // so is the cipher
            ("p hdr.q a", Some("d"), None, ""),
            ("a hdr.b", Some("d"), None, ""),
            ("p hdr.q", None, None, ""),
        ];
        let fixture = crate::instr::tests::one_of_each_opcode();
        assert_eq!(fixture.len(), expected.len());
        for (instr, (reads, dest, state, writes)) in fixture.iter().zip(expected) {
            let seen: Vec<String> = instr.reads().map(Operand::to_string).collect();
            assert_eq!(seen.join(" "), reads, "{instr:?}");
            assert_eq!(instr.dest(), dest, "{instr:?}");
            assert_eq!(state_key(instr, &objects), state, "{instr:?}");
            assert_eq!(instr.op.header_writes().collect::<Vec<_>>().join(" "), writes, "{instr:?}");
        }
        // an undeclared object is conservatively stateful
        assert_eq!(state_key(&fixture[3], &[]), Some(("hash", None)));
    }

    #[test]
    fn data_dependencies_follow_def_use() {
        let edges = dependency_edges(&prog(), &objs());
        assert!(edges.contains(&(0, 1, DependencyKind::Data)), "idx def -> use");
        assert!(edges.contains(&(1, 2, DependencyKind::Data)), "cur def -> use");
        assert!(edges.contains(&(2, 3, DependencyKind::Data)), "new def -> use");
        assert!(edges.contains(&(2, 4, DependencyKind::Data)), "guard read of new");
        assert!(!edges.contains(&(0, 2, DependencyKind::Data)));
    }

    #[test]
    fn state_sharing_is_mutual() {
        let edges = dependency_edges(&prog(), &objs());
        assert!(edges.contains(&(1, 3, DependencyKind::State)));
        assert!(edges.contains(&(3, 1, DependencyKind::State)));
    }

    #[test]
    fn header_write_then_read_is_a_dependency() {
        let instrs = vec![
            Instruction::new(
                0,
                OpCode::SetHeader { field: "bitmap".into(), value: Operand::int(3) },
            ),
            Instruction::new(1, OpCode::Assign { dest: "b".into(), src: Operand::hdr("bitmap") }),
        ];
        let edges = dependency_edges(&instrs, &[]);
        assert!(edges.contains(&(0, 1, DependencyKind::Data)));
    }

    #[test]
    fn unknown_object_treated_as_stateful() {
        let instrs = vec![
            Instruction::new(
                0,
                OpCode::ReadState { dest: "a".into(), object: "mystery".into(), index: vec![] },
            ),
            Instruction::new(1, OpCode::ClearState { object: "mystery".into() }),
        ];
        let edges = dependency_edges(&instrs, &[]);
        assert!(edges.contains(&(0, 1, DependencyKind::State)));
        assert!(edges.contains(&(1, 0, DependencyKind::State)));
    }

    #[test]
    fn independent_instructions_have_no_edges() {
        let instrs = vec![
            Instruction::new(0, OpCode::Assign { dest: "a".into(), src: Operand::int(1) }),
            Instruction::new(1, OpCode::Assign { dest: "b".into(), src: Operand::int(2) }),
        ];
        assert!(dependency_edges(&instrs, &[]).is_empty());
    }
}
