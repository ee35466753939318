//! `IrProgram::slice` — the workspace's only per-device slicer: a slice
//! carries the chosen instructions, the headers, the precondition and exactly
//! the objects those instructions reference.

use clickinc_ir::{
    AluOp, CmpOp, Guard, HashAlgo, IrProgram, Operand, Predicate, ProgramBuilder, ValueType,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn user_guard(id: i64) -> Guard {
    Guard::single(Predicate::new(Operand::Meta("inc_user".into()), CmpOp::Eq, Operand::int(id)))
}

/// The names of the objects the instructions at `instrs` reference.
fn referenced(p: &IrProgram, instrs: &[usize]) -> BTreeSet<String> {
    instrs.iter().filter_map(|&i| p.instructions[i].object()).map(str::to_string).collect()
}

/// hash → read → add → write → forward over one array and one hash unit.
fn sample() -> IrProgram {
    let mut b = ProgramBuilder::new("test");
    b.header("seq", ValueType::Bit(32)).header("data", ValueType::Bit(32));
    b.array("agg", 1, 64, 32).hash_fn("h", HashAlgo::Crc16, Some(64));
    b.hash("idx", "h", vec![Operand::hdr("seq")]);
    b.get("cur", "agg", vec![Operand::var("idx")]);
    b.alu("sum", AluOp::Add, Operand::var("cur"), Operand::hdr("data"));
    b.write("agg", vec![Operand::var("idx")], vec![Operand::var("sum")]);
    b.forward();
    let mut program = b.build().expect("the sample is well-formed");
    program.precondition = Some(user_guard(7));
    program
}

#[test]
fn slice_carries_headers_precondition_and_only_the_referenced_objects() {
    let p = sample();
    // the hash alone: `agg` stays behind, headers and guard travel
    let hash_only = p.slice(&[0]);
    assert_eq!(hash_only.name, "test");
    assert_eq!(hash_only.headers, p.headers);
    assert_eq!(hash_only.precondition, p.precondition);
    assert_eq!(hash_only.instructions, vec![p.instructions[0].clone()]);
    assert_eq!(hash_only.objects, vec![p.object("h").unwrap().clone()]);
    // objects keep declaration order whatever the instruction order
    let both = p.slice(&[3, 0]);
    assert_eq!(both.objects, p.objects);
    assert_eq!(both.instructions[0].id, p.instructions[3].id, "ids are not renumbered");
    // an object-free slice declares nothing
    assert!(p.slice(&[4]).objects.is_empty());
    assert!(p.slice(&[]).is_empty());
}

/// A well-formed program over three arrays, of which a run may use any
/// subset, optionally carrying a tenant-match precondition.
fn arb_program(seed: &[u8], gated: bool) -> IrProgram {
    let mut b = ProgramBuilder::new("prop");
    b.header("x", ValueType::Bit(32));
    for name in ["s0", "s1", "s2"] {
        b.array(name, 1, 64, 32);
    }
    for (i, byte) in seed.iter().enumerate() {
        let var = format!("v{i}");
        let index = vec![Operand::int(i64::from(*byte % 64))];
        match byte % 4 {
            0 => b.alu(&var, AluOp::Add, Operand::hdr("x"), Operand::int(i64::from(*byte))),
            1 => b.get(&var, "s0", index),
            2 => b.count(Some(&var), "s1", index, Operand::int(1)),
            _ => b.write("s2", index, vec![Operand::hdr("x")]),
        };
    }
    b.forward();
    let mut program = b.build().expect("generated program is well-formed");
    if gated {
        program.precondition = Some(user_guard(3));
    }
    program
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Slicing every index reproduces the program, minus the objects nothing
    /// references.
    #[test]
    fn the_full_slice_is_the_program(
        seed in proptest::collection::vec(any::<u8>(), 0..24),
        gated in any::<bool>(),
    ) {
        let program = arb_program(&seed, gated);
        let all: Vec<usize> = (0..program.len()).collect();
        let slice = program.slice(&all);
        prop_assert_eq!(&slice.name, &program.name);
        prop_assert_eq!(&slice.instructions, &program.instructions);
        prop_assert_eq!(&slice.headers, &program.headers);
        prop_assert_eq!(&slice.precondition, &program.precondition);
        let declared: BTreeSet<String> = slice.objects.iter().map(|o| o.name.to_string()).collect();
        prop_assert_eq!(declared, referenced(&program, &all));
        prop_assert_eq!(slice.validate(), Ok(()));
    }

    /// Any sub-slice declares exactly the objects its instructions reference,
    /// each once, and keeps the chosen instructions in the chosen order.
    #[test]
    fn a_sub_slice_declares_exactly_what_it_references(
        seed in proptest::collection::vec(any::<u8>(), 1..24),
        picks in proptest::collection::vec(any::<u8>(), 0..12),
    ) {
        let program = arb_program(&seed, true);
        let instrs: Vec<usize> = picks.iter().map(|p| usize::from(*p) % program.len()).collect();
        let slice = program.slice(&instrs);
        prop_assert_eq!(slice.len(), instrs.len());
        for (got, &want) in slice.instructions.iter().zip(&instrs) {
            prop_assert_eq!(got, &program.instructions[want]);
        }
        let declared: Vec<String> = slice.objects.iter().map(|o| o.name.to_string()).collect();
        let unique: BTreeSet<String> = declared.iter().cloned().collect();
        prop_assert_eq!(unique.len(), declared.len());
        prop_assert_eq!(unique, referenced(&program, &instrs));
        prop_assert_eq!(&slice.precondition, &program.precondition);
    }
}
