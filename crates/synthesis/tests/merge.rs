//! The one merge routine: `merge_programs` is a fold of `extend_image`, a
//! hoisted isolation guard comes back onto every merged instruction, and the
//! `NoOp`s of lazy removal do not outlive the next merge.

use clickinc_frontend::compile_source;
use clickinc_ir::{CmpOp, DiagnosticSet, Guard, IrProgram, OpCode, Operand, Optimizer, Predicate};
use clickinc_lang::templates::count_min_sketch;
use clickinc_synthesis::{base_program, extend_image, isolate_user_program, merge_programs};

fn user_ir(name: &str, id: i64) -> IrProgram {
    let t = count_min_sketch(name, 3, 512);
    let ir = compile_source(name, &t.source).unwrap();
    isolate_user_program(&ir, name, id)
}

fn tenant_guard(id: i64) -> Guard {
    Guard::single(Predicate::new(Operand::Meta("inc_user".into()), CmpOp::Eq, Operand::int(id)))
}

#[test]
fn merge_programs_is_a_fold_of_extend_image() {
    let base = base_program();
    let (a, b) = (user_ir("user_a", 1), user_ir("user_b", 2));
    let mut grown = merge_programs(&base, &[]);
    assert_eq!(grown.len(), base.len());
    extend_image(&mut grown, &a, base.tail.len());
    extend_image(&mut grown, &b, base.tail.len());
    let folded = merge_programs(&base, &[a.clone(), b.clone()]);
    assert_eq!(folded, grown);
    // head, then a, then b, then tail — ids consecutive
    let owners: Vec<&[String]> = folded.instructions.iter().map(|i| &i.owners[..]).collect();
    let (head, rest) = owners.split_at(base.head.len());
    let (users, tail) = rest.split_at(a.len() + b.len());
    assert!(head.iter().chain(tail).all(|o| o.is_empty()));
    assert!(users[..a.len()].iter().all(|o| *o == ["user_a".to_string()]));
    assert!(users[a.len()..].iter().all(|o| *o == ["user_b".to_string()]));
    for (idx, instr) in folded.instructions.iter().enumerate() {
        assert_eq!(instr.id.0 as usize, idx);
    }
}

#[test]
fn a_hoisted_precondition_is_conjoined_back_onto_every_inserted_instruction() {
    let base = base_program();
    let isolated = user_ir("cms_0", 7);
    let hoisted = Optimizer::with_default_passes().optimize(
        "cms_0",
        true,
        &isolated,
        &mut DiagnosticSet::new(),
    );
    assert_eq!(hoisted.precondition, Some(tenant_guard(7)), "the optimizer hoists the guard");
    let image = merge_programs(&base, std::slice::from_ref(&hoisted));
    assert!(image.precondition.is_none(), "an image has no program-level guard");
    assert!(image.validate().is_ok(), "{}", image.dump());
    let user: Vec<_> = image.instructions.iter().filter(|i| !i.is_base()).collect();
    assert_eq!(user.len(), hoisted.len());
    for instr in user {
        let guard = instr.guard.as_ref().expect("every tenant instruction is guarded");
        assert_eq!(guard.all[0], tenant_guard(7).all[0], "tenant match leads the guard");
    }
    // base instructions are untouched
    let base_guards = |p: &IrProgram| -> Vec<Option<Guard>> {
        p.instructions.iter().filter(|i| i.is_base()).map(|i| i.guard.clone()).collect()
    };
    assert_eq!(base_guards(&image), base_guards(&merge_programs(&base, &[])));
    // nothing hoisted (the optimizer fell back, or never ran): the guard
    // each instruction still carries is not repeated, with or without a
    // precondition naming it again
    let unhoisted = merge_programs(&base, std::slice::from_ref(&isolated));
    let mut both = isolated.clone();
    both.precondition = Some(tenant_guard(7));
    let deduped = merge_programs(&base, std::slice::from_ref(&both));
    assert_eq!(deduped, unhoisted);
    for instr in unhoisted.instructions.iter().filter(|i| !i.is_base()) {
        let guard = instr.guard.as_ref().expect("isolation guards every instruction");
        assert_eq!(guard.all.iter().filter(|p| **p == tenant_guard(7).all[0]).count(), 1);
    }
}

#[test]
fn extend_image_drops_the_noops_removal_left_behind() {
    let base = base_program();
    let a = user_ir("user_a", 1);
    let mut image = merge_programs(&base, std::slice::from_ref(&a));
    for instr in image.instructions.iter_mut().filter(|i| !i.is_base()) {
        instr.owners.clear();
        instr.op = OpCode::NoOp;
    }
    image.objects.retain(|o| o.owner.is_none());
    extend_image(&mut image, &user_ir("user_b", 2), base.tail.len());
    assert_eq!(image, merge_programs(&base, &[user_ir("user_b", 2)]));
}
