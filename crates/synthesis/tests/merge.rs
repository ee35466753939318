//! The one merge routine: an image is the base image with `extend_image`
//! folded over the tenant slices, the tenant match isolation writes as the
//! precondition leads every merged instruction's guard, and the `NoOp`s of
//! lazy removal do not outlive the next merge.

use clickinc_frontend::compile_source;
use clickinc_ir::{
    CmpOp, DiagnosticSet, Guard, IrProgram, Name, OpCode, Operand, Optimizer, Predicate,
};
use clickinc_lang::templates::count_min_sketch;
use clickinc_synthesis::base::BaseProgram;
use clickinc_synthesis::{base_program, extend_image, isolate_user_program};

fn user_ir(name: &str, id: i64) -> IrProgram {
    let t = count_min_sketch(name, 3, 512);
    let ir = compile_source(name, &t.source).unwrap();
    isolate_user_program(&ir, name, id)
}

/// The base image with `slices` merged in, in order.
fn merged(base: &BaseProgram, slices: &[&IrProgram]) -> IrProgram {
    let mut image = base.image();
    for slice in slices {
        extend_image(&mut image, slice, base.tail.len());
    }
    image
}

fn tenant_guard(id: i64) -> Guard {
    Guard::single(Predicate::new(Operand::Meta("inc_user".into()), CmpOp::Eq, Operand::int(id)))
}

#[test]
fn an_image_is_the_base_head_then_each_slice_in_order_then_the_tail() {
    let base = base_program();
    let (a, b) = (user_ir("user_a", 1), user_ir("user_b", 2));
    assert_eq!(base.image().len(), base.len());
    let folded = merged(&base, &[&a, &b]);
    // head, then a, then b, then tail — ids consecutive
    let owners: Vec<&[Name]> = folded.instructions.iter().map(|i| &i.owners[..]).collect();
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
    assert_eq!(isolated.precondition, Some(tenant_guard(7)), "isolation writes the match");
    // optimized as a deploy does: the optimizer keeps the precondition
    let optimized = Optimizer::with_default_passes().optimize(
        "cms_0",
        true,
        &isolated,
        &mut DiagnosticSet::new(),
    );
    assert_eq!(optimized.precondition, isolated.precondition);
    let image = merged(&base, &[&optimized]);
    assert!(image.precondition.is_none(), "an image has no program-level guard");
    assert!(image.validate().is_ok(), "{}", image.dump());
    let user: Vec<_> = image.instructions.iter().filter(|i| !i.is_base()).collect();
    assert_eq!(user.len(), optimized.len());
    for instr in user {
        let guard = instr.guard.as_ref().expect("every tenant instruction is guarded");
        assert_eq!(guard.all[0], tenant_guard(7).all[0], "tenant match leads the guard");
    }
    // base instructions are untouched
    let base_guards = |p: &IrProgram| -> Vec<Option<Guard>> {
        p.instructions.iter().filter(|i| i.is_base()).map(|i| i.guard.clone()).collect()
    };
    assert_eq!(base_guards(&image), base_guards(&base.image()));
}

#[test]
fn extend_image_drops_the_noops_removal_left_behind() {
    let base = base_program();
    let a = user_ir("user_a", 1);
    let mut image = merged(&base, &[&a]);
    for instr in image.instructions.iter_mut().filter(|i| !i.is_base()) {
        instr.owners.clear();
        instr.op = OpCode::NoOp;
    }
    image.objects.retain(|o| o.owner.is_none());
    extend_image(&mut image, &user_ir("user_b", 2), base.tail.len());
    assert_eq!(image, merged(&base, &[&user_ir("user_b", 2)]));
}
