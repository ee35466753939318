//! User isolation: renaming and traffic filtering (paper §6 "Compiler Backend").
//!
//! "ClickINC first isolates user programs from each other and the base program.
//! It renames variables in the user programs, so that after compilation their
//! programs access isolated memory regions [...] Then it adds a user ID match to
//! filter out the user's traffic for its own program."
//!
//! Names are [`Name`]s, shared rather than copied: the isolated program
//! builds one prefixed name per distinct source name and shares it across
//! every occurrence, keeps the source's header and metadata names, and has
//! every instruction and object share the tenant's one owner name.  So
//! isolation allocates the program's lists, two blocks per renamed name (the
//! string and its shared form) and a small constant.

use clickinc_ir::{CmpOp, Guard, IrProgram, Name, Operand, Predicate};
use std::collections::HashMap;

/// Rewrite a user program so every object and temporary variable name is
/// prefixed with `{user}_` — one that already starts so too, which keeps the
/// renaming injective — every instruction and object is owned by the user
/// alone, and the whole program is gated by a match on the user's INC header
/// id: `meta.inc_user == user_numeric_id` leads the program's
/// [`precondition`](IrProgram::precondition), ahead of any precondition it
/// already had.  Instruction guards are left as the program wrote them.
///
/// Returns the isolated program; the original is not modified.
pub fn isolate_user_program(program: &IrProgram, user: &str, user_numeric_id: i64) -> IrProgram {
    let owner = Name::from(user);
    // a valid program's distinct temporaries are at most one per
    // instruction, so the table is allocated once
    let mut renamed: HashMap<Name, Name> =
        HashMap::with_capacity(program.objects.len() + program.instructions.len());
    // temporaries and objects share the one prefix, on every name
    let mut rename = |name: &mut Name| {
        let prefixed = renamed.entry(name.clone()).or_insert_with(|| {
            let mut prefixed = String::with_capacity(user.len() + 1 + name.len());
            prefixed.push_str(user);
            prefixed.push('_');
            prefixed.push_str(name);
            Name::from(prefixed)
        });
        *name = prefixed.clone();
    };

    let mut out = IrProgram::new(owner.clone());
    out.headers = program.headers.clone();
    let user_match =
        Predicate::new(Operand::Meta("inc_user".into()), CmpOp::Eq, Operand::int(user_numeric_id));
    let own = program.precondition.as_ref().map_or(&[][..], |g| &g.all[..]);
    let mut precondition = Guard { all: Vec::with_capacity(1 + own.len()) };
    precondition.all.push(user_match);
    precondition.all.extend_from_slice(own);
    out.precondition = Some(precondition);
    out.objects = program
        .objects
        .iter()
        .map(|o| {
            let mut o = o.clone();
            rename(&mut o.name);
            o.owner = Some(owner.clone());
            o
        })
        .collect();

    out.instructions = program
        .instructions
        .iter()
        .map(|instr| {
            let mut instr = instr.clone();
            for operand in instr.reads_mut() {
                if let Operand::Var(v) = operand {
                    rename(v);
                }
            }
            if let Some(dest) = instr.op.dest_mut() {
                rename(dest);
            }
            if let Some(object) = instr.op.object_mut() {
                rename(object);
            }
            instr.owners = vec![owner.clone()];
            instr
        })
        .collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use clickinc_frontend::compile_source;
    use clickinc_ir::analysis::owned_by;
    use clickinc_ir::{DiagnosticSet, Guard, OpCode, Optimizer};
    use clickinc_lang::templates::{count_min_sketch, kvs_template, KvsParams};
    use std::collections::BTreeSet;

    fn cms_ir(name: &str) -> IrProgram {
        let t = count_min_sketch(name, 3, 1024);
        compile_source(name, &t.source).unwrap()
    }

    #[test]
    fn two_instances_of_the_same_template_do_not_share_state() {
        // the §2.2 example: two users deploy the same CMS; naive splicing would
        // make both count into the same memory
        let a = isolate_user_program(&cms_ir("cms"), "userA", 1);
        let b = isolate_user_program(&cms_ir("cms"), "userB", 2);
        let a_objects: Vec<&str> = a.objects.iter().map(|o| o.name.as_str()).collect();
        let b_objects: Vec<&str> = b.objects.iter().map(|o| o.name.as_str()).collect();
        for obj in &a_objects {
            assert!(!b_objects.contains(obj), "object {obj} shared between users");
            assert!(owned_by(obj, "userA"));
        }
        // variables are disjoint too
        let a_vars: BTreeSet<_> = a.instructions.iter().filter_map(|i| i.dest()).collect();
        let b_vars: BTreeSet<_> = b.instructions.iter().filter_map(|i| i.dest()).collect();
        assert!(a_vars.is_disjoint(&b_vars));
    }

    #[test]
    fn isolated_programs_still_validate() {
        let isolated = isolate_user_program(&cms_ir("cms"), "kvs_0", 7);
        assert!(isolated.validate().is_ok(), "{}", isolated.dump());
        assert_eq!(isolated.name, "kvs_0");
        assert!(isolated.owners().contains("kvs_0"));
    }

    fn user_match(id: i64) -> Predicate {
        Predicate::new(Operand::Meta("inc_user".into()), CmpOp::Eq, Operand::int(id))
    }

    /// `guard` with its temporaries renamed as isolating for `user` renames
    /// them.
    fn renamed(guard: &Option<Guard>, user: &str) -> Option<Guard> {
        let mut guard = guard.clone();
        for operand in guard.iter_mut().flat_map(Guard::operands_mut) {
            if let Operand::Var(v) = operand {
                *v = format!("{user}_{v}").into();
            }
        }
        guard
    }

    #[test]
    fn every_instruction_gets_the_user_id_match() {
        // the match is the precondition, which gates every instruction; the
        // instructions keep the guards the program wrote
        let ir = cms_ir("cms");
        let isolated = isolate_user_program(&ir, "u", 42);
        assert_eq!(isolated.precondition, Some(Guard::single(user_match(42))));
        for (orig, new) in ir.instructions.iter().zip(&isolated.instructions) {
            assert_eq!(new.guard, renamed(&orig.guard, "u"));
        }
    }

    #[test]
    fn existing_guards_are_preserved_after_the_user_match() {
        let t = kvs_template("kvs", KvsParams::default());
        let mut ir = compile_source("kvs", &t.source).unwrap();
        let own = Predicate::new(Operand::hdr("op"), CmpOp::Ne, Operand::int(0));
        ir.precondition = Some(Guard::single(own.clone()));
        let isolated = isolate_user_program(&ir, "kvs_0", 3);
        // the user match leads, the program's own precondition follows
        assert_eq!(isolated.precondition.unwrap().all, [user_match(3), own]);
        assert!(ir.instructions.iter().any(|i| i.guard.is_some()));
        for (orig, new) in ir.instructions.iter().zip(&isolated.instructions) {
            assert_eq!(new.guard, renamed(&orig.guard, "kvs_0"));
        }
    }

    #[test]
    fn a_deployed_program_folds_its_constants() {
        // the frontend folds `x + 1` as it lowers, and isolation and the
        // optimizer keep the folded write
        let ir = compile_source("p", "x = 3\ny = x + 1\nhdr.out = y\nforward()\n").unwrap();
        let isolated = isolate_user_program(&ir, "u", 5);
        let mut diags = DiagnosticSet::new();
        let optimized = Optimizer::with_default_passes().optimize("u", true, isolated, &mut diags);
        let written = optimized.instructions.iter().find_map(|i| match &i.op {
            OpCode::SetHeader { value, .. } => Some(value.clone()),
            _ => None,
        });
        assert_eq!(written, Some(Operand::int(4)), "{}", optimized.dump());
    }

    #[test]
    fn renaming_is_injective() {
        // `mem` and `u_mem` already carry the prefix once: both still get it
        let sketch = "Sketch(type=\"count-min\", rows=1, cols=64, w=32)";
        let source = format!(
            "mem = {sketch}\nu_mem = {sketch}\n\
             a = count(mem, hdr.key, 1)\nb = count(u_mem, hdr.key, 1)\nforward()\n"
        );
        let ir = compile_source("u", &source).unwrap();
        let isolated = isolate_user_program(&ir, "u", 1);
        let names: Vec<_> = isolated.objects.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, ["u_mem", "u_u_mem"]);
        let dests = |p: &IrProgram| {
            p.instructions.iter().filter_map(|i| i.dest()).collect::<BTreeSet<_>>().len()
        };
        assert_eq!(dests(&isolated), dests(&ir), "distinct temporaries stay distinct");
        // and isolating twice prefixes twice
        let twice = isolate_user_program(&isolated, "u", 1);
        let names: Vec<_> = twice.objects.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, ["u_u_mem", "u_u_u_mem"]);
    }
}
