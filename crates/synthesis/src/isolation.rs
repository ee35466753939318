//! User isolation: renaming and traffic filtering (paper §6 "Compiler Backend").
//!
//! "ClickINC first isolates user programs from each other and the base program.
//! It renames variables in the user programs, so that after compilation their
//! programs access isolated memory regions [...] Then it adds a user ID match to
//! filter out the user's traffic for its own program."

use clickinc_ir::{CmpOp, IrProgram, Operand, Predicate};

/// Rewrite a user program so every object and temporary variable name is
/// prefixed with `{user}_` — one that already starts so too, which keeps the
/// renaming injective — every instruction and object is owned by the user
/// alone, and every instruction is guarded by a match on the user's INC
/// header id (`meta.inc_user == user_numeric_id`).
///
/// Returns the isolated program; the original is not modified.
pub fn isolate_user_program(program: &IrProgram, user: &str, user_numeric_id: i64) -> IrProgram {
    let prefix = format!("{user}_");
    // temporaries and objects share the one prefix, on every name
    let rename = |name: &mut String| name.insert_str(0, &prefix);

    let mut out = IrProgram::new(user);
    out.headers = program.headers.clone();
    out.objects = program
        .objects
        .iter()
        .map(|o| {
            let mut o = o.clone();
            rename(&mut o.name);
            o.owner = Some(user.to_string());
            o
        })
        .collect();

    let user_match =
        Predicate::new(Operand::Meta("inc_user".into()), CmpOp::Eq, Operand::int(user_numeric_id));

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
            // prepend the user-ID match so only this user's traffic triggers the
            // snippet
            let mut guard = instr.guard.take().unwrap_or_default();
            guard.all.insert(0, user_match.clone());
            instr.guard = Some(guard);
            instr.owners = vec![user.to_string()];
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

    #[test]
    fn every_instruction_gets_the_user_id_match() {
        let isolated = isolate_user_program(&cms_ir("cms"), "u", 42);
        for instr in &isolated.instructions {
            let guard = instr.guard.as_ref().expect("every instruction guarded");
            let first = &guard.all[0];
            assert_eq!(first.lhs, Operand::Meta("inc_user".into()));
            assert_eq!(first.rhs, Operand::int(42));
        }
    }

    #[test]
    fn existing_guards_are_preserved_after_the_user_match() {
        let t = kvs_template("kvs", KvsParams::default());
        let ir = compile_source("kvs", &t.source).unwrap();
        let guarded_before = ir.instructions.iter().filter(|i| i.guard.is_some()).count();
        let isolated = isolate_user_program(&ir, "kvs_0", 3);
        for (orig, new) in ir.instructions.iter().zip(&isolated.instructions) {
            let new_len = new.guard.as_ref().unwrap().all.len();
            let orig_len = orig.guard.as_ref().map(|g| g.all.len()).unwrap_or(0);
            assert_eq!(new_len, orig_len + 1);
        }
        assert!(guarded_before > 0);
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
