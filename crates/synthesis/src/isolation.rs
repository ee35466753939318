//! User isolation: renaming and traffic filtering (paper §6 "Compiler Backend").
//!
//! "ClickINC first isolates user programs from each other and the base program.
//! It renames variables in the user programs, so that after compilation their
//! programs access isolated memory regions [...] Then it adds a user ID match to
//! filter out the user's traffic for its own program."

use clickinc_ir::{CmpOp, IrProgram, Operand, Predicate};

/// The names [`isolate_user_program`] prefixes, with repeats: every declared
/// object, and every temporary or object an instruction writes, reads or
/// names.  Headers and metadata keep their names.
pub fn renamed_names(program: &IrProgram) -> impl Iterator<Item = &str> {
    let declared = program.objects.iter().map(|o| o.name.as_str());
    let used = program.instructions.iter();
    let used = used.flat_map(|i| i.read_vars().chain(i.dest()).chain(i.object()));
    declared.chain(used)
}

/// Rewrite a user program so every object, temporary variable and owner
/// annotation is prefixed with the user id, and every instruction is guarded by
/// a match on the user's INC header id (`meta.inc_user == user_numeric_id`).
///
/// Returns the isolated program; the original is not modified.
pub fn isolate_user_program(program: &IrProgram, user: &str, user_numeric_id: i64) -> IrProgram {
    let prefix = format!("{user}_");
    // temporaries and objects share the one prefix; an owned name is left alone
    let rename = |name: &mut String| {
        if !name.starts_with(&prefix) {
            name.insert_str(0, &prefix);
        }
    };

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
        let a_vars: std::collections::BTreeSet<_> =
            a.instructions.iter().filter_map(|i| i.dest()).collect();
        let b_vars: std::collections::BTreeSet<_> =
            b.instructions.iter().filter_map(|i| i.dest()).collect();
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
    fn renaming_is_idempotent() {
        let once = isolate_user_program(&cms_ir("cms"), "u1", 1);
        let twice = isolate_user_program(&once, "u1", 1);
        let names_once: Vec<_> = once.objects.iter().map(|o| o.name.clone()).collect();
        let names_twice: Vec<_> = twice.objects.iter().map(|o| o.name.clone()).collect();
        assert_eq!(names_once, names_twice, "no double prefixing");
    }
}
