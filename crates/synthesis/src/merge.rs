//! Program merging (paper Fig. 10(b), Algorithm 4): a device image is the
//! base program ([`crate::base::BaseProgram::image`]) with every tenant slice
//! spliced in ahead of the base tail by [`extend_image`].

use clickinc_ir::{Guard, Instruction, IrProgram};

/// The one merge step: splice `slice` into `image` ahead of the image's last
/// `tail_len` instructions (the base tail: the forwarding decision still runs
/// last), declaring no object or header twice and renumbering the ids.  The
/// slice's `precondition` — the `meta.inc_user == id` match isolation
/// writes — has no program to gate in a merged image, so it leads the guard
/// of every inserted instruction: the emitted code tests the tenant id where
/// the emulator does.
/// The `NoOp`s earlier removals left behind are dropped on the way, so an
/// image's size tracks its live tenants, not its age.
pub fn extend_image(image: &mut IrProgram, slice: &IrProgram, tail_len: usize) {
    for obj in &slice.objects {
        if image.object(&obj.name).is_none() {
            image.objects.push(obj.clone());
        }
    }
    for hdr in &slice.headers {
        if !image.headers.iter().any(|h| h.name == hdr.name) {
            image.headers.push(hdr.clone());
        }
    }
    let at = image.instructions.len() - tail_len;
    let pre = slice.precondition.as_ref();
    image.instructions.splice(at..at, slice.instructions.iter().map(|i| guarded_by(i, pre)));
    // only removal writes `NoOp`s, and never into the base tail
    image.compact();
}

/// A copy of `instr` whose guard requires `pre` ahead of its own predicates.
fn guarded_by(instr: &Instruction, pre: Option<&Guard>) -> Instruction {
    let mut instr = instr.clone();
    if let Some(pre) = pre {
        let mut all = pre.all.clone();
        all.extend(instr.guard.take().map(|g| g.all).unwrap_or_default());
        instr.guard = (!all.is_empty()).then_some(Guard { all });
    }
    instr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::{base_program, BaseProgram};
    use crate::isolation::isolate_user_program;
    use clickinc_frontend::compile_source;
    use clickinc_lang::templates::{count_min_sketch, kvs_template, KvsParams};

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

    #[test]
    fn merged_image_keeps_base_head_first_and_tail_last() {
        let base = base_program();
        let user = user_ir("cms_0", 1);
        let image = merged(&base, &[&user]);
        assert!(image.validate().is_ok(), "{}", image.dump());
        assert_eq!(image.len(), base.len() + user.len());
        // head validation comes before any user instruction, tail forward after
        let first_user = image
            .instructions
            .iter()
            .position(|i| !i.is_base())
            .expect("user instructions present");
        let last_user = image.instructions.iter().rposition(|i| !i.is_base()).unwrap();
        assert!(first_user >= base.head.len());
        assert!(last_user < image.len() - base.tail.len());
        // instruction ids are renumbered consecutively
        for (idx, instr) in image.instructions.iter().enumerate() {
            assert_eq!(instr.id.0 as usize, idx);
        }
    }

    #[test]
    fn merging_two_users_keeps_their_objects_disjoint() {
        let base = base_program();
        let a = user_ir("user_a", 1);
        let b = user_ir("user_b", 2);
        let image = merged(&base, &[&a, &b]);
        assert!(image.validate().is_ok());
        assert_eq!(
            image.objects.len(),
            base.tail.objects.len() + a.objects.len() + b.objects.len()
        );
        let owners = image.owners();
        assert!(owners.contains("user_a") && owners.contains("user_b"));
    }

    #[test]
    fn kvs_user_snippet_merges_with_the_base() {
        let t = kvs_template("kvs_0", KvsParams::default());
        let ir = compile_source("kvs_0", &t.source).unwrap();
        let isolated = isolate_user_program(&ir, "kvs_0", 5);
        let image = merged(&base_program(), &[&isolated]);
        assert!(image.validate().is_ok(), "{}", image.dump());
        assert!(image.object("kvs_0_cache").is_some());
    }
}
