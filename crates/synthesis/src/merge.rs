//! Header-parse-tree and program merging (paper Fig. 10, Algorithm 4).

use crate::base::BaseProgram;
use clickinc_ir::{Guard, Instruction, IrProgram};
use std::collections::BTreeMap;

/// A header parse tree: states (header names) with parent → child transitions.
/// The base program parses `ethernet → ipv4 → udp`; each user program adds its
/// application header under the transport layer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParseTree {
    /// Parent state of each state (`None` for the root).
    parents: BTreeMap<String, Option<String>>,
    /// Owners annotated on each state (empty = operator).
    owners: BTreeMap<String, Vec<String>>,
}

impl ParseTree {
    /// The operator's standard `ethernet/ipv4/udp` parse tree.
    pub fn standard() -> ParseTree {
        let mut t = ParseTree::default();
        t.add_state("ethernet", None, None);
        t.add_state("ipv4", Some("ethernet"), None);
        t.add_state("udp", Some("ipv4"), None);
        t
    }

    /// Add a state; no-op if it already exists (the owner annotation is added).
    pub fn add_state(&mut self, name: &str, parent: Option<&str>, owner: Option<&str>) {
        self.parents.entry(name.to_string()).or_insert_with(|| parent.map(str::to_string));
        let owners = self.owners.entry(name.to_string()).or_default();
        if let Some(o) = owner {
            if !owners.contains(&o.to_string()) {
                owners.push(o.to_string());
            }
        }
    }

    /// All states.
    pub fn states(&self) -> Vec<&str> {
        self.parents.keys().map(String::as_str).collect()
    }

    /// The owners of a state.
    pub fn owners_of(&self, state: &str) -> &[String] {
        self.owners.get(state).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// Whether the tree has no states.
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// Remove every state owned solely by `user`; shared states only lose the
    /// annotation (the incremental-removal path).
    pub fn remove_user(&mut self, user: &str) {
        let mut to_remove = Vec::new();
        for (state, owners) in &mut self.owners {
            owners.retain(|o| o != user);
            if owners.is_empty() && self.parents.get(state).map(|p| p.is_some()).unwrap_or(false) {
                // only user-added states (non-root chain) that now have no owner
                // and were not part of the standard stack get removed
                if !matches!(state.as_str(), "ethernet" | "ipv4" | "udp") {
                    to_remove.push(state.clone());
                }
            }
        }
        for state in to_remove {
            self.parents.remove(&state);
            self.owners.remove(&state);
        }
    }
}

/// Merge a user program's parse needs into the running parse tree: one state
/// per application header group, hung under UDP.
pub fn merge_parse_trees(tree: &mut ParseTree, user_program: &IrProgram, user: &str) {
    let state = format!("inc_{user}");
    tree.add_state(&state, Some("udp"), Some(user));
    // every application header field becomes part of the user's header state
    for field in &user_program.headers {
        tree.add_state(&format!("{state}.{}", field.name), Some(&state), Some(user));
    }
}

/// Merge the base program with the user snippets assigned to one device
/// (Fig. 10(b)): `base.head` first, then the user snippets (as early as their
/// dependencies allow — here: in the given order), then `base.tail`.
///
/// A fold of [`extend_image`], so an image built here in one go equals the
/// one the incremental path grows a tenant at a time.  The returned program
/// is the device's executable image in IR form; backends translate it to the
/// device language.
pub fn merge_programs(base: &BaseProgram, user_snippets: &[IrProgram]) -> IrProgram {
    let mut image = IrProgram::new("device_image");
    extend_image(&mut image, &base.head, 0);
    extend_image(&mut image, &base.tail, 0);
    for snippet in user_snippets {
        extend_image(&mut image, snippet, base.tail.len());
    }
    image
}

/// The one merge step: splice `slice` into `image` ahead of the image's last
/// `tail_len` instructions (the base tail: the forwarding decision still runs
/// last), declaring no object or header twice and renumbering the ids.  The
/// slice's `precondition` — the hoisted `meta.inc_user == id` guard — has no
/// program to gate in a merged image, so it is conjoined back onto every
/// inserted instruction (predicates a guard already carries are not
/// repeated): the emitted code tests the tenant id where the emulator does.
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

/// A copy of `instr` whose guard additionally requires `pre`.
fn guarded_by(instr: &Instruction, pre: Option<&Guard>) -> Instruction {
    let mut instr = instr.clone();
    if let Some(pre) = pre {
        let own = instr.guard.take().unwrap_or_default().all;
        let mut all: Vec<_> = pre.all.iter().filter(|p| !own.contains(p)).cloned().collect();
        all.extend(own);
        instr.guard = (!all.is_empty()).then_some(Guard { all });
    }
    instr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::base_program;
    use crate::isolation::isolate_user_program;
    use clickinc_frontend::compile_source;
    use clickinc_lang::templates::{count_min_sketch, kvs_template, KvsParams};

    fn user_ir(name: &str, id: i64) -> IrProgram {
        let t = count_min_sketch(name, 3, 512);
        let ir = compile_source(name, &t.source).unwrap();
        isolate_user_program(&ir, name, id)
    }

    #[test]
    fn standard_parse_tree_and_user_merge() {
        let mut tree = ParseTree::standard();
        assert_eq!(tree.len(), 3);
        let user = user_ir("cms_0", 1);
        merge_parse_trees(&mut tree, &user, "cms_0");
        assert!(tree.len() > 3);
        assert!(tree.states().contains(&"inc_cms_0"));
        assert_eq!(tree.owners_of("inc_cms_0"), &["cms_0".to_string()]);
        // base states stay operator-owned
        assert!(tree.owners_of("ipv4").is_empty());
    }

    #[test]
    fn removing_a_user_strips_only_its_states() {
        let mut tree = ParseTree::standard();
        let a = user_ir("a", 1);
        let b = user_ir("b", 2);
        merge_parse_trees(&mut tree, &a, "a");
        merge_parse_trees(&mut tree, &b, "b");
        let with_both = tree.len();
        tree.remove_user("a");
        assert!(tree.len() < with_both);
        assert!(tree.states().contains(&"inc_b"));
        assert!(!tree.states().contains(&"inc_a"));
        // the standard stack survives even repeated removals
        tree.remove_user("b");
        assert_eq!(tree.len(), 3);
        assert!(!tree.is_empty());
    }

    #[test]
    fn merged_image_keeps_base_head_first_and_tail_last() {
        let base = base_program();
        let user = user_ir("cms_0", 1);
        let image = merge_programs(&base, std::slice::from_ref(&user));
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
        let image = merge_programs(&base, &[a.clone(), b.clone()]);
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
        let image = merge_programs(&base_program(), std::slice::from_ref(&isolated));
        assert!(image.validate().is_ok(), "{}", image.dump());
        assert!(image.object("kvs_0_cache").is_some());
    }
}
