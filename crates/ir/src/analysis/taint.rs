//! Forward taint lattice over header-field provenance, shared by the runtime's
//! flow-sharding decision and the verifier's mutation classification.
//!
//! The lattice tracks, for every variable, which packet header fields its
//! value is derived from: constants, header reads, ALU/compare/hash
//! combinations and reads of stateful objects at already-derivable indices all
//! stay derivable ([`Taint::Fields`]); anything else — metadata besides
//! `inc_user`/`step`, variables imported from outside the analyzed snippets,
//! reads of header fields the program itself rewrote — is [`Taint::Tainted`].
//!
//! [`state_profile`] walks a deployment's snippets once and produces a
//! [`StateProfile`]: the per-access flow-key candidates, every state mutation
//! classified as commutative or not, and the first reason (if any) the
//! deployment is pinned to a single shard.  `clickinc::sharding_mode_for` and
//! the verifier's non-commutative-mutation pass both consume this one
//! analysis, so the runtime can never shard a tenant the verifier would call
//! untearable (or vice versa).

use crate::instr::{Instruction, OpCode, Operand};
use crate::object::{ObjectKind, SketchKind};
use crate::program::IrProgram;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// What a variable's value can depend on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Taint {
    /// Derivable from the given packet header fields (possibly none — a
    /// constant) and partition-local state.
    Fields(BTreeSet<String>),
    /// Not derivable from the inject-time packet alone (e.g. a temporary
    /// only an upstream device's slice defines, or read from a header field
    /// the program rewrote).
    Tainted,
}

impl Taint {
    /// Join two lattice points; `Tainted` absorbs.
    pub fn union(self, other: Taint) -> Taint {
        match (self, other) {
            (Taint::Fields(mut a), Taint::Fields(b)) => {
                a.extend(b);
                Taint::Fields(a)
            }
            _ => Taint::Tainted,
        }
    }
}

/// Why a deployment cannot be flow-sharded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PinReason {
    /// A stateful access with a constant index: every packet may touch the
    /// same cell.
    ConstantIndex {
        /// The accessed object.
        object: String,
    },
    /// A stateful access whose index is not derivable from the inject-time
    /// packet.
    TaintedIndex {
        /// The accessed object.
        object: String,
    },
    /// A register/sequence overwrite: no order-free merge exists.
    Overwrite {
        /// The written object.
        object: String,
    },
    /// A data-plane write to a match-action table.
    TableWrite {
        /// The written object.
        object: String,
    },
    /// A data-plane delete.
    Delete {
        /// The deleted-from object.
        object: String,
    },
    /// A data-plane clear of a stateful object (whole-object effect).
    Clear {
        /// The cleared object.
        object: String,
    },
    /// A `randint` draw from the tenant's order-dependent stream.
    RandomDraw,
    /// Stateful accesses with no common key field.
    DisjointKeys,
}

impl fmt::Display for PinReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PinReason::ConstantIndex { object } => {
                write!(f, "constant-indexed access to `{object}`")
            }
            PinReason::TaintedIndex { object } => {
                write!(f, "underivable index into `{object}`")
            }
            PinReason::Overwrite { object } => write!(f, "register overwrite of `{object}`"),
            PinReason::TableWrite { object } => write!(f, "data-plane table write to `{object}`"),
            PinReason::Delete { object } => write!(f, "data-plane delete from `{object}`"),
            PinReason::Clear { object } => write!(f, "data-plane clear of `{object}`"),
            PinReason::RandomDraw => write!(f, "randint draw from the tenant stream"),
            PinReason::DisjointKeys => write!(f, "stateful accesses share no key field"),
        }
    }
}

/// The kind of state mutation an instruction performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationKind {
    /// Counter increment (`count`): sums exactly across partitions.
    Count,
    /// Bloom filter set: ORs exactly across partitions.
    BloomSet,
    /// Register/sequence overwrite: order-dependent, no exact merge.
    Overwrite,
    /// Match-action table write from the data plane.
    TableWrite,
    /// Entry delete.
    Delete,
    /// Whole-object clear.
    Clear,
    /// Random draw advancing the tenant's stream.
    RandomDraw,
}

impl MutationKind {
    /// Whether partitions of this mutation merge exactly in any order.
    pub fn is_commutative(&self) -> bool {
        matches!(self, MutationKind::Count | MutationKind::BloomSet)
    }

    /// Stable lowercase name used in diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            MutationKind::Count => "count",
            MutationKind::BloomSet => "bloom-set",
            MutationKind::Overwrite => "overwrite",
            MutationKind::TableWrite => "table-write",
            MutationKind::Delete => "delete",
            MutationKind::Clear => "clear",
            MutationKind::RandomDraw => "random-draw",
        }
    }
}

/// One classified state mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutationRecord {
    /// Name of the snippet (program) containing the mutation.
    pub snippet: String,
    /// Id of the mutating instruction within the snippet.
    pub instr: u32,
    /// The mutated object, if the mutation targets one (`randint` does not).
    pub object: Option<String>,
    /// What the mutation does.
    pub kind: MutationKind,
}

/// How a deployment may be spread over engine shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardingDecision {
    /// No inter-packet state: shard by the full flow identity.
    Stateless,
    /// Every stateful access is keyed by (at least) these header fields:
    /// hashing flows by them co-locates all sharers of any state cell.
    ByKey(Vec<String>),
    /// Pinned to a single shard, for the given reason.
    Pinned(PinReason),
}

/// The result of the taint walk over a deployment's snippets.
#[derive(Debug, Clone, Default)]
pub struct StateProfile {
    /// Per stateful access, the header fields its index derives from.
    pub access_keys: Vec<BTreeSet<String>>,
    /// The first reason (in walk order) the deployment was pinned, if any.
    pub pinned: Option<PinReason>,
    /// Every state mutation, classified.
    pub mutations: Vec<MutationRecord>,
}

impl StateProfile {
    /// Derive the sharding decision: pinned reasons win, then statelessness,
    /// then the intersection of all access keys (empty intersection pins).
    pub fn sharding_decision(&self) -> ShardingDecision {
        if let Some(reason) = &self.pinned {
            return ShardingDecision::Pinned(reason.clone());
        }
        if self.access_keys.is_empty() {
            return ShardingDecision::Stateless;
        }
        let mut keys = self.access_keys.clone();
        let mut common = keys.pop().expect("non-empty");
        for set in keys {
            common = common.intersection(&set).cloned().collect();
        }
        if common.is_empty() {
            ShardingDecision::Pinned(PinReason::DisjointKeys)
        } else {
            ShardingDecision::ByKey(common.into_iter().collect())
        }
    }

    /// The mutations with no order-free merge.
    pub fn non_commutative_mutations(&self) -> impl Iterator<Item = &MutationRecord> {
        self.mutations.iter().filter(|m| !m.kind.is_commutative())
    }
}

struct Walker {
    vars: BTreeMap<String, Taint>,
    rewritten_headers: BTreeSet<String>,
    kinds: BTreeMap<String, ObjectKind>,
    profile: StateProfile,
    snippet: String,
}

impl Walker {
    fn operand_taint(&self, operand: &Operand) -> Taint {
        match operand {
            Operand::Const(_) => Taint::Fields(BTreeSet::new()),
            Operand::Header(field) => {
                if self.rewritten_headers.contains(field) {
                    Taint::Tainted
                } else {
                    Taint::Fields(BTreeSet::from([field.clone()]))
                }
            }
            // `meta.inc_user` is constant per tenant; `meta.step` advances
            // identically for every packet at a given execution point.
            Operand::Meta(field) if field == "inc_user" || field == "step" => {
                Taint::Fields(BTreeSet::new())
            }
            Operand::Meta(_) => Taint::Tainted,
            Operand::Var(name) => self.vars.get(name).cloned().unwrap_or(Taint::Tainted),
        }
    }

    fn operands_taint(&self, operands: &[Operand]) -> Taint {
        operands
            .iter()
            .fold(Taint::Fields(BTreeSet::new()), |acc, op| acc.union(self.operand_taint(op)))
    }

    fn is_stateful(&self, object: &str) -> bool {
        self.kinds.get(object).is_some_and(|k| k.is_stateful())
    }

    fn pin(&mut self, reason: PinReason) {
        if self.profile.pinned.is_none() {
            self.profile.pinned = Some(reason);
        }
    }

    /// Record a read/count access to `object` indexed by `index`.
    /// Non-stateful objects (pure hashes, control-plane tables) constrain
    /// nothing; stateful ones must have a derivable, non-constant index.
    fn record_access(&mut self, object: &str, index: &[Operand]) -> Taint {
        let taint = self.operands_taint(index);
        if self.is_stateful(object) {
            match &taint {
                Taint::Fields(fields) if !fields.is_empty() => {
                    self.profile.access_keys.push(fields.clone());
                }
                // constant or tainted index: every packet may touch the same
                // cell — only safe with all traffic on one shard
                Taint::Fields(_) => self.pin(PinReason::ConstantIndex { object: to_s(object) }),
                Taint::Tainted => self.pin(PinReason::TaintedIndex { object: to_s(object) }),
            }
        }
        taint
    }

    fn assign(&mut self, dest: &str, taint: Taint) {
        self.vars.insert(dest.to_string(), taint);
    }

    fn mutation(&mut self, instr: &Instruction, object: Option<&str>, kind: MutationKind) {
        self.profile.mutations.push(MutationRecord {
            snippet: self.snippet.clone(),
            instr: instr.id.0,
            object: object.map(to_s),
            kind,
        });
    }

    fn analyze(&mut self, instruction: &Instruction) {
        match &instruction.op {
            OpCode::Assign { dest, src } => {
                let taint = self.operand_taint(src);
                self.assign(dest, taint);
            }
            OpCode::Alu { dest, lhs, rhs, .. } | OpCode::Cmp { dest, lhs, rhs, .. } => {
                let taint = self.operand_taint(lhs).union(self.operand_taint(rhs));
                self.assign(dest, taint);
            }
            OpCode::Hash { dest, keys, .. } => {
                let taint = self.operands_taint(keys);
                self.assign(dest, taint);
            }
            OpCode::Checksum { dest, inputs } => {
                let taint = self.operands_taint(inputs);
                self.assign(dest, taint);
            }
            OpCode::Crypto { dest, input, .. } => {
                let taint = self.operand_taint(input);
                self.assign(dest, taint);
            }
            OpCode::ReadState { dest, object, index } => {
                let taint = self.record_access(object, index);
                self.assign(dest, taint);
            }
            OpCode::CountState { dest, object, index, .. } => {
                // a counter increment: commutative, sums exactly across flow
                // partitions even when two flows collide on one cell
                let taint = self.record_access(object, index);
                if self.is_stateful(object) {
                    self.mutation(instruction, Some(object), MutationKind::Count);
                }
                if let Some(dest) = dest {
                    self.assign(dest, taint);
                }
            }
            OpCode::WriteState { object, index, .. } => {
                // overwrites are only mergeable when they are idempotent: a
                // Bloom set ORs exactly.  Register/table overwrites have no
                // order-free merge — two flows colliding on a hash-modulo slot
                // from different shards would tear the cell — so they pin the
                // tenant to one shard.
                match self.kinds.get(object).cloned() {
                    Some(ObjectKind::Sketch { kind: SketchKind::Bloom, .. }) => {
                        self.record_access(object, index);
                        self.mutation(instruction, Some(object), MutationKind::BloomSet);
                    }
                    Some(kind) if kind.is_stateful() => {
                        self.pin(PinReason::Overwrite { object: to_s(object) });
                        self.mutation(instruction, Some(object), MutationKind::Overwrite);
                    }
                    // control-plane-only tables are written by the data plane
                    // in no template, and replicated writes could shadow them:
                    // treat any data-plane write as disqualifying
                    Some(ObjectKind::Table { .. }) => {
                        self.pin(PinReason::TableWrite { object: to_s(object) });
                        self.mutation(instruction, Some(object), MutationKind::TableWrite);
                    }
                    _ => {}
                }
            }
            OpCode::DeleteState { object, .. } => {
                // deleting from a replicated/partitioned object resurrects or
                // tears entries on merge
                if self.kinds.contains_key(object.as_str()) {
                    self.pin(PinReason::Delete { object: to_s(object) });
                    self.mutation(instruction, Some(object), MutationKind::Delete);
                }
            }
            OpCode::ClearState { object } => {
                // a data-plane clear is a whole-object effect: replicas would
                // clear only their own partition
                if self.is_stateful(object) {
                    self.pin(PinReason::Clear { object: to_s(object) });
                    self.mutation(instruction, Some(object), MutationKind::Clear);
                }
            }
            OpCode::RandInt { .. } => {
                // per-tenant draw streams are order-dependent across the
                // whole tenant, not per flow
                self.pin(PinReason::RandomDraw);
                self.mutation(instruction, None, MutationKind::RandomDraw);
            }
            OpCode::SetHeader { field, .. } => {
                self.rewritten_headers.insert(field.clone());
            }
            OpCode::Back { updates } => {
                // `back()` rewrites the live packet's header before bouncing
                // it, and subsequent (guarded) instructions still execute —
                // the same laundering hazard as SetHeader
                for (field, _) in updates {
                    self.rewritten_headers.insert(field.clone());
                }
            }
            OpCode::Drop
            | OpCode::Forward
            | OpCode::Mirror { .. }
            | OpCode::Multicast { .. }
            | OpCode::CopyTo { .. }
            | OpCode::NoOp => {}
        }
    }
}

fn to_s(s: &str) -> String {
    s.to_string()
}

/// Run the taint walk over a deployment's snippets (in deployment order) and
/// return its [`StateProfile`].  Object declarations are collected across all
/// snippets first, so a snippet may reference an object declared by a
/// co-located slice of the same program.
pub fn state_profile(snippets: &[&IrProgram]) -> StateProfile {
    let mut walker = Walker {
        vars: BTreeMap::new(),
        rewritten_headers: BTreeSet::new(),
        kinds: BTreeMap::new(),
        profile: StateProfile::default(),
        snippet: String::new(),
    };
    for snippet in snippets {
        for object in &snippet.objects {
            walker.kinds.entry(object.name.clone()).or_insert_with(|| object.kind.clone());
        }
    }
    for snippet in snippets {
        walker.snippet = snippet.name.clone();
        for instruction in &snippet.instructions {
            walker.analyze(instruction);
        }
    }
    walker.profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::object::{HashAlgo, SketchKind};

    #[test]
    fn keyed_counts_are_commutative_and_keyed() {
        let mut b = ProgramBuilder::new("kvs");
        b.sketch("cms", SketchKind::CountMin, 3, 64, 32);
        b.count(None, "cms", vec![Operand::hdr("key")], Operand::int(1));
        b.forward();
        let p = b.build().unwrap();
        let profile = state_profile(&[&p]);
        assert_eq!(profile.pinned, None);
        assert_eq!(profile.sharding_decision(), ShardingDecision::ByKey(vec!["key".to_string()]));
        assert_eq!(profile.mutations.len(), 1);
        assert!(profile.mutations[0].kind.is_commutative());
        assert_eq!(profile.non_commutative_mutations().count(), 0);
    }

    #[test]
    fn register_overwrite_pins_and_classifies() {
        let mut b = ProgramBuilder::new("agg");
        b.array("reg", 1, 64, 32);
        b.write("reg", vec![Operand::hdr("key")], vec![Operand::hdr("seq")]);
        b.forward();
        let p = b.build().unwrap();
        let profile = state_profile(&[&p]);
        assert_eq!(profile.pinned, Some(PinReason::Overwrite { object: "reg".into() }));
        assert!(matches!(profile.sharding_decision(), ShardingDecision::Pinned(_)));
        assert_eq!(profile.non_commutative_mutations().count(), 1);
        assert_eq!(profile.mutations[0].kind, MutationKind::Overwrite);
    }

    #[test]
    fn walk_continues_past_a_pin_and_keeps_the_first_reason() {
        let mut b = ProgramBuilder::new("p");
        b.array("a", 1, 8, 32);
        b.array("b", 1, 8, 32);
        b.count(None, "a", vec![Operand::int(0)], Operand::int(1)); // pins: constant index
        b.write("b", vec![Operand::hdr("k")], vec![Operand::int(1)]); // later overwrite still classified
        let p = b.build().unwrap();
        let profile = state_profile(&[&p]);
        assert_eq!(profile.pinned, Some(PinReason::ConstantIndex { object: "a".into() }));
        assert_eq!(profile.mutations.len(), 2, "mutations after the pin are still recorded");
    }

    #[test]
    fn stateless_and_disjoint_key_decisions() {
        let mut b = ProgramBuilder::new("fwd");
        b.forward();
        let p = b.build().unwrap();
        assert_eq!(state_profile(&[&p]).sharding_decision(), ShardingDecision::Stateless);

        let mut b = ProgramBuilder::new("dj");
        b.array("a", 1, 8, 32);
        b.array("b", 1, 8, 32);
        b.count(None, "a", vec![Operand::hdr("key")], Operand::int(1));
        b.count(None, "b", vec![Operand::hdr("seq")], Operand::int(1));
        let p = b.build().unwrap();
        assert_eq!(
            state_profile(&[&p]).sharding_decision(),
            ShardingDecision::Pinned(PinReason::DisjointKeys)
        );
    }

    #[test]
    fn hash_objects_stay_pure_and_propagate_fields() {
        let mut b = ProgramBuilder::new("p");
        b.hash_fn("h", HashAlgo::Crc16, Some(64));
        b.array("acc", 1, 64, 32);
        b.hash("slot", "h", vec![Operand::hdr("key")]);
        b.count(None, "acc", vec![Operand::var("slot")], Operand::int(1));
        let p = b.build().unwrap();
        assert_eq!(
            state_profile(&[&p]).sharding_decision(),
            ShardingDecision::ByKey(vec!["key".to_string()])
        );
    }

    #[test]
    fn rewritten_header_taints_later_reads() {
        let mut b = ProgramBuilder::new("p");
        b.array("acc", 1, 64, 32);
        b.set_header("key", Operand::int(0));
        b.count(None, "acc", vec![Operand::hdr("key")], Operand::int(1));
        let p = b.build().unwrap();
        assert_eq!(
            state_profile(&[&p]).pinned,
            Some(PinReason::TaintedIndex { object: "acc".into() })
        );
    }
}
