//! Forward taint lattice over header-field provenance, behind the runtime's
//! flow-sharding decision, and the per-instruction mutation classification
//! the verifier shares with it.
//!
//! The lattice tracks, for every variable, which packet header fields its
//! value is derived from: constants, header reads, ALU/compare/hash
//! combinations and reads of stateful objects at already-derivable indices all
//! stay derivable ([`Taint::Fields`]); anything else — metadata besides
//! `inc_user`/`step`, variables imported from outside the analyzed snippets,
//! reads of header fields the program itself rewrote — is [`Taint::Tainted`].
//!
//! [`state_profile`] walks a program once and produces a [`StateProfile`]:
//! the per-access flow-key candidates and the first reason (if any) the
//! program is pinned to a single shard.  The controller walks each program
//! text once, when it first prepares it (`clickinc::sharding_mode_for`,
//! called by `PreparedSource::derive`), and lends the resulting sharding
//! mode to every later deploy of the same text.
//!
//! [`mutation_kind`] classifies one instruction's state mutation.  The walk
//! pins on exactly the non-commutative kinds it returns, and the verifier's
//! `commutativity` pass reports those same kinds without walking, so the
//! runtime can never shard a tenant the verifier would call untearable (or
//! vice versa).

use crate::instr::{Instruction, OpCode, Operand};
use crate::name::Name;
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

    /// Why this mutation of `object` pins a deployment to one shard; `None`
    /// for the commutative kinds.
    fn pin_reason(self, object: &str) -> Option<PinReason> {
        let object = || to_s(object);
        match self {
            MutationKind::Count | MutationKind::BloomSet => None,
            MutationKind::Overwrite => Some(PinReason::Overwrite { object: object() }),
            MutationKind::TableWrite => Some(PinReason::TableWrite { object: object() }),
            MutationKind::Delete => Some(PinReason::Delete { object: object() }),
            MutationKind::Clear => Some(PinReason::Clear { object: object() }),
            MutationKind::RandomDraw => Some(PinReason::RandomDraw),
        }
    }
}

/// The declared objects of one or more programs, by name.
pub type ObjectKinds<'a> = BTreeMap<&'a str, &'a ObjectKind>;

/// The object declarations of `programs`, the first declaration of a name
/// winning — so a slice may reference an object a co-located slice of the
/// same program declares.
pub fn object_kinds<'a>(programs: impl IntoIterator<Item = &'a IrProgram>) -> ObjectKinds<'a> {
    let mut kinds = ObjectKinds::new();
    for program in programs {
        for object in &program.objects {
            kinds.entry(object.name.as_str()).or_insert(&object.kind);
        }
    }
    kinds
}

/// The state mutation `instruction` performs, given the `kinds` of the
/// objects it may name, or `None` when it mutates no state.
///
/// Overwrites are only mergeable when they are idempotent: a Bloom set ORs
/// exactly, and a counter increment sums exactly even when two flows collide
/// on one cell.  Register/table overwrites have no order-free merge — two
/// flows colliding on a hash-modulo slot from different shards would tear
/// the cell.  Control-plane-only tables are written by the data plane in no
/// template, and replicated writes could shadow them, so any data-plane
/// write to one counts.  Deleting from a replicated or partitioned object
/// resurrects or tears entries on merge, a clear is a whole-object effect
/// (replicas would clear only their own partition), and per-tenant draw
/// streams are order-dependent across the whole tenant, not per flow.
pub fn mutation_kind(instruction: &Instruction, kinds: &ObjectKinds<'_>) -> Option<MutationKind> {
    let stateful = |object: &str| kinds.get(object).is_some_and(|k| k.is_stateful());
    match &instruction.op {
        OpCode::CountState { object, .. } if stateful(object) => Some(MutationKind::Count),
        OpCode::WriteState { object, .. } => match kinds.get(object.as_str()) {
            Some(ObjectKind::Sketch { kind: SketchKind::Bloom, .. }) => {
                Some(MutationKind::BloomSet)
            }
            Some(kind) if kind.is_stateful() => Some(MutationKind::Overwrite),
            Some(ObjectKind::Table { .. }) => Some(MutationKind::TableWrite),
            _ => None,
        },
        OpCode::DeleteState { object, .. } if kinds.contains_key(object.as_str()) => {
            Some(MutationKind::Delete)
        }
        OpCode::ClearState { object } if stateful(object) => Some(MutationKind::Clear),
        OpCode::RandInt { .. } => Some(MutationKind::RandomDraw),
        _ => None,
    }
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

/// The result of the taint walk over a program.
#[derive(Debug, Clone, Default)]
pub struct StateProfile {
    /// Per stateful access, the header fields its index derives from.
    pub access_keys: Vec<BTreeSet<String>>,
    /// The first reason (in walk order) the program was pinned, if any.
    pub pinned: Option<PinReason>,
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
}

struct Walker<'a> {
    vars: BTreeMap<Name, Taint>,
    rewritten_headers: BTreeSet<Name>,
    kinds: ObjectKinds<'a>,
    profile: StateProfile,
}

impl Walker<'_> {
    fn operand_taint(&self, operand: &Operand) -> Taint {
        match operand {
            Operand::Const(_) => Taint::Fields(BTreeSet::new()),
            Operand::Header(field) => {
                if self.rewritten_headers.contains(field) {
                    Taint::Tainted
                } else {
                    Taint::Fields(BTreeSet::from([field.to_string()]))
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

    fn assign(&mut self, dest: &Name, taint: Taint) {
        self.vars.insert(dest.clone(), taint);
    }

    fn analyze(&mut self, instruction: &Instruction) {
        let mutation = mutation_kind(instruction, &self.kinds);
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
                let taint = self.record_access(object, index);
                if let Some(dest) = dest {
                    self.assign(dest, taint);
                }
            }
            // a Bloom set is keyed like a read; the other overwrites pin below
            OpCode::WriteState { object, index, .. }
                if mutation == Some(MutationKind::BloomSet) =>
            {
                self.record_access(object, index);
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
            OpCode::WriteState { .. }
            | OpCode::DeleteState { .. }
            | OpCode::ClearState { .. }
            | OpCode::RandInt { .. }
            | OpCode::Drop
            | OpCode::Forward
            | OpCode::Mirror { .. }
            | OpCode::Multicast { .. }
            | OpCode::CopyTo { .. }
            | OpCode::NoOp => {}
        }
        let object = instruction.op.object().unwrap_or_default();
        if let Some(reason) = mutation.and_then(|kind| kind.pin_reason(object)) {
            self.pin(reason);
        }
    }
}

fn to_s(s: &str) -> String {
    s.to_string()
}

/// Run the taint walk over `snippets` (in order) and return their
/// [`StateProfile`].  Object declarations are collected across all snippets
/// first ([`object_kinds`]).
pub fn state_profile(snippets: &[&IrProgram]) -> StateProfile {
    let mut walker = Walker {
        vars: BTreeMap::new(),
        rewritten_headers: BTreeSet::new(),
        kinds: object_kinds(snippets.iter().copied()),
        profile: StateProfile::default(),
    };
    for snippet in snippets {
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

    /// Every mutation of `p`, classified, in instruction order.
    fn mutations(p: &IrProgram) -> Vec<MutationKind> {
        let kinds = object_kinds([p]);
        p.instructions.iter().filter_map(|i| mutation_kind(i, &kinds)).collect()
    }

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
        assert_eq!(mutations(&p), [MutationKind::Count]);
        assert!(MutationKind::Count.is_commutative());
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
        assert_eq!(mutations(&p), [MutationKind::Overwrite]);
        assert!(!MutationKind::Overwrite.is_commutative());
    }

    #[test]
    fn walk_continues_past_a_pin_and_keeps_the_first_reason() {
        let mut b = ProgramBuilder::new("p");
        b.array("a", 1, 8, 32);
        b.array("b", 1, 8, 32);
        b.count(None, "a", vec![Operand::int(0)], Operand::int(1)); // pins: constant index
        b.write("b", vec![Operand::hdr("k")], vec![Operand::int(1)]); // a later pin is not kept
        let p = b.build().unwrap();
        let profile = state_profile(&[&p]);
        assert_eq!(profile.pinned, Some(PinReason::ConstantIndex { object: "a".into() }));
        assert_eq!(mutations(&p), [MutationKind::Count, MutationKind::Overwrite]);
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
