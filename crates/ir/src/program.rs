//! The [`IrProgram`] container.

use crate::capability::{classify_instruction, CapabilityClass};
use crate::deps::{dependency_edges, DependencyKind};
use crate::error::IrError;
use crate::instr::{Guard, Instruction, OpCode, Operand};
use crate::object::ObjectDecl;
use crate::types::ValueType;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Declaration of a packet header field used by a program (the application
/// protocol header, e.g. a 128-bit `key`).
#[derive(Debug, Clone, PartialEq)]
pub struct HeaderFieldDecl {
    /// Field name (without the `hdr.` prefix).
    pub name: String,
    /// Field type.
    pub ty: ValueType,
}

impl HeaderFieldDecl {
    /// Create a header field declaration.
    pub fn new(name: impl Into<String>, ty: ValueType) -> Self {
        HeaderFieldDecl { name: name.into(), ty }
    }
}

/// A complete platform-independent IR program: object declarations, the header
/// fields it parses, and a straight-line list of (optionally guarded)
/// instructions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IrProgram {
    /// Program name (the user program id, e.g. `kvs_0`, or `base` for the
    /// operator's program).
    pub name: String,
    /// Stateful / functional object declarations.
    pub objects: Vec<ObjectDecl>,
    /// Header fields parsed / written by the program.
    pub headers: Vec<HeaderFieldDecl>,
    /// The instruction stream.
    pub instructions: Vec<Instruction>,
    /// A program-level guard evaluated once per packet before any instruction:
    /// when it fails, the whole program is skipped for that packet.  Produced
    /// by the optimizer's guard-hoisting pass (e.g. the tenant-isolation
    /// `meta.inc_user == id` predicate shared by every instruction); `None`
    /// means the program runs unconditionally.  Predicates here may only read
    /// constants, metadata and header fields — never variables — so the guard
    /// is well-defined before the first instruction executes.
    pub precondition: Option<Guard>,
}

impl IrProgram {
    /// Create an empty program with a name.
    pub fn new(name: impl Into<String>) -> IrProgram {
        IrProgram { name: name.into(), ..IrProgram::default() }
    }

    /// Look up an object declaration by name.
    pub fn object(&self, name: &str) -> Option<&ObjectDecl> {
        self.objects.iter().find(|o| o.name == name)
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Classify every instruction (paper Table 9), in program order.
    pub fn capability_classes(&self) -> Vec<CapabilityClass> {
        self.instructions.iter().map(|i| classify_instruction(i, &self.objects)).collect()
    }

    /// The set of distinct capability classes required by the program.
    pub fn required_capabilities(&self) -> BTreeSet<CapabilityClass> {
        self.capability_classes().into_iter().collect()
    }

    /// Dependency edges over instruction indices (see [`dependency_edges`]).
    pub fn dependencies(&self) -> Vec<(usize, usize, DependencyKind)> {
        dependency_edges(&self.instructions, &self.objects)
    }

    /// The longest chain length in the data-dependency DAG (the "dependency"
    /// column of paper Table 4).  State (mutual) edges are ignored because they
    /// merge into single blocks rather than forming a chain.
    pub fn dependency_depth(&self) -> usize {
        let n = self.instructions.len();
        if n == 0 {
            return 0;
        }
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (a, b, kind) in self.dependencies() {
            if kind == DependencyKind::Data {
                succ[a].push(b);
            }
        }
        // longest path in a DAG whose edges always go forward in index order
        let mut depth = vec![1usize; n];
        for i in (0..n).rev() {
            for &j in &succ[i] {
                depth[i] = depth[i].max(1 + depth[j]);
            }
        }
        depth.into_iter().max().unwrap_or(0)
    }

    /// All user ids that own at least one instruction or object.
    pub fn owners(&self) -> BTreeSet<String> {
        let mut set = BTreeSet::new();
        // a tenant owns many instructions: copy its id only at first sight
        let owners = self.instructions.iter().flat_map(|i| &i.owners);
        for o in owners.chain(self.objects.iter().filter_map(|o| o.owner.as_ref())) {
            if !set.contains(o) {
                set.insert(o.clone());
            }
        }
        set
    }

    /// Validate structural invariants:
    ///
    /// 1. every referenced object is declared exactly once;
    /// 2. every variable read has a prior definition (headers/meta are exempt);
    /// 3. SSA: no variable is written twice *unconditionally*.  Multiple
    ///    *guarded* writes to the same variable are allowed — that is exactly
    ///    the φ-merge pattern the frontend emits after if-conversion, where the
    ///    guards are mutually exclusive.
    pub fn validate(&self) -> Result<(), IrError> {
        if self.instructions.is_empty() {
            return Err(IrError::EmptyProgram);
        }
        let mut names = BTreeSet::new();
        for o in &self.objects {
            if !names.insert(o.name.as_str()) {
                return Err(IrError::DuplicateObject { object: o.name.clone() });
            }
        }
        // the precondition runs before instruction 0, so no variable can
        // possibly be defined yet
        if let Some(v) = self.precondition_vars().next() {
            return Err(IrError::UndefinedVariable { var: v.to_string(), instr: 0 });
        }
        let mut defined: BTreeSet<&str> = BTreeSet::new();
        let mut def_counts: BTreeMap<&str, usize> = BTreeMap::new();
        for (idx, instr) in self.instructions.iter().enumerate() {
            if let Some(obj) = instr.object() {
                if self.object(obj).is_none() {
                    return Err(IrError::UnknownObject { object: obj.to_string(), instr: idx });
                }
            }
            // of several undefined reads, report the first by name
            if let Some(v) = instr.read_vars().filter(|v| !defined.contains(v)).min() {
                return Err(IrError::UndefinedVariable { var: v.to_string(), instr: idx });
            }
            if let Some(w) = instr.dest() {
                defined.insert(w);
                if instr.guard.is_none() {
                    *def_counts.entry(w).or_insert(0) += 1;
                }
            }
        }
        for (var, count) in def_counts {
            if count > 1 {
                return Err(IrError::DuplicateAssignment { var: var.to_string() });
            }
        }
        Ok(())
    }

    /// A compact textual dump used by tests and the CLI examples.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("program {} ({} instrs)\n", self.name, self.len()));
        if let Some(pre) = &self.precondition {
            out.push_str(&format!("  precondition: {pre}\n"));
        }
        for o in &self.objects {
            out.push_str(&format!(
                "  object {} : {}{}\n",
                o.name,
                o.kind.kind_name(),
                o.owner.as_ref().map(|u| format!(" [{u}]")).unwrap_or_default()
            ));
        }
        for (idx, i) in self.instructions.iter().enumerate() {
            let class = classify_instruction(i, &self.objects);
            out.push_str(&format!("  {idx:3}: {i} ({class})\n"));
        }
        out
    }

    /// The per-device slice of this program: the instructions at `instrs` (in
    /// the given order, ids kept) plus the headers, the precondition — a
    /// hoisted isolation guard must travel with every slice, or the slice
    /// would run on co-resident tenants' packets — and exactly the objects
    /// those instructions reference.  The workspace's only slicer.
    pub fn slice(&self, instrs: &[usize]) -> IrProgram {
        let instructions: Vec<Instruction> =
            instrs.iter().map(|&i| self.instructions[i].clone()).collect();
        let objects = self
            .objects
            .iter()
            .filter(|o| instructions.iter().any(|i| i.object() == Some(o.name.as_str())))
            .cloned()
            .collect();
        IrProgram {
            name: self.name.clone(),
            objects,
            headers: self.headers.clone(),
            instructions,
            precondition: self.precondition.clone(),
        }
    }

    /// The temporaries this program reads — in an operand, a guard or the
    /// precondition — that none of its instructions defines.  For a
    /// per-device [`IrProgram::slice`] these are the values another device's
    /// slice computed: what a cross-device carrier would have to deliver.
    pub fn free_vars(&self) -> BTreeSet<&str> {
        let defined: BTreeSet<&str> = self.instructions.iter().filter_map(|i| i.dest()).collect();
        let read = self.instructions.iter().flat_map(|i| i.read_vars());
        read.chain(self.precondition_vars()).filter(|v| !defined.contains(v)).collect()
    }

    /// The temporaries the precondition reads (a valid program has none).
    fn precondition_vars(&self) -> impl Iterator<Item = &str> {
        self.precondition.iter().flat_map(Guard::operands).filter_map(Operand::as_var)
    }

    /// Remove instructions turned into [`OpCode::NoOp`] and renumber ids.
    /// Run by the synthesizer's merge step over what lazy removal left.
    pub fn compact(&mut self) {
        self.instructions.retain(|i| !matches!(i.op, OpCode::NoOp));
        for (idx, i) in self.instructions.iter_mut().enumerate() {
            i.id = crate::instr::InstrId(idx as u32);
        }
    }
}

impl fmt::Display for IrProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.dump())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{AluOp, Operand};
    use crate::object::{HashAlgo, ObjectKind};

    fn sample() -> IrProgram {
        let mut p = IrProgram::new("test");
        p.objects.push(ObjectDecl::new("agg", ObjectKind::Array { rows: 1, size: 64, width: 32 }));
        p.objects.push(ObjectDecl::new(
            "h",
            ObjectKind::Hash { algo: HashAlgo::Crc16, modulus: Some(64) },
        ));
        p.headers.push(HeaderFieldDecl::new("seq", ValueType::Bit(32)));
        p.headers.push(HeaderFieldDecl::new("data", ValueType::Bit(32)));
        p.instructions = vec![
            Instruction::new(
                0,
                OpCode::Hash {
                    dest: "idx".into(),
                    object: "h".into(),
                    keys: vec![Operand::hdr("seq")],
                },
            ),
            Instruction::new(
                1,
                OpCode::ReadState {
                    dest: "cur".into(),
                    object: "agg".into(),
                    index: vec![Operand::var("idx")],
                },
            ),
            Instruction::new(
                2,
                OpCode::Alu {
                    dest: "sum".into(),
                    op: AluOp::Add,
                    lhs: Operand::var("cur"),
                    rhs: Operand::hdr("data"),
                    float: false,
                },
            ),
            Instruction::new(
                3,
                OpCode::WriteState {
                    object: "agg".into(),
                    index: vec![Operand::var("idx")],
                    value: vec![Operand::var("sum")],
                },
            ),
            Instruction::new(4, OpCode::Forward),
        ];
        p
    }

    #[test]
    fn valid_program_passes_validation() {
        assert_eq!(sample().validate(), Ok(()));
    }

    #[test]
    fn empty_program_rejected() {
        assert_eq!(IrProgram::new("x").validate(), Err(IrError::EmptyProgram));
    }

    #[test]
    fn unknown_object_rejected() {
        let mut p = sample();
        p.objects.remove(0); // drop `agg`
        match p.validate() {
            Err(IrError::UnknownObject { object, .. }) => assert_eq!(object, "agg"),
            other => panic!("expected UnknownObject, got {other:?}"),
        }
    }

    #[test]
    fn undefined_variable_rejected() {
        let mut p = sample();
        p.instructions.remove(0); // idx never defined
        match p.validate() {
            Err(IrError::UndefinedVariable { var, .. }) => assert_eq!(var, "idx"),
            other => panic!("expected UndefinedVariable, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_assignment_rejected() {
        let mut p = sample();
        let dup = Instruction::new(5, OpCode::Assign { dest: "sum".into(), src: Operand::int(0) });
        p.instructions.push(dup);
        match p.validate() {
            Err(IrError::DuplicateAssignment { var }) => assert_eq!(var, "sum"),
            other => panic!("expected DuplicateAssignment, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_object_rejected() {
        let mut p = sample();
        p.objects.push(ObjectDecl::new("agg", ObjectKind::Seq { size: 1, width: 1 }));
        assert_eq!(p.validate(), Err(IrError::DuplicateObject { object: "agg".into() }));
    }

    #[test]
    fn capability_summary() {
        let p = sample();
        let caps = p.required_capabilities();
        assert!(caps.contains(&CapabilityClass::Baf)); // hash
        assert!(caps.contains(&CapabilityClass::Bso)); // array read/write
        assert!(caps.contains(&CapabilityClass::Bin)); // add
        assert!(caps.contains(&CapabilityClass::Bbpf)); // fwd
        assert!(!caps.contains(&CapabilityClass::Bca));
    }

    #[test]
    fn dependency_depth_of_chain() {
        // hash -> read -> add -> write is a 4-long data chain
        assert_eq!(sample().dependency_depth(), 4);
        let mut indep = IrProgram::new("indep");
        indep.instructions = vec![
            Instruction::new(0, OpCode::Assign { dest: "a".into(), src: Operand::int(1) }),
            Instruction::new(1, OpCode::Assign { dest: "b".into(), src: Operand::int(2) }),
        ];
        assert_eq!(indep.dependency_depth(), 1);
        assert_eq!(IrProgram::new("e").dependency_depth(), 0);
    }

    #[test]
    fn owners_collected_from_instructions_and_objects() {
        let mut p = sample();
        p.instructions[0].owners.push("kvs_0".into());
        p.objects.push(ObjectDecl::owned("mtb", ObjectKind::Seq { size: 2, width: 8 }, "mlagg_1"));
        let owners = p.owners();
        assert!(owners.contains("kvs_0"));
        assert!(owners.contains("mlagg_1"));
        assert_eq!(owners.len(), 2);
    }

    #[test]
    fn compact_removes_noops_and_renumbers() {
        let mut p = sample();
        p.instructions[2].op = OpCode::NoOp;
        p.compact();
        assert_eq!(p.len(), 4);
        for (idx, i) in p.instructions.iter().enumerate() {
            assert_eq!(i.id.0 as usize, idx);
        }
    }

    #[test]
    fn dump_mentions_objects_and_instructions() {
        let d = sample().dump();
        assert!(d.contains("program test"));
        assert!(d.contains("object agg"));
        assert!(d.contains("BSO"));
    }

    #[test]
    fn precondition_may_read_meta_and_headers_but_not_vars() {
        use crate::instr::{CmpOp, Guard, Predicate};
        let mut p = sample();
        p.precondition = Some(Guard::single(Predicate::new(
            Operand::Meta("inc_user".into()),
            CmpOp::Eq,
            Operand::int(7),
        )));
        assert_eq!(p.validate(), Ok(()));
        assert!(p.dump().contains("precondition: meta.inc_user == 7"));

        p.precondition =
            Some(Guard::single(Predicate::new(Operand::var("x"), CmpOp::Eq, Operand::int(1))));
        assert_eq!(
            p.validate(),
            Err(IrError::UndefinedVariable { var: "x".into(), instr: 0 }),
            "a variable can never be defined before the precondition runs"
        );
    }
}
