//! Ergonomic builder for IR programs.
//!
//! The templates (KVS, MLAgg, DQAcc), the tests, and the examples construct IR
//! programs either by running the frontend on ClickINC source or directly through
//! this builder, which keeps instruction ids consistent and offers one-line
//! helpers for the common operations.

use crate::error::IrError;
use crate::instr::{AluOp, CmpOp, Guard, Instruction, OpCode, Operand, Predicate};
use crate::name::Name;
use crate::object::{HashAlgo, MatchKind, ObjectDecl, ObjectKind, SketchKind};
use crate::program::{HeaderFieldDecl, IrProgram};
use crate::types::ValueType;
use std::collections::BTreeSet;

/// Incrementally builds an [`IrProgram`].
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    program: IrProgram,
    next_id: u32,
    current_guard: Option<Guard>,
    owner: Option<Name>,
}

impl ProgramBuilder {
    /// Start a new program.
    pub fn new(name: impl Into<Name>) -> ProgramBuilder {
        ProgramBuilder {
            program: IrProgram::new(name),
            next_id: 0,
            current_guard: None,
            owner: None,
        }
    }

    /// Mark every subsequently added instruction and object as owned by `user`.
    pub fn owned_by(mut self, user: impl Into<Name>) -> ProgramBuilder {
        self.owner = Some(user.into());
        self
    }

    /// Declare a header field.
    pub fn header(&mut self, name: &str, ty: ValueType) -> &mut Self {
        self.program.headers.push(HeaderFieldDecl::new(name, ty));
        self
    }

    /// Declare a register array object.
    pub fn array(&mut self, name: &str, rows: u32, size: u32, width: u16) -> &mut Self {
        self.object(name, ObjectKind::Array { rows, size, width })
    }

    /// Declare a match-action table object.
    pub fn table(
        &mut self,
        name: &str,
        match_kind: MatchKind,
        key_width: u16,
        value_width: u16,
        depth: u32,
        stateful: bool,
    ) -> &mut Self {
        self.object(name, ObjectKind::Table { match_kind, key_width, value_width, depth, stateful })
    }

    /// Declare a sketch object.
    pub fn sketch(
        &mut self,
        name: &str,
        kind: SketchKind,
        rows: u32,
        cols: u32,
        width: u16,
    ) -> &mut Self {
        self.object(name, ObjectKind::Sketch { kind, rows, cols, width })
    }

    /// Declare a sequence object.
    pub fn seq(&mut self, name: &str, size: u32, width: u16) -> &mut Self {
        self.object(name, ObjectKind::Seq { size, width })
    }

    /// Declare a hash function object.
    pub fn hash_fn(&mut self, name: &str, algo: HashAlgo, modulus: Option<u32>) -> &mut Self {
        self.object(name, ObjectKind::Hash { algo, modulus })
    }

    /// Declare an arbitrary object.
    pub fn object(&mut self, name: &str, kind: ObjectKind) -> &mut Self {
        let decl = match &self.owner {
            Some(owner) => ObjectDecl::owned(name, kind, owner.clone()),
            None => ObjectDecl::new(name, kind),
        };
        self.program.objects.push(decl);
        self
    }

    /// Run `body` with every emitted instruction guarded by `pred` (in addition
    /// to any enclosing guard).  Guards nest by conjunction, mirroring the
    /// frontend's if-conversion of nested branches.
    pub fn guarded<F: FnOnce(&mut Self)>(&mut self, pred: Predicate, body: F) -> &mut Self {
        let saved = self.current_guard.clone();
        let mut g = saved.clone().unwrap_or_default();
        g.all.push(pred);
        self.current_guard = Some(g);
        body(self);
        self.current_guard = saved;
        self
    }

    /// Emit an instruction with the current guard and owner applied.
    pub fn emit(&mut self, op: OpCode) -> &mut Self {
        let id = self.next_id;
        self.next_id += 1;
        let mut instr = match &self.current_guard {
            Some(g) if !g.is_always() => Instruction::guarded(id, op, g.clone()),
            _ => Instruction::new(id, op),
        };
        if let Some(owner) = &self.owner {
            instr.owners.push(owner.clone());
        }
        self.program.instructions.push(instr);
        self
    }

    /// `dest = src`.
    pub fn assign(&mut self, dest: &str, src: Operand) -> &mut Self {
        self.emit(OpCode::Assign { dest: dest.into(), src })
    }

    /// `dest = lhs op rhs` on integers.
    pub fn alu(&mut self, dest: &str, op: AluOp, lhs: Operand, rhs: Operand) -> &mut Self {
        self.emit(OpCode::Alu { dest: dest.into(), op, lhs, rhs, float: false })
    }

    /// `dest = lhs op rhs` on floats.
    pub fn falu(&mut self, dest: &str, op: AluOp, lhs: Operand, rhs: Operand) -> &mut Self {
        self.emit(OpCode::Alu { dest: dest.into(), op, lhs, rhs, float: true })
    }

    /// `dest = (lhs cmp rhs)`.
    pub fn cmp(&mut self, dest: &str, op: CmpOp, lhs: Operand, rhs: Operand) -> &mut Self {
        self.emit(OpCode::Cmp { dest: dest.into(), op, lhs, rhs })
    }

    /// `dest = hash(object, keys...)`.
    pub fn hash(&mut self, dest: &str, object: &str, keys: Vec<Operand>) -> &mut Self {
        self.emit(OpCode::Hash { dest: dest.into(), object: object.into(), keys })
    }

    /// `dest = get(object, index...)`.
    pub fn get(&mut self, dest: &str, object: &str, index: Vec<Operand>) -> &mut Self {
        self.emit(OpCode::ReadState { dest: dest.into(), object: object.into(), index })
    }

    /// `write(object, index..., value...)`.
    pub fn write(&mut self, object: &str, index: Vec<Operand>, value: Vec<Operand>) -> &mut Self {
        self.emit(OpCode::WriteState { object: object.into(), index, value })
    }

    /// `dest = count(object, index, delta)`.
    pub fn count(
        &mut self,
        dest: Option<&str>,
        object: &str,
        index: Vec<Operand>,
        delta: Operand,
    ) -> &mut Self {
        self.emit(OpCode::CountState {
            dest: dest.map(Name::from),
            object: object.into(),
            index,
            delta,
        })
    }

    /// `del(object, index)`.
    pub fn del(&mut self, object: &str, index: Vec<Operand>) -> &mut Self {
        self.emit(OpCode::DeleteState { object: object.into(), index })
    }

    /// `drop()`.
    pub fn drop_packet(&mut self) -> &mut Self {
        self.emit(OpCode::Drop)
    }

    /// `fwd()`.
    pub fn forward(&mut self) -> &mut Self {
        self.emit(OpCode::Forward)
    }

    /// `back(hdr={...})`.
    pub fn back(&mut self, updates: Vec<(&str, Operand)>) -> &mut Self {
        self.emit(OpCode::Back {
            updates: updates.into_iter().map(|(f, v)| (f.into(), v)).collect(),
        })
    }

    /// `mirror(hdr={...})`.
    pub fn mirror(&mut self, updates: Vec<(&str, Operand)>) -> &mut Self {
        self.emit(OpCode::Mirror {
            updates: updates.into_iter().map(|(f, v)| (f.into(), v)).collect(),
        })
    }

    /// `copyto(target, values...)`.
    pub fn copy_to(&mut self, target: &str, values: Vec<Operand>) -> &mut Self {
        self.emit(OpCode::CopyTo { target: target.into(), values })
    }

    /// `hdr.field = value`.
    pub fn set_header(&mut self, field: &str, value: Operand) -> &mut Self {
        self.emit(OpCode::SetHeader { field: field.into(), value })
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.program.instructions.len()
    }

    /// Whether no instruction has been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.program.instructions.is_empty()
    }

    /// Finish and return the program.
    ///
    /// Rejects programs that would only fail later (as emulator panics or
    /// nonsense placements): an empty instruction stream, duplicate object
    /// declarations, an instruction whose object is not declared, and
    /// duplicate instruction ids.
    pub fn build(self) -> Result<IrProgram, IrError> {
        if self.program.instructions.is_empty() {
            return Err(IrError::EmptyProgram);
        }
        let mut objects = BTreeSet::new();
        for decl in &self.program.objects {
            if !objects.insert(decl.name.as_str()) {
                return Err(IrError::DuplicateObject { object: decl.name.to_string() });
            }
        }
        let mut ids = BTreeSet::new();
        for (idx, instr) in self.program.instructions.iter().enumerate() {
            if let Some(object) = instr.object().filter(|o| !objects.contains(o)) {
                return Err(IrError::UnknownObject { object: object.to_string(), instr: idx });
            }
            if !ids.insert(instr.id.0) {
                return Err(IrError::DuplicateInstrId { id: instr.id.0 });
            }
        }
        Ok(self.program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::CapabilityClass;
    use crate::types::Value;

    #[test]
    fn builder_assigns_sequential_ids() {
        let mut b = ProgramBuilder::new("p");
        b.assign("a", Operand::int(1)).assign("b", Operand::int(2)).forward();
        let p = b.build().unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.instructions[0].id.0, 0);
        assert_eq!(p.instructions[2].id.0, 2);
    }

    #[test]
    fn guarded_blocks_nest_by_conjunction() {
        let mut b = ProgramBuilder::new("p");
        b.assign("x", Operand::int(1));
        b.guarded(Predicate::new(Operand::hdr("op"), CmpOp::Eq, Operand::int(1)), |b| {
            b.assign("y", Operand::int(2));
            b.guarded(Predicate::new(Operand::var("x"), CmpOp::Gt, Operand::int(0)), |b| {
                b.drop_packet();
            });
            b.forward();
        });
        b.assign("z", Operand::int(3));
        let p = b.build().unwrap();
        assert!(p.instructions[0].guard.is_none());
        assert_eq!(p.instructions[1].guard.as_ref().unwrap().all.len(), 1);
        assert_eq!(p.instructions[2].guard.as_ref().unwrap().all.len(), 2);
        assert_eq!(p.instructions[3].guard.as_ref().unwrap().all.len(), 1);
        assert!(p.instructions[4].guard.is_none());
    }

    #[test]
    fn owner_propagates_to_instructions_and_objects() {
        let mut b = ProgramBuilder::new("kvs").owned_by("kvs_0");
        b.array("cache", 1, 8, 32);
        b.get("v", "cache", vec![Operand::int(0)]);
        let p = b.build().unwrap();
        assert_eq!(p.objects[0].owner.as_deref(), Some("kvs_0"));
        assert_eq!(p.instructions[0].owners, vec!["kvs_0".to_string()]);
        assert!(p.owners().contains("kvs_0"));
    }

    #[test]
    fn built_program_validates_and_classifies() {
        let mut b = ProgramBuilder::new("cms");
        b.header("key", ValueType::Bit(32));
        b.sketch("cms", SketchKind::CountMin, 3, 1024, 32);
        b.hash_fn("h0", HashAlgo::Crc16, Some(1024));
        b.hash("idx0", "h0", vec![Operand::hdr("key")]);
        b.count(Some("v0"), "cms", vec![Operand::int(0), Operand::var("idx0")], Operand::int(1));
        b.assign("relt", Operand::var("v0"));
        b.forward();
        let p = b.build().unwrap();
        assert_eq!(p.validate(), Ok(()));
        let caps = p.required_capabilities();
        assert!(caps.contains(&CapabilityClass::Baf));
        assert!(caps.contains(&CapabilityClass::Bso));
    }

    #[test]
    fn all_emit_helpers_produce_expected_opcodes() {
        let mut b = ProgramBuilder::new("all");
        b.table("t", MatchKind::Exact, 32, 32, 16, false);
        b.seq("s", 4, 8);
        b.assign("a", Operand::int(0));
        b.alu("b", AluOp::Add, Operand::var("a"), Operand::int(1));
        b.falu("c", AluOp::Mul, Operand::var("b"), Operand::int(2));
        b.cmp("d", CmpOp::Lt, Operand::var("c"), Operand::int(10));
        b.get("e", "t", vec![Operand::hdr("key")]);
        b.write("t", vec![Operand::hdr("key")], vec![Operand::var("e")]);
        b.del("s", vec![Operand::int(0)]);
        b.back(vec![("op", Operand::int(2))]);
        b.mirror(vec![("overflow", Operand::int(1))]);
        b.copy_to("CPU", vec![Operand::hdr("key")]);
        b.set_header("op", Operand::int(3));
        b.drop_packet();
        assert!(!b.is_empty());
        assert_eq!(b.len(), 12);
        let p = b.build().unwrap();
        let mnems: Vec<&str> = p.instructions.iter().map(|i| i.op.mnemonic()).collect();
        assert_eq!(
            mnems,
            vec![
                "mov", "alu", "alu", "cmp", "get", "write", "del", "back", "mirror", "copyto",
                "sethdr", "drop"
            ]
        );
        // float ALU carries the float flag
        match &p.instructions[2].op {
            OpCode::Alu { float, .. } => assert!(*float),
            _ => panic!("expected ALU"),
        }
        // constants preserved
        match &p.instructions[0].op {
            OpCode::Assign { src, .. } => assert_eq!(*src, Operand::Const(Value::Int(0))),
            _ => panic!("expected assign"),
        }
    }

    #[test]
    fn empty_program_is_rejected_at_build_time() {
        let b = ProgramBuilder::new("empty");
        assert_eq!(b.build().unwrap_err(), IrError::EmptyProgram);
        // declaring objects alone does not make a program
        let mut b = ProgramBuilder::new("objects_only");
        b.array("a", 1, 4, 32);
        assert_eq!(b.build().unwrap_err(), IrError::EmptyProgram);
    }

    #[test]
    fn duplicate_object_declaration_is_rejected_at_build_time() {
        let mut b = ProgramBuilder::new("p");
        b.array("a", 1, 4, 32);
        b.seq("a", 8, 16);
        b.forward();
        assert_eq!(b.build().unwrap_err(), IrError::DuplicateObject { object: "a".into() });
    }

    #[test]
    fn an_undeclared_object_is_rejected_at_build_time() {
        let mut b = ProgramBuilder::new("p");
        b.array("a", 1, 4, 32);
        b.get("v", "a", vec![Operand::int(0)]);
        b.get("w", "b", vec![Operand::int(0)]);
        let err = IrError::UnknownObject { object: "b".into(), instr: 1 };
        assert_eq!(b.build().unwrap_err(), err);
    }

    #[test]
    fn duplicate_instruction_ids_are_rejected_at_build_time() {
        let mut b = ProgramBuilder::new("p");
        b.forward();
        // splice a colliding id in behind the builder's back, as a buggy
        // snippet merge would
        let mut p = b.build().unwrap();
        p.instructions.push(Instruction::new(0, OpCode::Drop));
        let mut b = ProgramBuilder::new("spliced");
        b.program = p;
        assert_eq!(b.build().unwrap_err(), IrError::DuplicateInstrId { id: 0 });
    }
}
