//! # clickinc-ir — the platform-independent intermediate representation
//!
//! This crate implements the ClickINC IR described in §4.2 and Appendix A.4 of the
//! paper: a flat, sequentially-executed instruction set (no `goto`/`jump`) that the
//! compiler frontend lowers ClickINC programs into, that the placement engine
//! distributes over heterogeneous devices, and that the backends translate into
//! device-specific programs.
//!
//! The main pieces are:
//!
//! * [`types`] — value types, widths and runtime values shared with the emulator.
//! * [`name`] — [`Name`], the one type of every name in the IR (temporaries,
//!   header and metadata fields, objects, owners, programs): an immutable
//!   shared string that compares, orders, hashes and prints as its `str`, so
//!   copying a program or a slice of it copies no string.
//! * [`object`] — declarations of the stateful INC objects (Array, Table, Sketch,
//!   Seq, Hash, Crypto) that instructions operate on (paper Fig. 5 "Object").
//! * [`instr`] — the instruction set itself (paper Fig. 17) including guards
//!   (predicated execution, the result of the frontend's if-conversion), and
//!   the one walk over an instruction's operands: what it reads
//!   ([`Instruction::reads`], shared and mutable), defines, which object it
//!   touches and which header fields it writes.  Every analysis below and
//!   the isolation renaming iterate that walk instead of matching on opcodes.
//! * [`capability`] — the 13 device-capability classes of Table 9 and the
//!   functional-unit list of Table 8, plus the classifier that assigns a class to
//!   every instruction.
//! * [`resource`] — the generic resource-demand vector used by the device models.
//! * [`fnv`] — the stable FNV-1a digest every fingerprint in the system
//!   (object stores, placement plans, service requests, shard hashing) shares.
//! * [`program`] — the [`IrProgram`] container with validation and queries.
//! * [`deps`] — dependency-edge computation over the walk (including the
//!   mutual dependency of all instructions sharing a stateful object, paper
//!   §5.2 step 1, whose sharing rule is [`state_key`]).
//! * [`builder`] — an ergonomic builder used by the templates, tests and examples.
//! * [`eval`] — the reference ALU/compare semantics shared by the emulator's
//!   interpreter, the register VM and the frontend's constant folder.
//! * [`analysis`] — dataflow (value-graph liveness and header reads,
//!   borrowing their names from the program through the walk), the shared
//!   forward taint lattice behind the runtime's sharding decision, the
//!   verifier pass pipeline with structured diagnostics, and the optimizer's
//!   dead-value elimination.

pub mod analysis;
pub mod builder;
pub mod capability;
pub mod deps;
pub mod error;
pub mod eval;
pub mod fnv;
pub mod instr;
pub mod name;
pub mod object;
pub mod program;
pub mod resource;
pub mod types;

pub use analysis::{
    Diagnostic, DiagnosticSet, Optimizer, PassContext, PassManager, Severity, ShardingDecision,
    StateProfile,
};
pub use builder::ProgramBuilder;
pub use capability::{classify_instruction, CapabilityClass, FunctionalUnit};
pub use deps::{dependency_edges, state_key, DependencyKind};
pub use error::IrError;
pub use fnv::Fnv;
pub use instr::{AluOp, CmpOp, Guard, InstrId, Instruction, OpCode, Operand, Predicate};
pub use name::Name;
pub use object::{CryptoAlgo, HashAlgo, MatchKind, ObjectDecl, ObjectKind, SketchKind};
pub use program::{HeaderFieldDecl, IrProgram};
pub use resource::{Resource, ResourceVector};
pub use types::{Value, ValueType};
