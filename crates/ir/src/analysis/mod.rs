//! Static analysis over the IR: dataflow, taint, and the verifier pipeline.
//!
//! Three layers, each reusable on its own:
//!
//! * [`dataflow`] — value-graph liveness and header reads over the
//!   straight-line (if-converted) instruction stream.
//! * [`taint`] — the forward taint lattice tracking which header fields every
//!   value derives from, plus [`taint::state_profile`]: the single analysis
//!   behind both the runtime's flow-sharding decision
//!   (`clickinc::sharding_mode_for`) and the verifier's mutation
//!   classification.
//! * [`passes`] — the [`passes::PassManager`] pipeline of verifier passes
//!   emitting structured [`diagnostics::Diagnostic`] values; the service runs
//!   it before the first mutation of every deploy.
//! * [`opt`] — the transform tier mounted on the same diagnostics machinery:
//!   constant folding, dead-value elimination and guard hoisting, each run
//!   re-verified against the verifier pipeline before its output is accepted.

pub mod dataflow;
pub mod diagnostics;
pub mod opt;
pub mod passes;
pub mod taint;

pub use dataflow::{header_reads, is_effectful, live_instructions};
pub use diagnostics::{Diagnostic, DiagnosticSet, Severity};
pub use opt::{
    ConstFoldPass, DeadValueElimPass, GuardHoistPass, Optimizer, TransformContext, TransformPass,
};
pub use passes::{
    BoundsPass, CommutativityPass, DeadSnippetPass, DeviceTarget, IsolationPass, PassContext,
    PassManager, PlacedSnippet, ResourceBoundPass, SplitExecutionPass, UninitHeaderPass,
    VerifierPass,
};
pub use taint::{
    state_profile, MutationKind, MutationRecord, PinReason, ShardingDecision, StateProfile, Taint,
};
