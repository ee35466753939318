//! Static analysis over the IR: dataflow, taint, the verifier pipeline and
//! the optimizer.
//!
//! Four layers, each reusable on its own:
//!
//! * [`dataflow`] — value-graph liveness and header reads over the
//!   straight-line (if-converted) instruction stream.
//! * [`taint`] — the forward taint lattice tracking which header fields every
//!   value derives from, [`taint::state_profile`]: the walk behind the
//!   runtime's flow-sharding decision (`clickinc::sharding_mode_for`, run
//!   once per program text when the controller prepares it), and
//!   [`taint::mutation_kind`]: the one per-instruction mutation
//!   classification that walk pins on and the verifier's `commutativity`
//!   pass reports.
//! * [`passes`] — the [`passes::PassManager`]: a fixed list of verifier
//!   passes emitting structured [`diagnostics::Diagnostic`] values.  The
//!   service runs it once per deploy, before the first mutation; it is the
//!   deploy path's only verification.
//! * [`opt`] — the transform tier on the same diagnostics machinery:
//!   dead-value elimination (constants fold in the frontend).  A pure
//!   transform: it verifies nothing, and the deploy's verifier run sees its
//!   output.

pub mod dataflow;
pub mod diagnostics;
pub mod opt;
pub mod passes;
pub mod taint;

pub use dataflow::{header_reads, is_effectful, live_instructions};
pub use diagnostics::{Diagnostic, DiagnosticSet, Severity};
pub use opt::Optimizer;
pub use passes::{
    constant_indices, owned_by, ConstIndex, DeviceTarget, PassContext, PassManager, PlacedSnippet,
};
pub use taint::{
    mutation_kind, object_kinds, state_profile, MutationKind, ObjectKinds, PinReason,
    ShardingDecision, StateProfile, Taint,
};
