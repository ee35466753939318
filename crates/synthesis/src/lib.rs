//! # clickinc-synthesis — merging user programs with the base program
//!
//! Every device runs an operator-deployed *base program* (packet validation,
//! forwarding, telemetry).  ClickINC synthesizes the user snippets that
//! placement assigned to a device with that base program into one executable
//! (paper §6):
//!
//! * [`isolation`] — per-user renaming of variables and objects plus the
//!   user-ID traffic match so that two tenants deploying the same template never
//!   share state or see each other's data (the Count-Min-Sketch collision
//!   example of §2.2);
//! * [`base`] — a representative operator base program (parse / validate /
//!   forward) split into the *head* (functions the user snippets depend on,
//!   e.g. integrity checks) and the *tail* (functions that depend on the user
//!   snippets, e.g. the forwarding decision);
//! * [`merge`] — pipeline/RTC program merging (Fig. 10(b) / Algorithm 4):
//!   user snippets are spliced between the base head and tail by the one
//!   merge routine [`extend_image`], which the incremental path calls once
//!   per placed device on an image that starts as
//!   [`base::BaseProgram::image`];
//! * [`incremental`] — the annotation-based incremental compilation: adding a
//!   user program merges its per-device slices (cut by [`add_user_program`],
//!   or brought ready-cut to [`add_slices`]) into the running images;
//!   removing one strips its annotation and lazily deletes instructions that
//!   no longer have any owner — they stay as `NoOp`s until the next merge
//!   onto the device — without touching the other tenants (Table 6's
//!   comparison against monolithic redeployment).  The controller keeps each
//!   device's image as an [`incremental::ImageLog`] instead ([`ImageLogs`]):
//!   the shared one-owner slices merged onto it, each flagged once its
//!   tenant is struck, replayed into the same image when it is read.

pub mod base;
pub mod incremental;
pub mod isolation;
pub mod merge;

pub use base::base_program;
pub use incremental::{
    add_slices, add_user_program, remove_user_program, remove_user_program_from, DeploymentDelta,
    ImageLogs,
};
pub use isolation::isolate_user_program;
pub use merge::extend_image;
