//! The single error surface of the ClickINC service.
//!
//! Every fallible operation on [`ClickIncService`], [`Controller`] and the
//! [`ServiceRequest`] builder reports a [`ClickIncError`], so callers match
//! on one type instead of juggling per-crate enums.  The enum is
//! `#[non_exhaustive]`: downstream matches need a wildcard arm, which lets
//! future subsystems add variants without a breaking change.
//!
//! [`ClickIncService`]: crate::ClickIncService
//! [`Controller`]: crate::Controller
//! [`ServiceRequest`]: crate::ServiceRequest

use crate::request::RequestError;
use clickinc_frontend::FrontendError;
use clickinc_placement::PlacementError;
use clickinc_runtime::EngineError;
use std::fmt;

/// Everything that can go wrong between a [`ServiceRequest`] and a running
/// tenant.
///
/// [`ServiceRequest`]: crate::ServiceRequest
#[derive(Debug)]
#[non_exhaustive]
pub enum ClickIncError {
    /// The user id is already deployed.
    DuplicateUser(String),
    /// The user id is not deployed (for removal).
    UnknownUser(String),
    /// A named server does not exist in the topology.
    UnknownHost(String),
    /// The request failed structural validation (empty ids, mismatched
    /// weights, …) before compilation was even attempted.
    InvalidRequest(RequestError),
    /// Compilation failed.
    Compile(FrontendError),
    /// Placement failed.
    Placement(PlacementError),
    /// A [`DeploymentPlan`] was committed after the controller state it was
    /// solved against changed (another commit or removal happened in
    /// between); re-plan and commit again.
    ///
    /// [`DeploymentPlan`]: crate::DeploymentPlan
    StalePlan {
        /// The user the stale plan belongs to.
        user: String,
        /// Controller epoch the plan was solved against.
        planned_epoch: u64,
        /// Controller epoch at commit time.
        current_epoch: u64,
    },
    /// The serving engine rejected its configuration or failed at runtime.
    Engine(EngineError),
    /// The static verifier pipeline found at least one error-severity
    /// diagnostic in the tenant's (isolation-renamed) program, so nothing was
    /// booked or installed.  The full [`DiagnosticSet`] — including
    /// warnings/infos that alone would not have blocked the deploy — rides
    /// along; `diagnostics.to_json()` exports it for tooling.
    ///
    /// [`DiagnosticSet`]: clickinc_ir::DiagnosticSet
    Verification {
        /// The user whose program failed verification.
        user: String,
        /// Every diagnostic the pass pipeline emitted.
        diagnostics: clickinc_ir::DiagnosticSet,
    },
    /// A device failure left the tenant unplaceable: every re-placement
    /// attempt after the fault failed (no feasible placement avoiding the
    /// failed devices, or admission refused the move).  The tenant is
    /// parked — its ledger bookings are released and it serves no traffic —
    /// and is retried automatically when the device is restored.
    Degraded {
        /// The parked tenant.
        user: String,
        /// The failed device that displaced it.
        device: String,
        /// Why re-placement failed (display of the underlying error).
        reason: String,
    },
    /// An [`AdmissionPolicy`] refused to let the plan commit.  The plan was
    /// feasible — compilation and placement succeeded — but provider policy
    /// (a resource floor, a tenant cap, …) vetoed it, and nothing was booked
    /// or installed.
    ///
    /// [`AdmissionPolicy`]: crate::AdmissionPolicy
    Rejected {
        /// The user whose plan was refused.
        user: String,
        /// Name of the policy that refused it (for a [`crate::PolicyChain`],
        /// the first member that rejected).
        policy: String,
        /// Human-readable grounds for the refusal.
        reason: String,
    },
}

impl fmt::Display for ClickIncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClickIncError::DuplicateUser(u) => {
                write!(f, "user `{u}` already has a deployed program")
            }
            ClickIncError::UnknownUser(u) => write!(f, "user `{u}` has no deployed program"),
            ClickIncError::UnknownHost(h) => {
                write!(f, "host `{h}` does not exist in the topology")
            }
            ClickIncError::InvalidRequest(e) => write!(f, "invalid request: {e}"),
            ClickIncError::Compile(e) => write!(f, "compilation failed: {e}"),
            ClickIncError::Placement(e) => write!(f, "placement failed: {e}"),
            ClickIncError::StalePlan { user, planned_epoch, current_epoch } => write!(
                f,
                "plan for `{user}` is stale: solved at controller epoch {planned_epoch}, \
                 now at {current_epoch} — re-plan and commit again"
            ),
            ClickIncError::Engine(e) => write!(f, "engine failure: {e}"),
            ClickIncError::Verification { user, diagnostics } => {
                use clickinc_ir::Severity;
                let errors = diagnostics.at(Severity::Error).count();
                write!(f, "static verification failed for `{user}`: {errors} error(s)")?;
                for d in diagnostics.at(Severity::Error).take(3) {
                    write!(f, "; [{}] {}", d.pass, d.message)?;
                }
                Ok(())
            }
            ClickIncError::Rejected { user, policy, reason } => {
                write!(f, "admission policy `{policy}` rejected `{user}`: {reason}")
            }
            ClickIncError::Degraded { user, device, reason } => write!(
                f,
                "tenant `{user}` is degraded: displaced by failed device `{device}` and not \
                 re-placeable ({reason}); parked until restore"
            ),
        }
    }
}

impl std::error::Error for ClickIncError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClickIncError::InvalidRequest(e) => Some(e),
            ClickIncError::Compile(e) => Some(e),
            ClickIncError::Placement(e) => Some(e),
            ClickIncError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrontendError> for ClickIncError {
    fn from(e: FrontendError) -> Self {
        ClickIncError::Compile(e)
    }
}

impl From<PlacementError> for ClickIncError {
    fn from(e: PlacementError) -> Self {
        ClickIncError::Placement(e)
    }
}

impl From<RequestError> for ClickIncError {
    fn from(e: RequestError) -> Self {
        ClickIncError::InvalidRequest(e)
    }
}

impl From<EngineError> for ClickIncError {
    fn from(e: EngineError) -> Self {
        ClickIncError::Engine(e)
    }
}
