//! Admission control: provider policy in front of a commit.
//!
//! INC as a service means the provider — not the tenant — decides what runs
//! on the shared data plane (paper §3.2; cf. NetRPC's shared-INC admission
//! model).  Feasibility alone ("the program compiles and places") is not
//! admission: a provider also enforces resource headroom for residents and
//! tenant quotas.  This module is that layer.
//!
//! An [`AdmissionPolicy`] inspects an [`AdmissionContext`] — the controller
//! facts at the would-be commit and, once it exists, the solved
//! [`DeploymentPlan`] — and returns an [`AdmissionDecision`].  Policies
//! compose with [`PolicyChain`] (first rejection wins).  The service holds
//! one chain, installed with [`ClickIncService::set_admission_policy`], and
//! asks it twice per request: once with `plan: None` *before* the solve,
//! where a verdict that needs no plan ([`MaxTenants`]) refuses without
//! compiling or placing anything, and once with the solved plan, where the
//! policy that reads it ([`ResourceFloor`]) judges — it admits on `None`.
//! Both calls precede the first mutation, so a rejection leaves the ledger,
//! the device images and the engine bit-identical to before the call and
//! surfaces as [`ClickIncError::Rejected`].
//!
//! [`ClickIncError::Rejected`]: crate::ClickIncError::Rejected
//! [`ClickIncService::set_admission_policy`]: crate::ClickIncService::set_admission_policy

use crate::controller::DeploymentPlan;
use std::fmt;

/// What a policy sees when a request asks to commit: the controller-wide
/// facts of the moment plus, once solved, the plan.  For a batch, each
/// member is gated at *its own* commit — `active_tenants` already includes
/// the batch members committed before it.
#[derive(Clone, Copy)]
pub struct AdmissionContext<'a> {
    /// The solved plan asking to commit, or `None` on the pre-solve call,
    /// which lets a verdict that needs no plan refuse before the solve runs.
    /// A policy that needs the plan admits on `None`: it judges on the
    /// second call, which always carries the plan.
    pub plan: Option<&'a DeploymentPlan>,
    /// Number of tenants currently deployed (not counting this plan).
    pub active_tenants: usize,
}

/// The structured outcome of an admission check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// The plan may commit.
    Admit,
    /// The plan must not commit.
    Reject {
        /// Name of the policy that refused (for a chain, the first refuser).
        policy: String,
        /// Human-readable grounds.
        reason: String,
    },
}

impl AdmissionDecision {
    /// Build a rejection carrying the refusing policy's name.
    pub fn reject(policy: &impl AdmissionPolicy, reason: impl Into<String>) -> AdmissionDecision {
        AdmissionDecision::Reject { policy: policy.name().to_string(), reason: reason.into() }
    }

    /// Whether the decision admits the plan.
    pub fn is_admit(&self) -> bool {
        matches!(self, AdmissionDecision::Admit)
    }
}

impl fmt::Display for AdmissionDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionDecision::Admit => write!(f, "admit"),
            AdmissionDecision::Reject { policy, reason } => {
                write!(f, "reject by `{policy}`: {reason}")
            }
        }
    }
}

/// A composable admission rule.  `Send + Sync` because chains are installed
/// on the service and consulted from whatever thread commits.
pub trait AdmissionPolicy: Send + Sync {
    /// Stable policy name, quoted in [`AdmissionDecision::Reject`] and
    /// [`ClickIncError::Rejected`](crate::ClickIncError::Rejected).
    fn name(&self) -> &str;

    /// Judge one would-be commit, before its solve (`ctx.plan` is `None`)
    /// or after it.  A rule that needs the plan must admit on `None`.
    fn evaluate(&self, ctx: &AdmissionContext<'_>) -> AdmissionDecision;
}

/// Reject any plan whose *predicted* post-commit remaining resource ratio
/// falls below a floor — the provider's headroom guarantee for resident
/// tenants and future arrivals (the ROADMAP's "reject commits that would
/// push the remaining ratio below a floor" bullet, verbatim).  Needs the
/// plan, so it admits on the pre-solve call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceFloor {
    /// Minimum acceptable network-wide remaining resource ratio after the
    /// commit, in `[0, 1]`.
    pub min_remaining_ratio: f64,
}

impl AdmissionPolicy for ResourceFloor {
    fn name(&self) -> &str {
        "resource_floor"
    }

    fn evaluate(&self, ctx: &AdmissionContext<'_>) -> AdmissionDecision {
        let Some(plan) = ctx.plan else { return AdmissionDecision::Admit };
        let predicted = plan.predicted_remaining_ratio();
        if predicted < self.min_remaining_ratio {
            AdmissionDecision::reject(
                self,
                format!(
                    "predicted remaining ratio {predicted:.4} would fall below the \
                     {:.4} floor",
                    self.min_remaining_ratio
                ),
            )
        } else {
            AdmissionDecision::Admit
        }
    }
}

/// Cap the number of co-resident tenants (a provider quota).  Reads only
/// the tenant count, so it decides on the pre-solve call: a full house
/// refuses without a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaxTenants {
    /// Maximum number of simultaneously deployed tenants.
    pub max_tenants: usize,
}

impl AdmissionPolicy for MaxTenants {
    fn name(&self) -> &str {
        "max_tenants"
    }

    fn evaluate(&self, ctx: &AdmissionContext<'_>) -> AdmissionDecision {
        if ctx.active_tenants >= self.max_tenants {
            AdmissionDecision::reject(
                self,
                format!(
                    "{} tenant(s) already deployed, the cap is {}",
                    ctx.active_tenants, self.max_tenants
                ),
            )
        } else {
            AdmissionDecision::Admit
        }
    }
}

/// An ordered conjunction of policies: every member must admit; the first
/// rejection wins and its member's name (not "chain") is what the decision
/// and the [`Rejected`](crate::ClickIncError::Rejected) error carry.  An
/// empty chain admits everything — it is the service default.
#[derive(Default)]
pub struct PolicyChain {
    policies: Vec<Box<dyn AdmissionPolicy>>,
}

impl PolicyChain {
    /// The empty (admit-everything) chain.
    pub fn new() -> PolicyChain {
        PolicyChain::default()
    }

    /// Append a policy (builder style).
    pub fn with(mut self, policy: impl AdmissionPolicy + 'static) -> PolicyChain {
        self.push(policy);
        self
    }

    /// Append a policy.
    pub fn push(&mut self, policy: impl AdmissionPolicy + 'static) {
        self.policies.push(Box::new(policy));
    }
}

impl AdmissionPolicy for PolicyChain {
    fn name(&self) -> &str {
        "policy_chain"
    }

    fn evaluate(&self, ctx: &AdmissionContext<'_>) -> AdmissionDecision {
        for policy in &self.policies {
            let decision = policy.evaluate(ctx);
            if !decision.is_admit() {
                return decision;
            }
        }
        AdmissionDecision::Admit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Controller, ServiceRequest};
    use clickinc_lang::templates::{kvs_template, KvsParams};
    use clickinc_topology::Topology;

    fn planned() -> (Controller, DeploymentPlan) {
        let c = Controller::new(Topology::emulation_topology_all_tofino());
        let t = kvs_template("kvs0", KvsParams { cache_depth: 1000, ..Default::default() });
        let plan = c.plan(&ServiceRequest::from_template(t, &["pod0a"], "pod2b")).expect("plans");
        (c, plan)
    }

    fn ctx_of(plan: &DeploymentPlan, active: usize) -> AdmissionContext<'_> {
        AdmissionContext { plan: Some(plan), active_tenants: active }
    }

    fn plan_free(active: usize) -> AdmissionContext<'static> {
        AdmissionContext { plan: None, active_tenants: active }
    }

    #[test]
    fn resource_floor_compares_the_predicted_ratio() {
        let (_c, plan) = planned();
        let predicted = plan.predicted_remaining_ratio();
        let lenient = ResourceFloor { min_remaining_ratio: predicted - 0.01 };
        assert!(lenient.evaluate(&ctx_of(&plan, 0)).is_admit());
        let strict = ResourceFloor { min_remaining_ratio: predicted + 0.01 };
        match strict.evaluate(&ctx_of(&plan, 0)) {
            AdmissionDecision::Reject { policy, reason } => {
                assert_eq!(policy, "resource_floor");
                assert!(reason.contains("floor"), "got: {reason}");
            }
            AdmissionDecision::Admit => panic!("the strict floor must reject"),
        }
    }

    #[test]
    fn max_tenants_counts_the_residents() {
        let (_c, plan) = planned();
        let cap = MaxTenants { max_tenants: 2 };
        assert!(cap.evaluate(&ctx_of(&plan, 1)).is_admit());
        assert!(!cap.evaluate(&ctx_of(&plan, 2)).is_admit());
    }

    #[test]
    fn without_a_plan_only_the_tenant_cap_can_refuse() {
        // the cap reads the tenant count alone: it decides before the solve
        let cap = MaxTenants { max_tenants: 2 };
        assert!(cap.evaluate(&plan_free(1)).is_admit());
        match cap.evaluate(&plan_free(2)) {
            AdmissionDecision::Reject { policy, reason } => {
                assert_eq!(policy, "max_tenants");
                assert!(reason.contains("the cap is 2"), "got: {reason}");
            }
            AdmissionDecision::Admit => panic!("a full house must refuse without a plan"),
        }
        // policies that need the plan admit on the pre-solve call, however
        // strict they are — they judge once the plan exists
        assert!(ResourceFloor { min_remaining_ratio: 2.0 }.evaluate(&plan_free(0)).is_admit());
    }

    #[test]
    fn chains_pass_the_plan_free_context_through() {
        let chain = PolicyChain::new()
            .with(ResourceFloor { min_remaining_ratio: 2.0 })
            .with(MaxTenants { max_tenants: 3 });
        assert!(chain.evaluate(&plan_free(2)).is_admit());
        match chain.evaluate(&plan_free(3)) {
            AdmissionDecision::Reject { policy, .. } => assert_eq!(policy, "max_tenants"),
            AdmissionDecision::Admit => panic!("the cap must refuse through the chain"),
        }
        // with the plan, the floor ahead of the cap refuses first again
        let (_c, plan) = planned();
        match chain.evaluate(&ctx_of(&plan, 3)) {
            AdmissionDecision::Reject { policy, .. } => assert_eq!(policy, "resource_floor"),
            AdmissionDecision::Admit => panic!("the chain must reject"),
        }
    }

    #[test]
    fn chains_admit_all_or_surface_the_first_rejection() {
        let (_c, plan) = planned();
        assert!(PolicyChain::new().evaluate(&ctx_of(&plan, 5)).is_admit(), "empty = open");
        let chain = PolicyChain::new()
            .with(MaxTenants { max_tenants: 10 })
            .with(ResourceFloor { min_remaining_ratio: 2.0 }) // impossible: always rejects
            .with(MaxTenants { max_tenants: 0 }); // would also reject, but never runs
        match chain.evaluate(&ctx_of(&plan, 0)) {
            AdmissionDecision::Reject { policy, .. } => {
                assert_eq!(policy, "resource_floor", "first rejection wins");
            }
            AdmissionDecision::Admit => panic!("the chain must reject"),
        }
    }
}
