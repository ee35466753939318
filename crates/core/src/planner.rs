//! Batch-scoped admission policies over the service's one admission
//! pipeline.
//!
//! [`ClickIncService::planner`] returns a [`Planner`]: the same
//! [`deploy`](Planner::deploy) / [`deploy_all`](Planner::deploy_all) the
//! service offers, with extra [`AdmissionPolicy`] rules stacked *after* the
//! service-wide chain for the lifetime of this planner only — a provider
//! admitting one customer's batch under a stricter floor, a maintenance
//! window's device carve-out, and so on.  That is the planner's whole job:
//! solving, gating, committing, rollback and engine mirroring are the
//! service's pipeline (see [`crate::service`]), so a refusal here is the same
//! typed [`ClickIncError::Rejected`], raised before the first mutation, as
//! anywhere else.

use crate::error::ClickIncError;
use crate::policy::{AdmissionPolicy, PolicyChain};
use crate::request::ServiceRequest;
use crate::service::{ClickIncService, Gate, TenantHandle};

/// A deploy surface with batch-scoped admission policies; see the
/// [module docs](self).  Obtained from [`ClickIncService::planner`]; cheap to
/// create, so make one per batch.
pub struct Planner<'a> {
    service: &'a ClickIncService,
    policies: PolicyChain,
}

impl<'a> Planner<'a> {
    pub(crate) fn new(service: &'a ClickIncService) -> Planner<'a> {
        Planner { service, policies: PolicyChain::new() }
    }

    /// Append a batch-scoped admission policy, evaluated *after* the
    /// service-wide chain installed with
    /// [`ClickIncService::set_admission_policy`].
    pub fn with_policy(mut self, policy: impl AdmissionPolicy + 'static) -> Planner<'a> {
        self.policies.push(policy);
        self
    }

    /// [`ClickIncService::deploy`] with this planner's policies stacked on
    /// the service chain.
    pub fn deploy(&self, request: ServiceRequest) -> Result<TenantHandle, ClickIncError> {
        self.service.deploy_gated(&request, Gate::ServiceAnd(&self.policies))
    }

    /// [`ClickIncService::deploy_all`] with this planner's policies stacked
    /// on the service chain: each member is gated at *its own* commit (the
    /// gate sees the residents and ratio left by its predecessors), and any
    /// refusal unwinds the whole batch.
    pub fn deploy_all(
        &self,
        requests: Vec<ServiceRequest>,
    ) -> Result<Vec<TenantHandle>, ClickIncError> {
        self.service.deploy_all_gated(requests, Gate::ServiceAnd(&self.policies))
    }
}
