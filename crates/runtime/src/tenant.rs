//! Tenant routing material shared between the control plane and the engine.
//!
//! A tenant's deployment, from the engine's point of view, is nothing more
//! than an ordered list of programmable hops: which device, which model (for
//! latency accounting on the shard's plane replicas), and which isolated IR
//! snippets to install there.  The controller (`clickinc`) produces these
//! from a placement plan; hand-built hop lists (as the benches and the
//! engine-invariance tests do) work just as well.

use clickinc_device::DeviceModel;
use clickinc_emulator::DevicePlane;
use clickinc_ir::IrProgram;
use std::sync::Arc;

/// One programmable hop of a tenant's deployment: the physical device, its
/// model (for latency accounting on replicas of the plane), and the isolated
/// IR snippets installed there.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantHop {
    /// Topology node name of the device.
    pub device: String,
    /// The device model.
    pub model: DeviceModel,
    /// The snippets installed on this device for the tenant, in install
    /// order (shared: cloning or installing a hop copies no IR).
    pub snippets: Vec<Arc<IrProgram>>,
}

impl TenantHop {
    /// A fresh plane of this hop's device running only this tenant's
    /// snippets: how tests and examples drive packets through a deployment
    /// without an engine.
    pub fn plane(&self) -> DevicePlane {
        let mut plane = DevicePlane::new(&self.device, self.model.clone());
        for snippet in &self.snippets {
            plane.install(Arc::clone(snippet));
        }
        plane
    }
}

/// How a tenant's traffic (and therefore its data-plane state) is
/// partitioned across engine shards.
///
/// * [`ByTenant`](ShardingMode::ByTenant) pins everything on one shard picked
///   by a stable hash of the tenant id.  This is always safe — the tenant's
///   state lives in exactly one place — and is bit-identical in the shard
///   count, but caps a single tenant at one worker thread.
/// * [`ByFlow`](ShardingMode::ByFlow) installs the tenant's program on
///   *every* shard and spreads its packets by a stable FNV hash of the flow
///   key, so one hot tenant can use every core.  Sound only for tenants whose
///   inter-packet state is *flow-keyed*: every stateful access must be
///   indexed by the `key_fields` (then all packets sharing a state cell land
///   on the same shard) or the tenant must carry no inter-packet state at
///   all.  Merged telemetry totals match the `ByTenant` run; per-shard state
///   partitions re-merge additively when the engine finishes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ShardingMode {
    /// All traffic and state on one shard (hash of the tenant id).
    #[default]
    ByTenant,
    /// Flows spread across every shard by a stable FNV flow hash.
    ByFlow {
        /// INC header fields forming the flow key.  Empty means the full
        /// flow identity: source, destination and every application field.
        key_fields: Vec<String>,
    },
}

impl ShardingMode {
    /// Whether this mode spreads a single tenant across every shard.
    pub fn is_by_flow(&self) -> bool {
        matches!(self, ShardingMode::ByFlow { .. })
    }

    /// Schema-stable label for telemetry export: `"by_tenant"`, `"by_flow"`
    /// (full flow identity) or `"by_flow:<field>+<field>"`.
    pub fn label(&self) -> String {
        match self {
            ShardingMode::ByTenant => "by_tenant".to_string(),
            ShardingMode::ByFlow { key_fields } if key_fields.is_empty() => "by_flow".to_string(),
            ShardingMode::ByFlow { key_fields } => format!("by_flow:{}", key_fields.join("+")),
        }
    }

    /// Whether a [`label`](ShardingMode::label) names a flow-sharded mode.
    pub(crate) fn is_by_flow_label(label: &str) -> bool {
        label.starts_with("by_flow")
    }
}
