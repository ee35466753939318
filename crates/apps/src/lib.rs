//! # clickinc-apps — the evaluated INC applications as ready-made scenarios
//!
//! The paper's evaluation revolves around three applications (KVS, MLAgg with
//! its sparse-gradient extension, and DQAcc) deployed over the Fig. 11
//! emulation topology and the Fig. 12 testbed.  This crate packages those
//! applications and workloads so the benches, examples and integration tests
//! share one definition of every experiment:
//!
//! * [`fig13`] — the five network configurations of Fig. 13 (DPDK baseline,
//!   smartNIC only, one switch, two switches, switch + smartNIC) with the
//!   sparse-gradient workload, swept by the single-threaded scenario loop
//!   (the path-shape ablation);
//! * [`house`] — what every served scenario below stands up: the service,
//!   the KVS + MLAgg tenant pair on disjoint routes, the cache fill, the
//!   seeded generators and the results on the way out;
//! * [`serving`] — the same KVS/MLAgg workloads deployed through the
//!   `ClickIncService` facade and served by the sharded traffic engine —
//!   the default serving path — plus the overload scenario that drives a
//!   hot, flow-sharded tenant into the bounded ingress queues;
//! * [`adaptive`] — the load-shift scenario for the adaptive runtime: a
//!   pinned hot tenant saturates its home shard, the telemetry-driven
//!   control loop live-reshards it and rebalances ingress budgets, and the
//!   admit ratio recovers with bit-identical results;
//! * [`failover`] — the device-failure scenario: a victim tenant's device
//!   dies mid-run on the virtual clock, the controller quiesces and
//!   re-places it around the failure (or parks it `Degraded`), the restore
//!   revives it, and a co-resident tenant on disjoint routes stays
//!   bit-identical to a fault-free run;
//! * [`churn`] — the 1000-tenant arrival/departure churn scenario: a
//!   provider's arrival queue cycling a pool of program shapes through a
//!   capped resident set, sustained against the serving engine — the
//!   placement memo's and the reactive admission pipeline's showcase;
//! * [`multiuser`] — the six program instances and traffic endpoints of
//!   Table 3 and the add/remove sequence of Table 6.

pub mod adaptive;
pub mod churn;
pub mod failover;
pub mod fig13;
pub mod house;
pub mod multiuser;
pub mod serving;

pub use adaptive::{
    serve_adaptive_scenario, AdaptiveServingConfig, AdaptiveServingReport, PhaseStats,
};
pub use churn::{run_churn_scenario, ChurnConfig, ChurnReport};
pub use failover::{serve_failover_scenario, FailoverServingConfig, FailoverServingReport};
pub use fig13::{fig13_configurations, Fig13Case};
pub use multiuser::{table3_requests, table6_steps, Table6Step};
pub use serving::{
    serve_fig13_workloads, serve_overload_scenario, OverloadConfig, OverloadReport, ServingConfig,
    ServingReport,
};
