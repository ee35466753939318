//! The repo benchmark: four fixed-work workloads driven through
//! `ClickIncService`, end-to-end metrics from the quiet lap across blocks, and a
//! traced run that attributes them to layers.  README.md beside Cargo.toml has
//! the design; `BENCHMARK.json` at the repo root has the contract.

pub mod alloc;
pub mod cli;
pub mod compare;
pub mod cpus;
pub mod metrics;
pub mod probes;
pub mod replay;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
pub mod yardstick;

// Process-wide, so `allocs_per_op` and the `*.allocs_per_*` layer metrics see
// the shard threads' allocations as well as the bench thread's.
#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
