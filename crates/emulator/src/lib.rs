//! # clickinc-emulator — executing placed programs on an emulated data plane
//!
//! The paper evaluates ClickINC on a software emulation platform (vendor
//! behavioural models wired together with virtual NICs, §7.1) and on a small
//! hardware testbed.  Neither is available here, so this crate provides the
//! substitute described in DESIGN.md: a packet-level emulator that
//!
//! * interprets the *exact IR snippets* the compiler produced, with faithful
//!   stateful objects (register arrays, exact/ternary tables, count-min
//!   sketches, Bloom filters, rolling sequences) — [`state`] and [`interp`];
//! * carries packets with the ClickINC INC header (user id, step number,
//!   application fields) — [`packet`];
//! * generates seeded, open-loop application workloads (ML gradient
//!   aggregation with optional sparsity, KVS request streams) — [`workload`],
//!   which the traffic engine drives;
//! * keeps one single-threaded loop, the Fig. 13 aggregation ablation: it
//!   pushes gradient traffic along a path of device planes and reports
//!   goodput, in-network latency and per-link byte counts — [`scenario`].
//!
//! The absolute numbers are those of a simulator, but the *mechanisms* that
//! produce the paper's Fig. 13 shape — traffic reduction from in-network
//! aggregation, payload shrinking from sparse-block removal, per-device
//! processing latency — are all modelled explicitly.

pub mod interp;
pub mod packet;
pub mod scenario;
pub mod state;
pub mod vm;
pub mod workload;
pub mod zipf;

pub use interp::{DevicePlane, ExecOutcome, PacketAction};
pub use packet::{IncHeader, Packet};
pub use scenario::{kvs_backend_value, run_aggregation_scenario, AggregationReport, NetworkSetup};
pub use state::{Fnv, ObjectStore};
pub use vm::{CompiledImage, CompiledProgram, ExecMode};
pub use zipf::ZipfSampler;

#[cfg(test)]
mod proptests {
    use super::*;
    use clickinc_ir::Value;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Count-min sketch estimates never under-count.
        #[test]
        fn cms_never_undercounts(keys in proptest::collection::vec(0u32..50, 1..200)) {
            let mut store = ObjectStore::new();
            store.declare(&clickinc_ir::ObjectDecl::new("cms", clickinc_ir::ObjectKind::Sketch {
                kind: clickinc_ir::SketchKind::CountMin,
                rows: 3,
                cols: 64,
                width: 32,
            }));
            let mut truth = std::collections::BTreeMap::new();
            for k in &keys {
                store.sketch_count("cms", &Value::Int(i64::from(*k)), 1);
                *truth.entry(*k).or_insert(0i64) += 1;
            }
            for (k, count) in truth {
                let est = store.sketch_estimate("cms", &Value::Int(i64::from(k)));
                prop_assert!(est >= count, "estimate {est} < true count {count}");
            }
        }

        /// Bloom filters have no false negatives.
        #[test]
        fn bloom_has_no_false_negatives(keys in proptest::collection::vec(0u64..1000, 1..100)) {
            let mut store = ObjectStore::new();
            store.declare(&clickinc_ir::ObjectDecl::new("bf", clickinc_ir::ObjectKind::Sketch {
                kind: clickinc_ir::SketchKind::Bloom,
                rows: 3,
                cols: 1024,
                width: 1,
            }));
            for k in &keys {
                store.sketch_count("bf", &Value::Int(*k as i64), 1);
            }
            for k in &keys {
                prop_assert!(store.sketch_estimate("bf", &Value::Int(*k as i64)) > 0);
            }
        }
    }
}
