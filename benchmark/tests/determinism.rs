//! Same seed, same inputs; and the counts the benchmark reports as counts
//! repeat exactly.  One test function on purpose: the allocation counters are
//! process-wide, so nothing else may run in this process while they are read.

use clickinc_benchmark::probes::{self, Samples};
use clickinc_benchmark::replay::replay;
use clickinc_benchmark::trace::Tracer;
use clickinc_benchmark::workloads::serve::{packets_of, App, Serve};
use clickinc_benchmark::workloads::{by_name, Workload};
use clickinc_emulator::ExecMode;

const SEED: u64 = 5;

fn sources_of(workload: &dyn Workload) -> Vec<String> {
    workload.probe_requests().into_iter().map(|r| format!("{}\n{}", r.user, r.source)).collect()
}

#[test]
fn generation_and_counts_repeat_exactly() {
    // ---- two same-seed generations are byte-identical, two seeds are not ----
    for name in ["deploy_cold", "churn_warm"] {
        let a = sources_of(by_name(name, SEED).expect("known").as_ref());
        let b = sources_of(by_name(name, SEED).expect("known").as_ref());
        let other = sources_of(by_name(name, SEED + 1).expect("known").as_ref());
        assert_eq!(a, b, "{name}");
        assert_ne!(a, other, "{name}");
    }
    for app in [App::Kvs, App::MlAgg] {
        let bursts = |seed| Serve::new(app, seed).set_up(2).bursts;
        assert_eq!(bursts(SEED), bursts(SEED), "{app:?}");
        assert_ne!(bursts(SEED), bursts(SEED + 1), "{app:?}");
    }

    // ---- control-plane allocations per op ----
    for name in ["deploy_cold", "churn_warm"] {
        let block = || {
            let out = by_name(name, SEED).expect("known").run_block(false, &mut Tracer::disabled());
            assert!(out.problems.is_empty(), "{name}: {:?}", out.problems);
            (out.allocs, out.units)
        };
        assert_eq!(block(), block(), "{name}");
    }

    // ---- VM instructions per packet ----
    let traffic = Serve::new(App::MlAgg, SEED);
    let fixture = traffic.set_up(4);
    let instructions = || {
        let stats = replay(
            &fixture.hops(),
            ExecMode::Compiled,
            &traffic.table_writes(),
            packets_of(&fixture.bursts),
        );
        (stats.instructions, stats.packets, stats.fingerprints)
    };
    assert_eq!(instructions(), instructions());

    // ---- tenants a fresh network admits, and code emitted at age 100 and 500 ----
    let pool = by_name("churn_warm", SEED).expect("known").probe_requests();
    let counts = || {
        let mut samples = Samples::default();
        probes::fill_tenants(&mut samples, &pool);
        probes::age_sweep(&mut Tracer::disabled(), &mut samples, &pool);
        [
            "placement.fill_tenants",
            "backend.emitted_loc_age100",
            "backend.emitted_loc_age500",
            "synthesis.image_instrs_age100",
            "synthesis.image_instrs_age500",
        ]
        .map(|name| samples.get(name).to_vec())
    };
    let first = counts();
    assert!(first.iter().all(|samples| !samples.is_empty()));
    assert_eq!(first, counts());
}
