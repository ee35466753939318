//! Failure-recovery demo: a device failure survived mid-run.
//!
//! A victim KVS tenant and a co-resident background MLAgg tenant (disjoint
//! routes) serve together.  Mid-run, a seeded fault plan kills one of the
//! victim's devices on the workload's virtual clock — packets crossing it
//! from that instant are lost and surface as the victim's fault telemetry.
//! The controller failover then quiesces the victim, releases its ledger
//! bookings and re-places it through the full plan → verify → admission →
//! commit chain around the failure (or parks it in the typed `Degraded`
//! state until the restore).  A fault-free control run proves the blast
//! radius: the bystander's stats and its devices' store fingerprints are
//! bit-identical with and without the fault.
//!
//! Run with: `cargo run --release --example device_failover`

use clickinc_apps::adaptive::PhaseStats;
use clickinc_apps::failover::{serve_failover_scenario, FailoverServingConfig};

fn show(label: &str, phase: &PhaseStats) {
    println!(
        "  {label:<10} offered {:>5} | admitted {:>5} | shed {:>5} | admit ratio {:.3}",
        phase.offered,
        phase.admitted,
        phase.shed,
        phase.admit_ratio()
    );
}

fn main() {
    let base = FailoverServingConfig::default();
    println!(
        "=== Device failover: victim KVS vs a mid-run device failure ({} shards) ===\n",
        base.shards
    );

    let faulted = serve_failover_scenario(&base).expect("failover scenario serves");
    let clean = serve_failover_scenario(&FailoverServingConfig { fail: false, ..base })
        .expect("fault-free control serves");

    let device = faulted.failed_device.clone().expect("a device failed");
    println!("-- faulted run (device `{device}` dies on the virtual clock) --");
    show("pre", &faulted.pre);
    show("faulted", &faulted.faulted);
    match &faulted.recovered {
        Some(recovered) => show("recovered", recovered),
        None => println!("  recovered  (victim parked Degraded until the restore)"),
    }
    show("post", &faulted.post);
    println!(
        "  fault losses: {} packets | failover re-placed immediately: {}",
        faulted.victim_at_failover.fault_lost_packets, faulted.recovered_immediately
    );
    println!("  fault at vclock {} ns", faulted.victim_at_failover.fault_vtime_ns);
    println!("  recovery ratio: {:.3}\n", faulted.recovery_ratio());

    println!("-- fault-free control (same traffic, no fault) --");
    show("pre", &clean.pre);
    show("post", &clean.post);
    println!("  recovery ratio: {:.3}\n", clean.recovery_ratio());

    assert!(faulted.victim_at_failover.fault_lost_packets > 0, "the dead device lost packets");
    assert_eq!(clean.victim_at_failover.fault_lost_packets, 0, "no losses without a fault");
    assert!(
        faulted.recovery_ratio() >= 0.9,
        "post-restore service recovered: {:.3}",
        faulted.recovery_ratio()
    );

    // the blast-radius half: the co-resident tenant never noticed
    assert_eq!(faulted.bystander.fault_lost_packets, 0, "no bystander losses");
    assert_eq!(faulted.bystander, clean.bystander, "co-resident stats diverged under the fault");
    let fingerprints = faulted.bystander_fingerprints();
    assert!(!fingerprints.is_empty(), "comparable bystander devices exist");
    assert_eq!(
        fingerprints,
        clean.bystander_fingerprints(),
        "co-resident store fingerprints diverged under the fault"
    );
    println!(
        "blast-radius cross-check: the co-resident tenant is bit-identical with and \
         without the fault ({} stores, bystander served {})",
        fingerprints.len(),
        faulted.bystander.completed
    );
    println!("failures cost the victim availability — never anyone's results");
}
