//! Bounded state under churn: an engine that deploys and removes tenants
//! for as long as it runs holds the live tenants, not its history.
//!
//! A removal drops the tenant's telemetry entry with its route, so after
//! every removal the report lists the live tenants only, a redeployment
//! under a reused name starts from zero counters, and the live heap of the
//! whole process — every shard thread included — stays flat across hundreds
//! of deploy/remove cycles.  The allocator below counts live *bytes*, not
//! calls: a leak of a few bytes a cycle shows, however it is allocated.

use clickinc_device::DeviceModel;
use clickinc_emulator::Packet;
use clickinc_frontend::compile_source;
use clickinc_ir::{IrProgram, Value};
use clickinc_lang::templates::{kvs_template, KvsParams};
use clickinc_runtime::{EngineConfig, EngineHandle, TenantHop, TrafficEngine};
use clickinc_synthesis::isolate_user_program;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Bytes allocated and not yet freed, by every thread of the process.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

/// The system allocator plus a process-wide live-byte gauge.
struct Counting;

// SAFETY: both methods forward to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's guarantees; the
// gauge is a plain statistic and moving it never allocates.  (`alloc_zeroed`
// and `realloc` default to `alloc` and `dealloc`, so they are counted too.)
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Deploy/remove cycles measured, after the warm-up.
const CYCLES: usize = 600;
/// Cycles run before the baseline is read: the engine's channels and maps
/// reach their working size.
const WARM_UP: usize = 50;
/// Requests each deployment serves before it is removed.
const REQUESTS: i64 = 4;

/// `program` isolated as tenant `name` on the shared ToR.
fn on_tor0(program: &IrProgram, name: &str, id: i64) -> Vec<TenantHop> {
    vec![TenantHop {
        device: "tor0".to_string(),
        model: DeviceModel::tofino(),
        snippets: vec![isolate_user_program(program, name, id).into()],
    }]
}

/// Deploy `name`, serve it a few requests, check its counters started from
/// zero, and remove it again; afterwards the report lists `resident` alone.
fn cycle(handle: &EngineHandle, program: &IrProgram, name: &str, id: i64) {
    handle.add_tenant(name, on_tor0(program, name, id));
    let tenant: Arc<str> = name.into();
    let jobs = (0..REQUESTS)
        .map(|key| {
            let fields = BTreeMap::from([
                ("op".to_string(), Value::Int(1)),
                ("key".to_string(), Value::Int(key)),
            ]);
            (key as u64, Packet::new("c", "s", id, fields))
        })
        .collect();
    handle.inject(&tenant, jobs);
    handle.flush();
    let served = handle.telemetry().tenant(name).map(|stats| stats.packets);
    assert_eq!(served, Some(REQUESTS as u64), "{name} counts this deployment's packets only");
    handle.remove_tenant(name);
    handle.flush();
    let report = handle.telemetry();
    let listed: Vec<&String> = report.tenants.keys().collect();
    assert_eq!(listed, ["resident"], "after removing {name}, the report lists the live tenants");
}

#[test]
fn deploy_remove_churn_keeps_telemetry_and_heap_bounded() {
    let template = kvs_template("t", KvsParams { cache_depth: 64, ..Default::default() });
    let program = compile_source("t", &template.source).expect("the template compiles");
    let engine = TrafficEngine::new(EngineConfig { shards: 2, ..Default::default() });
    let handle = engine.handle();
    handle.add_tenant("resident", on_tor0(&program, "resident", 1));

    // even cycles deploy a name never seen before, odd ones reuse one name
    let run = |cycles: std::ops::Range<usize>| {
        for i in cycles {
            let id = i as i64 + 2;
            match i % 2 {
                0 => cycle(&handle, &program, &format!("fresh{i}"), id),
                _ => cycle(&handle, &program, "reused", id),
            }
        }
    };
    run(0..WARM_UP);
    let baseline = LIVE_BYTES.load(Ordering::Relaxed);
    run(WARM_UP..WARM_UP + CYCLES);
    let grown = LIVE_BYTES.load(Ordering::Relaxed) - baseline;
    engine.finish();

    let per_cycle = grown as f64 / CYCLES as f64;
    assert!(
        per_cycle < 100.0,
        "live heap grew {grown} B over {CYCLES} cycles ({per_cycle:.1} B each)"
    );
}
