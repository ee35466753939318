//! Bounded state under churn, at the service: a `ClickIncService` that
//! deploys and removes tenants for as long as it runs holds the live tenants,
//! not its history.
//!
//! Each cycle deploys a KVS from `pod0a` to `pod2b` — placement, ledger,
//! segment memo, device images and engine all take part — flushes and
//! removes it.  After every removal the service is back to its empty house:
//! no active user, no tenant in the telemetry report, an empty retry queue
//! and every resource free.  Over hundreds of cycles, on fresh names and on
//! one reused name, the live heap of the whole process — every shard thread
//! included — stays flat.  The allocator below counts live *bytes*, not
//! calls: a leak of a few bytes a cycle shows, however it is allocated.

use clickinc::lang::templates::{kvs_template, KvsParams};
use clickinc::runtime::EngineConfig;
use clickinc::topology::Topology;
use clickinc::{ClickIncService, ServiceRequest};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

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

/// Deploy/remove cycles measured per naming scheme, after the warm-up.
const CYCLES: usize = 400;
/// Cycles run before the baseline is read: the service's maps, the memo and
/// the engine's channels reach their working size.
const WARM_UP: usize = 50;

/// A KVS tenant's request, `pod0a` → `pod2b`.
fn kvs(user: &str) -> ServiceRequest {
    ServiceRequest::builder(user)
        .template(kvs_template(user, KvsParams { cache_depth: 64, ..Default::default() }))
        .from_("pod0a")
        .to("pod2b")
        .build()
        .expect("the KVS request is well-formed")
}

/// Deploy `user`, flush and remove it; afterwards the service is the empty
/// house again, whose free resource ratio is `empty_ratio`.
fn cycle(service: &ClickIncService, user: &str, empty_ratio: f64) {
    service.deploy(kvs(user)).unwrap_or_else(|e| panic!("{user} deploys: {e}"));
    service.flush();
    service.remove(user).unwrap_or_else(|e| panic!("{user} is removed: {e}"));
    service.flush();
    assert!(service.active_users().is_empty(), "after removing {user}, no user is active");
    let listed: Vec<String> = service.telemetry().tenants.into_keys().collect();
    assert!(listed.is_empty(), "after removing {user}, the report lists {listed:?}");
    assert_eq!(service.retry_queue_len(), 0, "after removing {user}");
    assert_eq!(service.remaining_resource_ratio(), empty_ratio, "after removing {user}");
}

/// Live heap growth per cycle over `CYCLES` cycles named by `name`, after
/// `WARM_UP` cycles named the same way.
fn growth_per_cycle(service: &ClickIncService, empty_ratio: f64, name: fn(usize) -> String) -> f64 {
    for i in 0..WARM_UP {
        cycle(service, &name(i), empty_ratio);
    }
    let baseline = LIVE_BYTES.load(Ordering::Relaxed);
    for i in WARM_UP..WARM_UP + CYCLES {
        cycle(service, &name(i), empty_ratio);
    }
    (LIVE_BYTES.load(Ordering::Relaxed) - baseline) as f64 / CYCLES as f64
}

#[test]
fn deploy_remove_churn_returns_the_service_to_its_empty_house_on_a_flat_heap() {
    let config = EngineConfig { shards: 2, ..Default::default() };
    let service = ClickIncService::with_config(Topology::emulation_topology_all_tofino(), config)
        .expect("the engine config is valid");
    let empty_ratio = service.remaining_resource_ratio();

    // one test runs both schemes in turn: the gauge counts the whole process
    let fresh = growth_per_cycle(&service, empty_ratio, |i| format!("fresh{i}"));
    let reused = growth_per_cycle(&service, empty_ratio, |_| "reused".to_string());
    service.finish();

    assert!(fresh < 100.0, "live heap grew {fresh:.1} B a cycle on fresh names");
    assert!(reused < 100.0, "live heap grew {reused:.1} B a cycle on one reused name");
}
