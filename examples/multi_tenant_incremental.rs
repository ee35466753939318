//! Multi-tenant, dynamic INC-as-a-Service: several users deploy programs
//! onto the same network (each one planned as a dry-run first — its JSON
//! summary dumped for inspection — then that very plan is gated by a
//! provider admission policy and committed), a poisoned batch demonstrates
//! the all-or-nothing rollback of `deploy_all`, and one tenant later
//! revokes its service (paper §7.3 Table 3 and §7.5 Table 6 workflows).
//!
//! Run with: `cargo run --example multi_tenant_incremental`

use clickinc::topology::Topology;
use clickinc::{ClickIncService, PolicyChain, ResourceFloor, ServiceRequest};
use clickinc_apps::table3_requests;

fn main() {
    println!("=== Multi-tenant incremental deployment over the Fig. 11 topology ===\n");
    let service = ClickIncService::new(Topology::emulation_topology_all_tofino())
        .expect("default engine config is valid");
    // provider policy: never let the network run below 5% free resources
    service
        .set_admission_policy(PolicyChain::new().with(ResourceFloor { min_remaining_ratio: 0.05 }));

    for request in table3_requests() {
        let user = request.user.clone();
        // plan: a pure dry-run reporting devices, demand and predicted
        // ratio — dumped as JSON, the provider's audit record of the quote
        let plan = match service.plan(&request) {
            Ok(plan) => plan,
            Err(e) => {
                println!("+ {user:<8} FAILED to plan: {e}");
                continue;
            }
        };
        let predicted = plan.predicted_remaining_ratio();
        println!(
            "{}",
            serde_json::to_string_pretty(&plan.summary()).expect("plan summary serializes")
        );
        // commit the quoted plan: admission gate, book resources, install
        // snippets, mirror onto the engine — one solve per tenant
        match service.commit(plan) {
            Ok(tenant) => println!(
                "+ {:<8} (id {}) placed on {:<40} predicted remaining {:>5.1}% (exact: {})",
                user,
                tenant.numeric_id(),
                tenant.hops().iter().map(|h| h.device.as_str()).collect::<Vec<_>>().join(";"),
                predicted * 100.0,
                service.remaining_resource_ratio() == predicted,
            ),
            Err(e) => println!("+ {user:<8} FAILED to commit: {e}"),
        }
    }
    println!("\nactive programs: {:?}", service.active_users());
    println!("remaining resources: {:.1}%", service.remaining_resource_ratio() * 100.0);

    // a poisoned batch: the last request names a host that does not exist,
    // so the whole batch rolls back — all-or-nothing
    let ratio_before = service.remaining_resource_ratio();
    let users_before = service.active_users().len();
    let batch = vec![
        ServiceRequest::builder("extra_kvs")
            .template(clickinc::lang::templates::kvs_template(
                "extra_kvs",
                clickinc::lang::templates::KvsParams { cache_depth: 1000, ..Default::default() },
            ))
            .from_("pod0a")
            .to("pod2b")
            .build()
            .expect("well-formed request"),
        ServiceRequest::builder("doomed")
            .source("forward()\n")
            .from_("not-a-host")
            .to("pod2b")
            .build()
            .expect("structurally valid, semantically doomed"),
    ];
    match service.deploy_all(batch) {
        Ok(_) => unreachable!("the poisoned batch cannot commit"),
        Err(e) => println!("\nbatch rejected as one unit: {e}"),
    }
    assert_eq!(service.remaining_resource_ratio(), ratio_before, "rollback is exact");
    assert_eq!(service.active_users().len(), users_before);
    println!(
        "rollback left {} tenants and {:.1}% resources untouched",
        users_before,
        ratio_before * 100.0
    );

    // one tenant leaves; only its own devices are touched
    let delta = service.remove("DQAcc1").expect("removal succeeds");
    println!(
        "\n- DQAcc1 removed: {} devices updated, {} other programs affected, {} pods saw traffic changes",
        delta.device_count(),
        delta.program_count(),
        delta.pod_count()
    );
    println!("active programs now: {:?}", service.active_users());
    println!("remaining resources: {:.1}%", service.remaining_resource_ratio() * 100.0);
}
