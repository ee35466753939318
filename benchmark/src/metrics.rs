//! The metric tables: every name the benchmark prints, with its unit, its
//! direction and — for per-layer metrics — where its samples come from.
//! `BENCHMARK.json` lists the same names; `tests/contract.rs` keeps the two in
//! step.

use crate::stats::Better;

/// A metric a user of the service sees; the same six on every workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "ops_per_s", unit: "1/s", better: Better::Higher },
    EndToEnd { name: "op_p50_us", unit: "us", better: Better::Lower },
    EndToEnd { name: "op_tail_us", unit: "us", better: Better::Lower },
    EndToEnd { name: "allocs_per_op", unit: "1", better: Better::Lower },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower },
];

/// Where a per-layer metric's samples come from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// Durations of the spans with this name, in microseconds.
    Span(&'static str),
    /// Self times (duration minus direct children) of those spans.
    SpanSelf(&'static str),
    /// Timing samples a probe pushed under the metric's own name.
    Timing,
    /// Differences of two timings of one probe round, pushed under the
    /// metric's own name.
    TimingDifference,
    /// Counts and ratios a probe pushed under the metric's own name; they
    /// repeat exactly, so they are averaged over the probe's inputs.
    Count,
    /// Computed by the run itself (`bench.trace_overhead`).
    Run,
}

/// A metric of one layer.  Names are `<crate>.<what>`.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
}

const fn span(name: &'static str, span: &'static str) -> PerLayer {
    PerLayer { name, unit: "us", better: Better::Lower, source: Source::Span(span) }
}

const fn timing(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower, source: Source::Timing }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, source: Source::Count }
}

pub const PER_LAYER: [PerLayer; 48] = [
    // stages a cold deploy spends its time in
    span("placement.solve_cold_us", "placement.solve_cold"),
    span("blockdag.build_us", "blockdag.build"),
    count("blockdag.blocks", "count", Better::Lower),
    span("topology.reduce_us", "topology.reduce"),
    count("placement.fill_tenants", "count", Better::Higher),
    // stages every deploy runs
    span("lang.parse_us", "lang.parse"),
    span("frontend.compile_us", "frontend.compile"),
    count("frontend.ir_instrs", "count", Better::Lower),
    span("synthesis.isolate_us", "synthesis.isolate"),
    span("ir.optimize_us", "ir.optimize"),
    count("ir.opt_instrs_removed", "count", Better::Higher),
    span("ir.verify_us", "ir.verify"),
    span("emulator.install_us", "emulator.install"),
    count("emulator.vm_instrs", "count", Better::Lower),
    span("core.plan_us", "core.plan"),
    PerLayer {
        name: "core.plan_self_us",
        unit: "us",
        better: Better::Lower,
        source: Source::SpanSelf("core.plan"),
    },
    count("core.allocs_per_deploy", "count", Better::Lower),
    // what a warm, churning service spends its time in
    span("placement.solve_memo_us", "placement.solve_memo"),
    count("placement.memo_hit_ratio", "1", Better::Higher),
    span("core.commit_us", "core.commit"),
    span("core.remove_us", "core.remove"),
    span("core.queue_drain_us", "core.queue_drain"),
    count("core.queue_admit_ratio", "1", Better::Higher),
    span("synthesis.add_user_us", "synthesis.add_user"),
    span("backend.generate_us", "backend.generate"),
    span("runtime.add_tenant_us", "runtime.add_tenant"),
    span("core.commit_us_age100", "core.commit_age100"),
    span("core.commit_us_age500", "core.commit_age500"),
    count("synthesis.image_instrs_age100", "count", Better::Lower),
    count("synthesis.image_instrs_age500", "count", Better::Lower),
    count("backend.emitted_loc_age100", "count", Better::Lower),
    count("backend.emitted_loc_age500", "count", Better::Lower),
    // the emulator alone, on the packets the engine served
    timing("emulator.vm_ns_per_pkt", "ns"),
    timing("emulator.interp_ns_per_pkt", "ns"),
    count("emulator.vm_instrs_per_pkt", "count", Better::Lower),
    count("emulator.allocs_per_pkt", "count", Better::Lower),
    count("emulator.hops_per_pkt", "count", Better::Lower),
    count("emulator.hit_ratio", "1", Better::Higher),
    // the engine around it
    timing("runtime.engine_ns_per_pkt", "ns"),
    PerLayer {
        name: "runtime.self_ns_per_pkt",
        unit: "ns",
        better: Better::Lower,
        source: Source::TimingDifference,
    },
    timing("runtime.inject_ns_per_pkt", "ns"),
    timing("runtime.flush_wait_ns_per_pkt", "ns"),
    count("runtime.allocs_per_pkt", "count", Better::Lower),
    timing("runtime.gen_ns_per_pkt", "ns"),
    count("runtime.queue_depth_hwm", "count", Better::Lower),
    count("runtime.shed_pkts", "count", Better::Lower),
    span("runtime.telemetry_us", "runtime.telemetry"),
    PerLayer {
        name: "bench.trace_overhead",
        unit: "1",
        better: Better::Lower,
        source: Source::Run,
    },
];
