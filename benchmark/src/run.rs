//! One run: a time box filled with fixed-work blocks that all run the same op
//! schedule, summarised by the *quiet lap* — for every position of the
//! schedule the least latency any block saw there — and its rate, median and
//! p90.  The traced variant spends part of the box on alternating
//! traced/untraced blocks (for `bench.trace_overhead`) and the rest on the
//! per-layer probes.

use crate::cpus::Cpus;
use crate::metrics::{PerLayer, Source, END_TO_END, PER_LAYER};
use crate::probes::{self, Samples};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::deploy::ChurnWarm;
use crate::workloads::{self, BlockOutcome, Caller, Workload};
use crate::yardstick::{self, Yardstick};
use std::time::Instant;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// The time box, set-up and output checks included.
    pub seconds: f64,
    /// Per-layer run (`--trace 1`) instead of end-to-end run.
    pub traced: bool,
}

/// One reported value.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarises.
    pub samples: usize,
}

/// Everything a run produced.
pub struct RunResult {
    pub config: RunConfig,
    /// Every output check held and no unit failed.
    pub correct: bool,
    /// Units of work attempted in measured ops.
    pub attempted: u64,
    /// Units that failed, plus one per failed check.
    pub failed: u64,
    /// The metrics BENCHMARK.json names for this kind of run.
    pub metrics: Vec<Row>,
    /// Whole-run medians of the per-block summaries and the share of ops that
    /// ran quiet, printed for comparison with the quiet lap; not metrics.
    pub raw: Vec<Row>,
    /// Blocks completed (untraced ones on a traced run).
    pub blocks: usize,
    /// Per-block `[ops_per_s, p50_us, p90_us, setup_s]`, in run order, kept in
    /// the result file to show the host's phases next to the quiet lap.
    pub block_series: Vec<[f64; 4]>,
    /// Failed checks, in words.
    pub problems: Vec<String>,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

/// A run must complete four blocks per three seconds of its time box, and no
/// more than forty are asked for: every position of the quiet lap is then the
/// least of forty samples spread over the whole box.  A run short of that
/// fails; every workload completes 210–630 blocks in 30 s, so only a host at a
/// small fraction of its speed gets there.
pub fn min_blocks(seconds: f64) -> usize {
    ((seconds * 4.0 / 3.0).floor() as usize).clamp(1, 40)
}

/// `VmHWM` of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The three timings the end-to-end metrics rest on, of one lap of the op
/// schedule.
struct LapStats {
    ops_per_s: f64,
    p50_us: f64,
    p90_us: f64,
}

/// Summary of one lap of op latencies (µs) issued as `schedule` was: the rate
/// over every op, the median and p90 over the ops a tenant waited on.  (The
/// deploy workloads issue as many departures as arrivals, and departures are
/// cheap: a median over both would sit on the step between the two kinds,
/// where one rank is tens of percent.)
fn lap_stats(latencies_us: &[f64], schedule: &BlockOutcome) -> LapStats {
    let tenants: Vec<f64> = latencies_us
        .iter()
        .zip(&schedule.callers)
        .filter(|(_, &caller)| caller == Caller::Tenant)
        .map(|(&us, _)| us)
        .collect();
    let sorted = stats::sorted(&tenants);
    let busy_s = latencies_us.iter().sum::<f64>() / 1e6;
    LapStats {
        ops_per_s: if busy_s > 0.0 { schedule.units as f64 / busy_s } else { 0.0 },
        p50_us: stats::percentile(&sorted, 50.0),
        p90_us: stats::percentile(&sorted, 90.0),
    }
}

fn block_stats(block: &BlockOutcome) -> LapStats {
    let latencies_us: Vec<f64> = block.op_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    lap_stats(&latencies_us, block)
}

/// Summary of `lap`, the quiet lap of `blocks`; zeros when there is no block.
fn quiet_lap_stats(lap: &[f64], blocks: &[BlockOutcome]) -> LapStats {
    match blocks.first() {
        Some(schedule) => lap_stats(lap, schedule),
        None => LapStats { ops_per_s: 0.0, p50_us: 0.0, p90_us: 0.0 },
    }
}

/// The quiet lap of `blocks`: for each position of the op schedule, the least
/// latency (µs) any block saw there.  Every block runs the same schedule, so
/// the samples of one position differ only by what the host added, and the
/// host only ever adds time: the least is the program's own cost.  The host's
/// quiet moments are short and sometimes rare — one part in fifty of a run —
/// so no block is quiet from end to end, but each position meets one.
fn quiet_lap(blocks: &[BlockOutcome]) -> Vec<f64> {
    let ops = blocks.iter().map(|b| b.op_ns.len()).min().unwrap_or(0);
    (0..ops).map(|i| blocks.iter().map(|b| b.op_ns[i]).min().unwrap_or(0) as f64 / 1e3).collect()
}

/// Rate of the quiet lap of `blocks`.
fn quiet_rate(blocks: &[BlockOutcome]) -> f64 {
    quiet_lap_stats(&quiet_lap(blocks), blocks).ops_per_s
}

/// How fast the host ran at its best during the run, relative to the
/// yardstick's reference: the factor a measured time is multiplied by (and a
/// rate divided by) to read as at reference speed.  Below 1 on a slow host.
fn host_speed(yardstick_us: &[f64]) -> f64 {
    match stats::least(yardstick_us) {
        least if least > 0.0 => yardstick::REFERENCE_US / least,
        _ => 1.0,
    }
}

/// An op sample counts as quiet when it is within this factor of its
/// position's least; the host's slow mode starts at about 1.5.
const QUIET_WITHIN: f64 = 1.25;

/// Share of all op samples that ran quiet: how much of the run the host left
/// alone.
fn quiet_share(blocks: &[BlockOutcome], lap: &[f64]) -> f64 {
    let quiet = blocks
        .iter()
        .flat_map(|b| b.op_ns.iter().zip(lap))
        .filter(|(&ns, &least_us)| ns as f64 / 1e3 <= least_us * QUIET_WITHIN)
        .count();
    quiet as f64 / (blocks.len() * lap.len()).max(1) as f64
}

/// Run blocks until the next one would overrun `deadline_s` (measured from
/// `started`), and in any case one per tracer.  `tracers` are used
/// round-robin, one per block; every tracer's blocks take the CPUs in turn.
/// A yardstick reading is taken before each block, on the block's CPU, and
/// pushed to `yardstick_us`.
fn run_blocks(
    workload: &mut dyn Workload,
    started: Instant,
    deadline_s: f64,
    tracers: &mut [&mut Tracer],
    yardstick_us: &mut Vec<f64>,
) -> Vec<Vec<BlockOutcome>> {
    let cpus = Cpus::allowed();
    let mut yardstick = Yardstick::default();
    let mut per_tracer: Vec<Vec<BlockOutcome>> = tracers.iter().map(|_| Vec::new()).collect();
    let mut count = 0usize;
    loop {
        let slot = count % tracers.len();
        let block_started = Instant::now();
        cpus.pin(count / tracers.len());
        yardstick_us.push(yardstick.reading_us());
        // the expensive output checks once per run, on its first block
        per_tracer[slot].push(workload.run_block(count == 0, tracers[slot]));
        count += 1;
        let next_ends_s = started.elapsed().as_secs_f64() + block_started.elapsed().as_secs_f64();
        if next_ends_s > deadline_s && count >= tracers.len() {
            return per_tracer;
        }
    }
}

/// The op schedule is meant to depend on the seed alone, which is what makes
/// blocks comparable; blocks that ran different numbers of ops or units are a
/// failed check.
fn check_same_schedule(blocks: &[BlockOutcome], result: &mut RunResult) {
    let Some(first) = blocks.first() else { return };
    if blocks.iter().any(|b| b.callers != first.callers || b.units != first.units) {
        result.failed += 1;
        result.problems.push("blocks of one run ran different op schedules".to_string());
    }
}

/// Fold the blocks' counts and checks into the result.
fn account(result: &mut RunResult, blocks: &[BlockOutcome]) {
    for block in blocks {
        result.attempted += block.units;
        result.failed += block.failed + block.problems.len() as u64;
        result.problems.extend(block.problems.iter().cloned());
    }
}

/// Run `config` and report.  `Err` only for an unknown workload name.
pub fn run(config: RunConfig) -> Result<RunResult, String> {
    let started = Instant::now();
    let mut workload = workloads::by_name(&config.workload, config.seed)
        .ok_or_else(|| format!("unknown workload `{}`", config.workload))?;
    let mut result = RunResult {
        config: config.clone(),
        correct: false,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        raw: Vec::new(),
        blocks: 0,
        block_series: Vec::new(),
        problems: Vec::new(),
        tracer: None,
    };
    if config.traced {
        run_traced(&mut result, workload.as_mut(), started);
    } else {
        run_end_to_end(&mut result, workload.as_mut(), started);
    }
    if result.attempted == 0 {
        result.problems.push("no op was attempted".to_string());
        result.failed += 1;
    }
    result.correct = result.failed == 0;
    Ok(result)
}

fn run_end_to_end(result: &mut RunResult, workload: &mut dyn Workload, started: Instant) {
    let seconds = result.config.seconds;
    let needed = min_blocks(seconds);
    let mut yardstick_us = Vec::new();
    let blocks =
        run_blocks(workload, started, seconds, &mut [&mut Tracer::disabled()], &mut yardstick_us)
            .pop()
            .expect("one tracer, one list");
    account(result, &blocks);
    check_same_schedule(&blocks, result);
    result.blocks = blocks.len();
    if blocks.len() < needed {
        result.failed += 1;
        result
            .problems
            .push(format!("{} blocks completed, {needed} are needed in {seconds} s", blocks.len()));
    }

    let per_block: Vec<LapStats> = blocks.iter().map(block_stats).collect();
    let rates: Vec<f64> = per_block.iter().map(|b| b.ops_per_s).collect();
    let p50s: Vec<f64> = per_block.iter().map(|b| b.p50_us).collect();
    let p90s: Vec<f64> = per_block.iter().map(|b| b.p90_us).collect();
    let setups: Vec<f64> = blocks.iter().map(|b| b.setup_s).collect();
    result.block_series =
        (0..blocks.len()).map(|i| [rates[i], p50s[i], p90s[i], setups[i]]).collect();
    let units: u64 = blocks.iter().map(|b| b.units).sum();
    let allocs: u64 = blocks.iter().map(|b| b.allocs).sum();
    let ops: usize = blocks.iter().map(|b| b.op_ns.len()).sum();

    let lap = quiet_lap(&blocks);
    let quiet = quiet_lap_stats(&lap, &blocks);
    // every timing is reported as it would have been at the yardstick's
    // reference speed
    let speed = host_speed(&yardstick_us);
    for metric in &END_TO_END {
        let (value, samples) = match metric.name {
            "ops_per_s" => (quiet.ops_per_s / speed, ops),
            "op_p50_us" => (quiet.p50_us * speed, ops),
            "op_tail_us" => (quiet.p90_us * speed, ops),
            "allocs_per_op" => (allocs as f64 / units.max(1) as f64, ops),
            "peak_rss_mb" => (peak_rss_mb(), 1),
            "setup_s" => (stats::least(&setups) * speed, blocks.len()),
            other => unreachable!("END_TO_END names `{other}`, run_end_to_end does not compute it"),
        };
        result.metrics.push(Row {
            name: metric.name.to_string(),
            value,
            unit: metric.unit,
            samples,
        });
    }
    let raw = [
        ("raw.yardstick_us", stats::least(&yardstick_us), "us"),
        ("raw.ops_per_s_quiet", quiet.ops_per_s, "1/s"),
        ("raw.op_p50_us_quiet", quiet.p50_us, "us"),
        ("raw.op_tail_us_quiet", quiet.p90_us, "us"),
        ("raw.setup_s_quiet", stats::least(&setups), "s"),
        ("raw.ops_per_s_median", stats::median(&rates), "1/s"),
        ("raw.op_p50_us_median", stats::median(&p50s), "us"),
        ("raw.op_tail_us_median", stats::median(&p90s), "us"),
        ("raw.setup_s_median", stats::median(&setups), "s"),
        ("raw.quiet_share", quiet_share(&blocks, &lap), "1"),
        ("raw.blocks", blocks.len() as f64, "count"),
    ];
    for (name, value, unit) in raw {
        result.raw.push(Row { name: name.to_string(), value, unit, samples: blocks.len() });
    }
}

/// Share of a traced run's time box given to the alternating blocks.
const TRACED_BLOCK_SHARE: f64 = 0.3;

fn run_traced(result: &mut RunResult, workload: &mut dyn Workload, started: Instant) {
    let seconds = result.config.seconds;
    let mut tracer = Tracer::new();
    let mut samples = Samples::default();

    // ---- alternating untraced / traced blocks: what do the spans cost? ----
    let mut untraced = Tracer::disabled();
    let mut yardstick_us = Vec::new();
    let mut lists = run_blocks(
        workload,
        started,
        seconds * TRACED_BLOCK_SHARE,
        &mut [&mut untraced, &mut tracer],
        &mut yardstick_us,
    );
    let traced_blocks = lists.pop().expect("two tracers, two lists");
    let untraced_blocks = lists.pop().expect("two tracers, two lists");
    for blocks in [&untraced_blocks, &traced_blocks] {
        account(result, blocks);
        check_same_schedule(blocks, result);
    }
    result.blocks = untraced_blocks.len();
    let untraced_rate = quiet_rate(&untraced_blocks);
    let traced_rate = quiet_rate(&traced_blocks);
    let overhead = if traced_rate > 0.0 { untraced_rate / traced_rate } else { 0.0 };

    // ---- the probes: two fixed-cost sweeps, then rounds until the box is full ----
    // The deploy-stage probe runs on this workload's own requests and the
    // data-plane probe on its own packets.  Fill, age and queue drain are
    // properties of the service under tenant turnover, so they run on the
    // churn pool whatever the workload (one MLAgg-32 tenant alone would fill
    // the network at two and make every aged commit cost a quarter second).
    let requests = workload.probe_requests();
    let traffic = workload.probe_traffic();
    let turnover_pool = ChurnWarm::new(result.config.seed).probe_requests();
    probes::fill_tenants(&mut samples, &turnover_pool);
    probes::age_sweep(&mut tracer, &mut samples, &turnover_pool);
    let cpus = Cpus::allowed();
    let mut yardstick = Yardstick::default();
    let mut round = 0u32;
    loop {
        let round_started = Instant::now();
        cpus.pin(round as usize);
        yardstick_us.push(yardstick.reading_us());
        for (i, request) in requests.iter().enumerate() {
            if let Err(err) = probes::deploy_pipeline(&mut tracer, &mut samples, request, i as u32)
            {
                result.failed += 1;
                result.problems.push(format!("pipeline probe of {}: {err}", request.user));
            }
        }
        if let Err(err) = probes::queue_drain(&mut tracer, &mut samples, &turnover_pool) {
            result.failed += 1;
            result.problems.push(format!("queue-drain probe: {err}"));
        }
        probes::data_plane(&mut tracer, &mut samples, &traffic);
        round += 1;
        let round_s = round_started.elapsed().as_secs_f64();
        if started.elapsed().as_secs_f64() + round_s > seconds {
            break;
        }
    }

    let speed = host_speed(&yardstick_us);
    for metric in &PER_LAYER {
        let (value, n) = match metric.source {
            Source::Run => (overhead, untraced_blocks.len() + traced_blocks.len()),
            // counts are what they are; times read as at reference speed
            Source::Count => layer_value(metric, &tracer, &samples),
            _ => {
                let (time, n) = layer_value(metric, &tracer, &samples);
                (time * speed, n)
            }
        };
        if n == 0 {
            result.failed += 1;
            result.problems.push(format!("no sample for {}", metric.name));
        }
        result.metrics.push(Row {
            name: metric.name.to_string(),
            value,
            unit: metric.unit,
            samples: n,
        });
    }
    let raw = [
        ("raw.yardstick_us", stats::least(&yardstick_us), "us", yardstick_us.len()),
        ("raw.probe_rounds", f64::from(round), "count", 1),
    ];
    for (name, value, unit, samples) in raw {
        result.raw.push(Row { name: name.to_string(), value, unit, samples });
    }
    result.tracer = Some(tracer);
}

/// A per-layer value from its samples.  Spans and timings are grouped by the
/// input they ran on (one deploy request, one drain position); each group is
/// summarised over the probe rounds and the groups are averaged, so a pool of
/// unequal requests weighs each request once.  The summary of repeated
/// timings is their least, as for the ops; of a difference of two timings
/// (self time) the median, because the least difference pairs a quiet
/// minuend with a disturbed subtrahend.
fn layer_value(metric: &PerLayer, tracer: &Tracer, samples: &Samples) -> (f64, usize) {
    let (groups, summary): (_, fn(&[f64]) -> f64) = match metric.source {
        Source::Span(name) => (tracer.durations_us(name), stats::least),
        Source::SpanSelf(name) => (tracer.self_times_us(name), stats::median),
        Source::Timing => {
            let values = samples.get(metric.name);
            return (stats::least(values), values.len());
        }
        Source::TimingDifference => {
            let values = samples.get(metric.name);
            return (stats::median(values), values.len());
        }
        Source::Count => {
            let values = samples.get(metric.name);
            let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
            return (mean, values.len());
        }
        Source::Run => unreachable!("computed by the run"),
    };
    let n: usize = groups.values().map(Vec::len).sum();
    let per_input: Vec<f64> = groups.values().map(|group| summary(group)).collect();
    (per_input.iter().sum::<f64>() / per_input.len().max(1) as f64, n)
}
