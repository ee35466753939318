//! What a run leaves behind: the rows on standard output, the driver's
//! one-line JSON, and a result file that records where the numbers came from.

use crate::run::{Row, RunResult};
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn obj(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// First line a command prints, or `unknown` when it cannot run.  The child
/// has ended by the time this returns.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host and build facts every result file carries, so a number can be traced
/// to the commit, compiler and core count that produced it.
pub fn metadata() -> Value {
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    obj([
        // a driver checkout is not a git repository; then this reads `unknown`
        (
            "commit",
            text(first_line_of("git", &["-C", manifest_dir, "rev-parse", "--short", "HEAD"])),
        ),
        ("nproc", Value::Num(nproc as f64)),
        ("rustc", text(first_line_of("rustc", &["--version"]))),
        ("cargo_profile", text(if cfg!(debug_assertions) { "debug" } else { "release" })),
    ])
}

fn rows_json(rows: &[Row]) -> Value {
    Value::Obj(
        rows.iter()
            .map(|row| {
                let entry = obj([
                    ("value", Value::Num(row.value)),
                    ("unit", text(row.unit)),
                    ("samples", Value::Num(row.samples as f64)),
                ]);
                (row.name.clone(), entry)
            })
            .collect(),
    )
}

/// `{"ops_per_s": [...], "op_p50_us": [...], "op_tail_us": [...], "setup_s": [...]}`.
fn block_series_json(series: &[[f64; 4]]) -> Value {
    let column = |i: usize| Value::Arr(series.iter().map(|row| Value::Num(row[i])).collect());
    obj([
        ("ops_per_s", column(0)),
        ("op_p50_us", column(1)),
        ("op_tail_us", column(2)),
        ("setup_s", column(3)),
    ])
}

/// The full record of one run.
pub fn result_json(result: &RunResult, meta: &Value) -> Value {
    obj([
        ("meta", meta.clone()),
        ("workload", text(result.config.workload.clone())),
        ("seed", Value::Num(result.config.seed as f64)),
        ("seconds", Value::Num(result.config.seconds)),
        ("traced", Value::Bool(result.config.traced)),
        ("blocks", Value::Num(result.blocks as f64)),
        ("block_series", block_series_json(&result.block_series)),
        ("correct", Value::Bool(result.correct)),
        ("attempted", Value::Num(result.attempted as f64)),
        ("failed", Value::Num(result.failed as f64)),
        ("problems", Value::Arr(result.problems.iter().map(text).collect())),
        ("metrics", rows_json(&result.metrics)),
        ("raw", rows_json(&result.raw)),
    ])
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric a value as measured and its unit.
pub fn driver_line(result: &RunResult) -> String {
    let metrics: BTreeMap<String, Value> = result
        .metrics
        .iter()
        .map(|row| {
            (row.name.clone(), obj([("value", Value::Num(row.value)), ("unit", text(row.unit))]))
        })
        .collect();
    let line = obj([
        ("correct", Value::Bool(result.correct)),
        ("attempted", Value::Num(result.attempted as f64)),
        ("failed", Value::Num(result.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ]);
    serde_json::to_string(&line).expect("a value tree serializes")
}

/// Every metric by name with its unit, then the raw rows and the verdict.
pub fn print_rows(result: &RunResult) {
    let c = &result.config;
    println!(
        "# {} seed {} {} s {}",
        c.workload,
        c.seed,
        c.seconds,
        if c.traced { "per-layer (traced)" } else { "end-to-end" }
    );
    for row in result.metrics.iter().chain(&result.raw) {
        println!("{:<34} {:>18.4} {:<6} n={}", row.name, row.value, row.unit, row.samples);
    }
    for problem in &result.problems {
        println!("! {problem}");
    }
    println!(
        "# blocks {} attempted {} failed {} correct {}",
        result.blocks, result.attempted, result.failed, result.correct
    );
}

/// `benchmark/out/`, created on demand.
fn out_dir() -> std::io::Result<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn write_json(path: &Path, value: &Value) -> std::io::Result<()> {
    let body = serde_json::to_string_pretty(value).expect("a value tree serializes");
    std::fs::write(path, body + "\n")
}

/// Write the result file (and the spans of a traced run) under
/// `benchmark/out/`; returns the result file's path.
pub fn write_result(result: &RunResult, meta: &Value) -> std::io::Result<PathBuf> {
    let c = &result.config;
    let stem = format!("{}-seed{}-trace{}", c.workload, c.seed, u8::from(c.traced));
    let dir = out_dir()?;
    let path = dir.join(format!("{stem}.json"));
    write_json(&path, &result_json(result, meta))?;
    if let Some(tracer) = &result.tracer {
        write_json(&dir.join(format!("{stem}.spans.json")), &tracer.to_json())?;
    }
    Ok(path)
}

/// Append the run to a set file — a JSON array of result records, the input of
/// `compare`.
pub fn append_to_set(path: &Path, result: &RunResult, meta: &Value) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(body) => match serde_json::from_str::<Value>(&body).map_err(|e| e.to_string())? {
            Value::Arr(runs) => runs,
            _ => return Err(format!("{} is not a JSON array of runs", path.display())),
        },
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(err) => return Err(err.to_string()),
    };
    runs.push(result_json(result, meta));
    write_json(path, &Value::Arr(runs)).map_err(|e| e.to_string())
}
