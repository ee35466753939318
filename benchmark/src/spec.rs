//! `BENCHMARK.json` as the benchmark itself reads it: `compare` takes its
//! bounds from there, and the tests hold the metric tables against it.

use crate::stats::Better;
use serde::Value;
use std::path::PathBuf;

/// One metric entry of the contract file.
#[derive(Debug, Clone)]
pub struct SpecMetric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by; end-to-end only.
    pub bound: Option<f64>,
}

/// The parts of the contract file the benchmark uses.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<SpecMetric>,
    pub per_layer: Vec<SpecMetric>,
}

/// A field of a JSON object.
pub fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value.as_object().and_then(|m| m.get(key))
}

pub fn as_str(value: &Value) -> Option<&str> {
    match value {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

pub fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::Num(n) => Some(*n),
        _ => None,
    }
}

pub fn as_array(value: &Value) -> Option<&[Value]> {
    match value {
        Value::Arr(items) => Some(items),
        _ => None,
    }
}

fn metrics(root: &Value, key: &str) -> Result<Vec<SpecMetric>, String> {
    let items = field(root, key).and_then(as_array).ok_or(format!("`{key}` is not a list"))?;
    items
        .iter()
        .map(|item| {
            let text = |k: &str| {
                field(item, k).and_then(as_str).ok_or(format!("a `{key}` entry lacks `{k}`"))
            };
            Ok(SpecMetric {
                name: text("name")?.to_string(),
                unit: text("unit")?.to_string(),
                better: Better::parse(text("better")?)
                    .ok_or(format!("`better` of {} is neither lower nor higher", text("name")?))?,
                bound: field(item, "bound").and_then(as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Parse the contract file's text.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let root: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let workloads = field(&root, "workloads")
            .and_then(as_array)
            .ok_or("`workloads` is not a list")?
            .iter()
            .filter_map(|w| field(w, "name").and_then(as_str).map(str::to_string))
            .collect();
        Ok(Spec {
            run_seconds: field(&root, "run_seconds")
                .and_then(as_f64)
                .ok_or("`run_seconds` is not a number")?,
            workloads,
            end_to_end: metrics(&root, "end_to_end")?,
            per_layer: metrics(&root, "per_layer")?,
        })
    }

    /// Load `BENCHMARK.json` from the working directory (how the driver runs
    /// the benchmark) or from beside this package (how `cargo test` does).
    pub fn load() -> Result<Spec, String> {
        let candidates = [
            PathBuf::from("BENCHMARK.json"),
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        ];
        let text = candidates
            .iter()
            .find_map(|path| std::fs::read_to_string(path).ok())
            .ok_or("BENCHMARK.json not found in . or beside benchmark/")?;
        Spec::parse(&text)
    }
}
