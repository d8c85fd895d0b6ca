//! Per-layer diff of two traced-run outputs: "which layer moved between
//! these two bench runs?"
//!
//! Each input is the captured standard output of one or more traced
//! runs (`--trace 1`); the `wspbench-report` line of each run names its
//! workload. For every workload present in both, the diff prints each
//! layer metric's before/after/delta, grouped by layer and ranked by
//! the host ns per pass the layer moved.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;

/// Prefix of the detailed report line a run prints before its result.
pub const REPORT_PREFIX: &str = "wspbench-report ";

/// One run's report: its fingerprint and metrics by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// The simulated fingerprint.
    pub fingerprint: String,
    /// Every metric the run printed, end-to-end and per-layer.
    pub metrics: BTreeMap<String, f64>,
}

/// Reports by workload found in a run's captured output (the last one
/// wins when a workload appears twice).
///
/// # Errors
///
/// Returns a description of a malformed report line.
pub fn parse_reports(text: &str) -> Result<BTreeMap<String, Report>, String> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let Some(body) = line.strip_prefix(REPORT_PREFIX) else {
            continue;
        };
        let doc = Json::parse(body)?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("report line without a workload")?
            .to_owned();
        let mut report = Report {
            fingerprint: doc
                .get("fingerprint")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned(),
            metrics: BTreeMap::new(),
        };
        for table in ["end_to_end", "per_layer"] {
            for (name, v) in doc.get(table).and_then(Json::entries).unwrap_or(&[]) {
                if let Some(x) = v.as_f64() {
                    report.metrics.insert(name.clone(), x);
                }
            }
        }
        out.insert(workload, report);
    }
    Ok(out)
}

/// The layer a metric belongs to: its module prefix, or the layer the
/// unprefixed outage and audit figures come from.
#[must_use]
pub fn layer_of(name: &str) -> &str {
    match name {
        "sim_save_tail_ns" => "supervisor",
        "sim_resume_p50_ns" | "host_outage_p50_ms" => "ladder",
        "failed_frac" => "audit",
        n if n.contains('.') => n.split('.').next().unwrap_or(n),
        _ => "end_to_end",
    }
}

/// Host ns per pass a layer spent according to `m`: every timed call
/// (`X.calls` × `X.host_ns`), plus the cache probe scaled by the counted
/// accesses.
fn layer_host_ns(layer: &str, m: &BTreeMap<String, f64>) -> f64 {
    let get = |k: &str| m.get(k).copied().unwrap_or(0.0);
    let mut total = 0.0;
    for (name, calls) in m {
        if let Some(prefix) = name.strip_suffix(".calls") {
            if layer_of(name) == layer {
                total += calls * get(&format!("{prefix}.host_ns"));
            }
        }
    }
    if layer == "cache" {
        total += get("cache.host_ns_per_access") * get("cache.accesses");
    }
    total
}

/// Renders the diff of `before` against `after`.
#[must_use]
pub fn render(before: &BTreeMap<String, Report>, after: &BTreeMap<String, Report>) -> String {
    let mut out = String::new();
    for (workload, a) in before {
        let Some(b) = after.get(workload) else {
            let _ = writeln!(out, "{workload}: only in the first input");
            continue;
        };
        let same = if a.fingerprint == b.fingerprint {
            "same"
        } else {
            "DIFFERENT"
        };
        let _ = writeln!(
            out,
            "{workload}: simulated fingerprint {} -> {} ({same})",
            a.fingerprint, b.fingerprint
        );
        let mut layers: Vec<(&str, f64)> = a
            .metrics
            .keys()
            .chain(b.metrics.keys())
            .map(|n| layer_of(n))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .map(|l| {
                (
                    l,
                    layer_host_ns(l, &b.metrics) - layer_host_ns(l, &a.metrics),
                )
            })
            .collect();
        layers.sort_by(|x, y| y.1.abs().total_cmp(&x.1.abs()).then(x.0.cmp(y.0)));
        let _ = writeln!(
            out,
            "  {:<12} {:>16}  {:<32} {:>16} {:>16} {:>16} {:>9}",
            "layer", "host-ns/pass", "metric", "before", "after", "delta", "delta%"
        );
        for (layer, moved) in layers {
            // Layers this workload does not reach read 0 on both sides.
            let names: std::collections::BTreeSet<&String> = a
                .metrics
                .keys()
                .chain(b.metrics.keys())
                .filter(|n| layer_of(n) == layer)
                .filter(|n| {
                    a.metrics.get(*n).copied().unwrap_or(0.0) != 0.0
                        || b.metrics.get(*n).copied().unwrap_or(0.0) != 0.0
                })
                .collect();
            for (i, name) in names.into_iter().enumerate() {
                let x = a.metrics.get(name).copied().unwrap_or(0.0);
                let y = b.metrics.get(name).copied().unwrap_or(0.0);
                let pct = if x == 0.0 {
                    String::from("-")
                } else {
                    format!("{:+.2}%", (y - x) / x * 100.0)
                };
                let moved = if i == 0 {
                    format!("{moved:+.0}")
                } else {
                    String::new()
                };
                let shown = if i == 0 { layer } else { "" };
                let _ = writeln!(
                    out,
                    "  {shown:<12} {moved:>16}  {name:<32} {x:>16.4} {y:>16.4} {:>16.4} {pct:>9}",
                    y - x
                );
            }
        }
    }
    for workload in after.keys().filter(|w| !before.contains_key(*w)) {
        let _ = writeln!(out, "{workload}: only in the second input");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(host_ns: f64) -> String {
        format!(
            "noise\n{REPORT_PREFIX}{{\"workload\":\"kv-foc\",\"fingerprint\":\"ab\",\
             \"end_to_end\":{{}},\"per_layer\":{{\"kvserver.execute.calls\":10,\
             \"kvserver.execute.host_ns\":{host_ns},\"cache.accesses\":5}}}}\n{{}}\n"
        )
    }

    #[test]
    fn ranks_the_layer_whose_host_time_moved() {
        let a = parse_reports(&report(100.0)).unwrap();
        let b = parse_reports(&report(150.0)).unwrap();
        let text = render(&a, &b);
        let first_layer = text.lines().nth(2).unwrap();
        assert!(first_layer.contains("kvserver"), "{text}");
        assert!(first_layer.contains("+500"), "{text}");
        assert!(text.contains("(same)"));
    }
}
