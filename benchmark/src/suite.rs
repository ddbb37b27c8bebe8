//! The parent process: runs every workload in its own child, one at a
//! time, so set-up time and peak memory are per workload and no pool,
//! plan-cache or prepacked-weight state leaks from one to the next.

use crate::host;
use crate::json::{self, Json};
use crate::layers::Res;
use crate::metrics;
use crate::workload;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Default windows of the suite; `--seconds` overrides either.
pub const UNTRACED_SECONDS: f64 = 20.0;
pub const TRACED_SECONDS: f64 = 6.0;

pub struct Options {
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub out_dir: PathBuf,
    pub scrubbed: Vec<String>,
}

/// One child's parsed result line.
pub struct ChildResult {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` as printed by the child.
    pub metrics: Vec<(String, f64, String)>,
    pub notes: Vec<String>,
}

impl ChildResult {
    pub fn failed_fraction(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, ..)| n == name)
            .map(|(_, v, _)| *v)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.workload)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("failed_fraction", Json::Num(self.failed_fraction())),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(n, v, u)| {
                            let better = metrics::lookup(n).map_or("", |def| def.better);
                            let entry = Json::obj([
                                ("value", Json::Num(*v)),
                                ("unit", Json::str(u.as_str())),
                                ("better", Json::str(better)),
                            ]);
                            (n.clone(), entry)
                        })
                        .collect(),
                ),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(|n| Json::str(n.as_str())).collect()),
            ),
        ])
    }
}

/// Parse the last line a child printed.
pub fn parse_result(workload: &'static str, stdout: &str) -> Res<ChildResult> {
    let mut lines: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
    let last = lines.pop().ok_or("child printed nothing")?;
    let doc = json::parse(last).map_err(|e| format!("result line does not parse: {e}"))?;
    let whole = |key: &str| {
        doc.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("result line lacks a whole number {key:?}"))
    };
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line lacks metrics")?
        .iter()
        .map(|(name, entry)| {
            let value = entry.get("value").and_then(Json::as_f64);
            let unit = entry.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(v), Some(u)) => Ok((name.clone(), v, u.to_string())),
                _ => Err(format!("metric {name:?} lacks a value or a unit")),
            }
        })
        .collect::<Res<Vec<_>>>()?;
    Ok(ChildResult {
        workload,
        attempted: whole("attempted")?,
        failed: whole("failed")?,
        metrics,
        // The child's own host line repeats what the suite prints once.
        notes: lines
            .iter()
            .filter_map(|l| l.strip_prefix("# "))
            .filter(|l| !l.starts_with("host: "))
            .map(str::to_string)
            .collect(),
    })
}

fn run_child(workload: &'static str, seed: u64, seconds: f64, trace: bool) -> Res<ChildResult> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: cannot start child: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    parse_result(workload, &String::from_utf8_lossy(&output.stdout))
        .map_err(|e| format!("{workload}: {e}"))
}

/// Run every workload once and print each metric by name, with its
/// unit and the number of samples behind it.
pub fn run_pass(seed: u64, seconds: f64, trace: bool) -> Res<Vec<ChildResult>> {
    let mut results = Vec::new();
    for name in workload::NAMES {
        eprintln!("running {name} ({seconds} s, trace {})", u8::from(trace));
        let r = run_child(name, seed, seconds, trace)?;
        print_result(&r, trace);
        results.push(r);
    }
    Ok(results)
}

fn print_result(r: &ChildResult, trace: bool) {
    let line = |name: &str, value: f64, unit: &str| {
        println!(
            "{:<20} {:<38} {:>16.9} {:<8} n={}",
            r.workload, name, value, unit, r.attempted
        );
    };
    for (name, value, unit) in &r.metrics {
        // Zero is "not exercised by this workload" in a traced run.
        if !(trace && *value == 0.0) {
            line(name, *value, unit);
        }
    }
    if !trace {
        line("failed_fraction", r.failed_fraction(), "ratio");
    }
    for note in &r.notes {
        println!("{:<20} note: {note}", r.workload);
    }
}

fn write_results(path: &Path, host: &Json, results: &[ChildResult]) -> Res<()> {
    let doc = Json::obj([
        ("host", host.clone()),
        (
            "workloads",
            Json::Arr(results.iter().map(ChildResult::to_json).collect()),
        ),
    ]);
    std::fs::create_dir_all(path.parent().unwrap_or(Path::new(".")))
        .and_then(|()| std::fs::write(path, doc.render_pretty()))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The suite: one pass, printed and written to `out/`.
pub fn run(opts: &Options) -> Res<bool> {
    let seconds = opts.seconds.unwrap_or(if opts.trace {
        TRACED_SECONDS
    } else {
        UNTRACED_SECONDS
    });
    let host = host::fingerprint(&opts.scrubbed, opts.seed, seconds, opts.trace);
    println!("host: {}", host::one_line(&host));
    let results = run_pass(opts.seed, seconds, opts.trace)?;
    let file = if opts.trace {
        "results-trace.json"
    } else {
        "results.json"
    };
    let path = opts.out_dir.join(file);
    write_results(&path, &host, &results)?;
    println!("wrote {}", path.display());
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    if failed > 0 {
        println!("FAILED: {failed} ops failed their check");
    }
    Ok(failed == 0)
}

/// The bound of each end-to-end metric, from `BENCHMARK.json`.
pub fn bounds() -> Res<Vec<(String, f64)>> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json lacks end_to_end")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, bound) {
                (Some(n), Some(b)) => Ok((n.to_string(), b)),
                _ => Err("BENCHMARK.json: an end_to_end metric lacks name or bound".to_string()),
            }
        })
        .collect()
}

/// One row of the repeat check.
#[derive(Debug, PartialEq)]
pub struct Comparison {
    pub workload: &'static str,
    pub metric: String,
    pub first: f64,
    pub second: f64,
    /// `|second − first| / first`; for an exact count, 0 or 1.
    pub difference: f64,
    pub bound: f64,
}

impl Comparison {
    pub fn ok(&self) -> bool {
        self.difference <= self.bound
    }
}

/// Compare two passes of the same code: every end-to-end metric within
/// its bound, `failed_fraction` 0 on both, every exact count equal.
pub fn compare(
    untraced: (&[ChildResult], &[ChildResult]),
    traced: (&[ChildResult], &[ChildResult]),
    bounds: &[(String, f64)],
) -> Vec<Comparison> {
    let mut rows = Vec::new();
    for (a, b) in untraced.0.iter().zip(untraced.1) {
        for (metric, bound) in bounds {
            let (first, second) = (
                a.metric(metric).unwrap_or(0.0),
                b.metric(metric).unwrap_or(0.0),
            );
            rows.push(Comparison {
                workload: a.workload,
                metric: metric.clone(),
                first,
                second,
                difference: if first > 0.0 {
                    (second - first).abs() / first
                } else {
                    f64::INFINITY
                },
                bound: *bound,
            });
        }
        let worst = a.failed_fraction().max(b.failed_fraction());
        rows.push(Comparison {
            workload: a.workload,
            metric: "failed_fraction".to_string(),
            first: a.failed_fraction(),
            second: b.failed_fraction(),
            difference: worst,
            bound: 0.0,
        });
    }
    for (a, b) in traced.0.iter().zip(traced.1) {
        let single = workload::is_single_stream(a.workload);
        for (metric, first, _) in &a.metrics {
            if !metrics::is_exact_count(metric, single) {
                continue;
            }
            let second = b.metric(metric).unwrap_or(f64::NAN);
            rows.push(Comparison {
                workload: a.workload,
                metric: metric.clone(),
                first: *first,
                second,
                difference: if *first == second { 0.0 } else { 1.0 },
                bound: 0.0,
            });
        }
    }
    rows
}

/// `--check-repeat`: the whole suite twice, back to back.
pub fn check_repeat(opts: &Options) -> Res<bool> {
    let untraced_s = opts.seconds.unwrap_or(UNTRACED_SECONDS);
    let traced_s = opts.seconds.unwrap_or(TRACED_SECONDS);
    let host = host::fingerprint(&opts.scrubbed, opts.seed, untraced_s, false);
    println!("host: {}", host::one_line(&host));
    let bounds = bounds()?;
    let mut passes = Vec::new();
    for pass in 1..=2 {
        println!("--- pass {pass} ---");
        let untraced = run_pass(opts.seed, untraced_s, false)?;
        let traced = run_pass(opts.seed, traced_s, true)?;
        passes.push((untraced, traced));
    }
    let rows = compare(
        (&passes[0].0, &passes[1].0),
        (&passes[0].1, &passes[1].1),
        &bounds,
    );
    println!("--- repeat check: second pass against first ---");
    println!(
        "{:<20} {:<38} {:>16} {:>16} {:>10} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for row in &rows {
        println!(
            "{:<20} {:<38} {:>16.9} {:>16.9} {:>10.4} {:>7.2} {}",
            row.workload,
            row.metric,
            row.first,
            row.second,
            row.difference,
            row.bound,
            if row.ok() { "" } else { "EXCEEDS" }
        );
    }
    let bad = rows.iter().filter(|r| !r.ok()).count();
    println!("{} of {} comparisons exceed their bound", bad, rows.len());
    Ok(bad == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(p50: f64, failed: u64, nodes: f64) -> ChildResult {
        ChildResult {
            workload: "exec_tiny_f32",
            attempted: 100,
            failed,
            metrics: vec![
                ("op_p50_s".to_string(), p50, "s".to_string()),
                (
                    "fx_core.trace.nodes".to_string(),
                    nodes,
                    "count".to_string(),
                ),
                ("fx_core.trace.s".to_string(), p50, "s".to_string()),
            ],
            notes: Vec::new(),
        }
    }

    #[test]
    fn result_line_parses_with_notes() {
        let out = "# host: x\n# a note\n{\"correct\":true,\"attempted\":12,\"failed\":1,\
                   \"metrics\":{\"op_p50_s\":{\"value\":0.25,\"unit\":\"s\"}}}\n";
        let r = parse_result("exec_tiny_f32", out).unwrap();
        assert_eq!((r.attempted, r.failed), (12, 1));
        assert_eq!(r.metric("op_p50_s"), Some(0.25));
        assert_eq!(r.notes, ["a note"]);
        assert!(parse_result("exec_tiny_f32", "").is_err());
        assert!(parse_result("exec_tiny_f32", "{\"attempted\":1}").is_err());
    }

    #[test]
    fn repeat_check_flags_drift_failures_and_changed_counts() {
        let bounds = [("op_p50_s".to_string(), 0.10)];
        let same = compare(
            (&[result(1.0, 0, 43.0)], &[result(1.05, 0, 43.0)]),
            (&[result(1.0, 0, 43.0)], &[result(2.0, 0, 43.0)]),
            &bounds,
        );
        assert!(same.iter().all(Comparison::ok), "{same:?}");
        // Timings in a traced pass are not compared; counts are.
        assert_eq!(
            same.iter()
                .filter(|r| r.metric == "fx_core.trace.nodes")
                .count(),
            1
        );
        assert!(!same.iter().any(|r| r.metric == "fx_core.trace.s"));

        let drift = compare(
            (&[result(1.0, 0, 43.0)], &[result(1.2, 0, 43.0)]),
            (&[], &[]),
            &bounds,
        );
        assert!(!drift[0].ok());
        let failing = compare(
            (&[result(1.0, 0, 43.0)], &[result(1.0, 1, 43.0)]),
            (&[], &[]),
            &bounds,
        );
        assert!(!failing
            .iter()
            .find(|r| r.metric == "failed_fraction")
            .unwrap()
            .ok());
        let recount = compare(
            (&[], &[]),
            (&[result(1.0, 0, 43.0)], &[result(1.0, 0, 44.0)]),
            &bounds,
        );
        assert!(!recount[0].ok());
    }
}
