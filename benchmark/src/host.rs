//! The host fingerprint: enough to tell, months later, whether two
//! numbers came from the same kind of machine, build and settings.

use crate::json::Json;
use crate::layers;
use std::process::Command;

/// Remove every `FX_*` variable from this process's environment (and so
/// from its children's) and return the names removed. The crates read
/// their knobs once, lazily; this must run before anything touches them
/// and before any thread starts.
pub fn scrub_fx_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("FX_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

#[cfg(target_arch = "x86_64")]
fn cpu_features() -> Vec<(&'static str, bool)> {
    vec![
        ("avx2", std::arch::is_x86_feature_detected!("avx2")),
        ("fma", std::arch::is_x86_feature_detected!("fma")),
        ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        // What the int8 kernels look for before using `vpdpwssd`.
        (
            "avx512vnni_vl",
            std::arch::is_x86_feature_detected!("avx512vnni")
                && std::arch::is_x86_feature_detected!("avx512vl"),
        ),
    ]
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_features() -> Vec<(&'static str, bool)> {
    Vec::new()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line of a tool's output, or `"unknown"` when it is missing or
/// fails (the driver's checkout, for one, is not a git repository).
fn tool(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.lines().next().unwrap_or("").trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Facts about this process: cheap, no child processes.
pub fn process_facts(scrubbed: &[String]) -> Vec<(String, Json)> {
    let mut facts = vec![
        (
            "nproc".to_string(),
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("cpu_model".to_string(), Json::str(cpu_model())),
        (
            "simd_available".to_string(),
            Json::Bool(layers::simd_available()),
        ),
        (
            "simd_enabled".to_string(),
            Json::Bool(layers::simd_enabled()),
        ),
    ];
    for (name, on) in cpu_features() {
        facts.push((format!("cpu_{name}"), Json::Bool(on)));
    }
    facts.extend([
        (
            "kernel_threads".to_string(),
            Json::Num(layers::kernel_threads() as f64),
        ),
        (
            "exec_config".to_string(),
            Json::str(layers::exec_config_from_env().to_string()),
        ),
        (
            "client_threads".to_string(),
            Json::Num(crate::workload::client_threads() as f64),
        ),
        (
            "fx_env_scrubbed".to_string(),
            Json::Arr(scrubbed.iter().map(|s| Json::str(s.as_str())).collect()),
        ),
    ]);
    facts
}

/// The full fingerprint the suite records: process facts plus the
/// toolchain and the commit, which cost a child process each.
pub fn fingerprint(scrubbed: &[String], seed: u64, seconds: f64, trace: bool) -> Json {
    let mut facts = process_facts(scrubbed);
    let dirty = match tool("git", &["status", "--porcelain"]).as_str() {
        "unknown" => Json::str("unknown"),
        first_line => Json::Bool(!first_line.is_empty()),
    };
    facts.extend([
        ("rustc".to_string(), Json::str(tool("rustc", &["-V"]))),
        (
            "git_commit".to_string(),
            Json::str(tool("git", &["rev-parse", "HEAD"])),
        ),
        ("git_dirty".to_string(), dirty),
        ("seed".to_string(), Json::Num(seed as f64)),
        ("window_s".to_string(), Json::Num(seconds)),
        ("trace".to_string(), Json::Bool(trace)),
    ]);
    Json::Obj(facts)
}

/// `key=value` pairs on one line, for stdout.
pub fn one_line(facts: &Json) -> String {
    facts
        .as_obj()
        .unwrap_or(&[])
        .iter()
        .map(|(k, v)| match v {
            Json::Str(s) => format!("{k}={s:?}"),
            other => format!("{k}={}", other.render()),
        })
        .collect::<Vec<_>>()
        .join(" ")
}
