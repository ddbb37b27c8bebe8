//! The repository's benchmark: six workloads from capture → transform to
//! served inference, timed from outside the crates they exercise.
//!
//! ```text
//! fx-benchmark --seed N                      every workload, 20 s windows
//! fx-benchmark --seed N --trace              every workload traced, 6 s windows
//! fx-benchmark --seed N --check-repeat       the whole suite twice, compared
//! fx-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                            one workload in this process;
//!                                            last stdout line is its result
//! ```
//!
//! See `README.md` beside the manifest for the metrics and workloads.

mod attribution;
mod check;
mod gen;
mod host;
mod json;
mod layers;
mod metrics;
mod pipeline;
mod span;
mod stats;
mod suite;
mod workload;

use json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    check_repeat: bool,
}

const USAGE: &str = "usage: fx-benchmark [--seed N] [--seconds S] [--trace [0|1]] \
                     [--check-repeat] [--workload NAME]";

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        check_repeat: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?.clone()),
            "--seed" => {
                let v = value("--seed")?;
                cli.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not a u64"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v:?} is not a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {v} is outside (0, 3600]"));
                }
                cli.seconds = Some(s);
            }
            // Bare `--trace` turns tracing on; the driver passes 0 or 1.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--check-repeat" => cli.check_repeat = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(cli)
}

fn child(
    cli: &Cli,
    name: &str,
    out_dir: &std::path::Path,
    scrubbed: &[String],
) -> Result<bool, String> {
    let args = workload::Args {
        workload: name.to_string(),
        seed: cli.seed,
        seconds: cli.seconds.ok_or("--workload needs --seconds")?,
        trace: cli.trace,
    };
    println!(
        "# host: {}",
        host::one_line(&Json::Obj(host::process_facts(scrubbed)))
    );
    let outcome = workload::run(&args, out_dir)?;
    for note in &outcome.notes {
        println!("# {note}");
    }
    let line = Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            Json::Obj(
                outcome
                    .metrics
                    .iter()
                    .map(|(name, value, unit)| {
                        let entry =
                            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]);
                        (name.to_string(), entry)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", line.render());
    Ok(outcome.attempted > 0)
}

fn main() -> ExitCode {
    // Before anything reads a knob and before any thread exists.
    let scrubbed = host::scrub_fx_env();
    layers::set_kernel_threads(1);

    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let done = parse_cli(&args).and_then(|cli| match &cli.workload {
        Some(name) => child(&cli, name, &out_dir, &scrubbed),
        None => {
            let opts = suite::Options {
                seed: cli.seed,
                seconds: cli.seconds,
                trace: cli.trace,
                out_dir,
                scrubbed,
            };
            if cli.check_repeat {
                suite::check_repeat(&opts)
            } else {
                suite::run(&opts)
            }
        }
    });
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("fx-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn trace_takes_an_optional_zero_or_one() {
        assert!(cli(&["--trace"]).unwrap().trace);
        assert!(cli(&["--trace", "1", "--seed", "3"]).unwrap().trace);
        let c = cli(&["--trace", "0", "--seed", "3"]).unwrap();
        assert!(!c.trace);
        assert_eq!(c.seed, 3);
        assert!(cli(&["--trace", "--check-repeat"]).unwrap().check_repeat);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--seed", "-1"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--seconds", "nan"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
    }
}
