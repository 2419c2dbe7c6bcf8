//! The repo benchmark. See `README.md` beside `Cargo.toml` for what is
//! measured and why, and `BENCHMARK.json` at the repo root for the
//! contract.
//!
//! ```text
//! benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! ```
//!
//! With `--workload`, measures that workload in this process: end-to-end
//! metrics with the benchmark's spans off (`--trace 0`, the default), or
//! the per-layer metrics of a traced run (`--trace 1`, which also writes
//! `DIR/trace.json`). Every metric is printed by name with its unit; the
//! last stdout line is one JSON object; the exit code is non-zero when a
//! correctness check or an operation failed.
//!
//! Without `--workload`, runs every workload in a process of its own,
//! untraced then traced, so peak memory, the telemetry registry and
//! kernel state are per run.
//!
//! The benchmark measures every layer from outside, through public
//! functions only, and imports nothing from `gen-nerf-bench`.

mod inputs;
mod json;
mod metrics;
mod probes;
mod run;
mod spans;
mod stats;
mod sys;
mod workloads;

use metrics::{Report, END_TO_END, PER_LAYER};
use run::Ctx;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::WORKLOADS;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

const DEFAULT_SEED: u64 = 42;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 38.0;
const SMOKE_SECONDS: f64 = 0.6;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        smoke: false,
        out: PathBuf::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.iter().any(|(name, _)| *name == w) {
                    let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
                    return Err(format!("unknown workload {w:?}; one of {names:?}"));
                }
                out.workload = Some(w);
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                out.seconds = s;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => out.smoke = true,
            "--out" => out.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if out.seconds == 0.0 {
        out.seconds = if out.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        };
    }
    if out.out.as_os_str().is_empty() {
        // Beside the build products, which the root .gitignore covers.
        let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
        out.out = PathBuf::from(target).join("benchmark-out");
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}

/// Measures one workload in this process.
fn run_one(workload: &str, args: &Args) -> ExitCode {
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        rec: spans::Recorder::new(false),
        report: Report::default(),
        setups: Vec::new(),
    };
    let backend = gen_nerf_nn::kernels::active_backend();
    println!(
        "# workload {workload} seed {} seconds {} trace {} nproc {} backend {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::nproc(),
        backend.name()
    );
    if workload == workloads::BY_HAND {
        println!("# {workload} is run by hand only: BENCHMARK.json does not list it (see the README)");
    }
    let (_, run) = WORKLOADS
        .iter()
        .find(|(name, _)| *name == workload)
        .expect("parse_args accepts only listed workloads");
    run(&mut ctx);

    if args.trace {
        let meta = [
            ("workload", workload.to_string()),
            ("seed", args.seed.to_string()),
            ("seconds", args.seconds.to_string()),
            ("nproc", sys::nproc().to_string()),
            ("backend", backend.name().to_string()),
        ];
        let path = args.out.join("trace.json");
        let written = std::fs::create_dir_all(&args.out)
            .and_then(|()| std::fs::write(&path, spans::trace_json(&meta, ctx.rec.spans())));
        match written {
            Ok(()) => println!(
                "# wrote {} ({} spans)",
                path.display(),
                ctx.rec.spans().len()
            ),
            Err(e) => ctx
                .report
                .check(false, &format!("writing {}: {e}", path.display())),
        }
        for (name, (n, total_ns, self_ns)) in spans::summarize(ctx.rec.spans()) {
            println!(
                "span {name:<40} n={n:<7} total_ms={:<12.3} self_ms={:.3}",
                total_ns as f64 / 1e6,
                self_ns as f64 / 1e6
            );
        }
    }
    for line in ctx.report.human_lines() {
        println!("metric {line}");
    }
    for note in &ctx.report.notes {
        println!("# {note}");
    }
    // The result line resolves every metric of the table, which can
    // itself fail the run (a missing or non-finite value).
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let line = ctx.report.result_line(table, !args.trace);
    for failure in &ctx.report.check_failures {
        println!("CHECK FAILED: {failure}");
    }
    println!(
        "# failed_share {} ({} of {} operations)",
        ctx.report.failed as f64 / ctx.report.attempted.max(1) as f64,
        ctx.report.failed,
        ctx.report.attempted
    );
    println!("{line}");
    if ctx.report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, untraced then traced, each in its own process.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failures = Vec::new();
    for trace in ["0", "1"] {
        for (workload, _) in WORKLOADS {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .arg("--out")
                .arg(args.out.join(workload));
            if args.smoke {
                cmd.arg("--smoke");
            }
            // The child inherits stdout, so its metric lines are this
            // command's output; `status` waits until it has ended.
            let ok = cmd.status().is_ok_and(|s| s.success());
            if !ok {
                failures.push(format!("{workload} (trace {trace})"));
            }
        }
    }
    if failures.is_empty() {
        println!("# all workloads correct");
        ExitCode::SUCCESS
    } else {
        println!("# FAILED: {}", failures.join(", "));
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "serve_load",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("driver arguments");
        assert_eq!(a.workload.as_deref(), Some("serve_load"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, 20.0, true, false)
        );
        assert!(a.out.ends_with("benchmark-out"));
    }

    #[test]
    fn defaults_and_smoke_mode() {
        let a = args(&[]).expect("no arguments");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (None, 42, DEFAULT_SECONDS, false)
        );
        let s = args(&["--smoke", "--out", "x/y"]).expect("smoke");
        assert_eq!(
            (s.seconds, s.smoke, s.out),
            (SMOKE_SECONDS, true, PathBuf::from("x/y"))
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--trace"],
            &["--seconds", "0"],
            &["--seconds", "inf"],
            &["--seed", "-1"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} should be refused");
        }
    }

    /// `BENCHMARK.json` names the workloads this binary runs, bar the one
    /// that is run by hand only.
    #[test]
    fn benchmark_json_names_the_gated_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let from = text.find("\"workloads\"").expect("workloads section");
        let body = &text[from..];
        let body = &body[..body.find(']').expect("section closes")];
        for (w, _) in WORKLOADS {
            assert_eq!(
                body.contains(&format!("\"name\": \"{w}\"")),
                w != workloads::BY_HAND,
                "{w}"
            );
        }
        assert_eq!(body.matches("\"name\"").count(), WORKLOADS.len() - 1);
        assert!(text.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS}")));
    }
}
