//! `e2e`: the repository's benchmark — one obfuscated training job along
//! the whole paper path, four workloads, end-to-end and per-layer metrics,
//! a traced run. See `README.md` beside this file.
//!
//! ```text
//! e2e --workload <cv_train|lm_train|dispatch_direct|dispatch_proxy> --seed <n>
//!     [--seconds <s>] [--trace <0|1>] [--trace-out <file>] [--repeat <n>]
//! e2e --describe          # prints BENCHMARK.json
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the exit code is 0 only
//! if every output was right, every harness invariant held and, in the
//! traced run, every workload self-check held.

mod alloc;
mod cluster;
mod dispatch;
mod jobs;
mod layers;
mod procfs;
mod repeat;
mod report;
mod spans;
mod stats;
mod train;

use report::{Machine, Report};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// This directory, relative to the repository root (`paths` in
/// `BENCHMARK.json`).
const BENCH_DIR: &str = "crates/bench/src/bin/e2e";

/// Where and on what this run happens.
pub fn machine() -> Machine {
    Machine {
        hw_threads: procfs::hw_threads(),
        pool_threads: amalgam_tensor::parallel::threads(),
        kernel_tier: format!("{:?}", amalgam_tensor::simd::active_tier()).to_lowercase(),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    repeat: Option<usize>,
}

const USAGE: &str = "usage: e2e --workload <cv_train|lm_train|dispatch_direct|dispatch_proxy> \
--seed <n> [--seconds <s>] [--trace <0|1>] [--trace-out <file>] [--repeat <n>] \
| e2e --describe";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: f64::from(report::RUN_SECONDS),
        trace: false,
        trace_out: None,
        repeat: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let bad = |v: &str| format!("bad value {v:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => {
                let v = value()?;
                parsed.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                parsed.seconds = v.parse().map_err(|_| bad(v))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err(bad(v));
                }
            }
            "--trace" => {
                let v = value()?;
                parsed.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(v)),
                };
            }
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value()?)),
            "--repeat" => {
                let v = value()?;
                parsed.repeat = Some(v.parse().map_err(|_| bad(v))?);
            }
            other => return Err(format!("unknown option {other}\n{USAGE}")),
        }
    }
    if !report::WORKLOADS
        .iter()
        .any(|(name, _)| *name == parsed.workload)
    {
        return Err(format!("unknown workload {:?}\n{USAGE}", parsed.workload));
    }
    Ok(parsed)
}

/// The span file's default place: under the build directory, which the
/// repository's `.gitignore` already covers.
fn default_span_file(workload: &str, seed: u64) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target)
        .join("e2e-trace")
        .join(format!("{workload}-seed{seed}.spans.tsv"))
}

fn run(args: &Args) -> Result<Report, String> {
    let hw = procfs::hw_threads();
    if hw < 2 {
        eprintln!(
            "WARNING: hw_threads = {hw}. The tensor pool, the worker pool and the load \
             generators cannot run side by side on this machine: numbers below exercise no \
             claim about parallel kernels, dispatch throughput or the proxy tier."
        );
    }
    let name = report::WORKLOADS
        .iter()
        .map(|(name, _)| *name)
        .find(|name| *name == args.workload)
        .expect("workload validated by parse_args");
    let span_file = args
        .trace_out
        .clone()
        .unwrap_or_else(|| default_span_file(name, args.seed));
    let (seed, seconds) = (args.seed, args.seconds);
    // `*_train` workloads by what they train, `dispatch_*` by whether the
    // proxy is in front.
    let train_kind = match name {
        "cv_train" => Some(jobs::Kind::Cv),
        "lm_train" => Some(jobs::Kind::Lm),
        _ => None,
    };
    let via_proxy = name == "dispatch_proxy";
    let report = match (train_kind, args.trace) {
        (Some(kind), false) => train::run_untraced(name, kind, seed, seconds),
        (Some(kind), true) => train::run_traced(name, kind, seed, seconds, &span_file),
        (None, false) => dispatch::run_untraced(name, via_proxy, seed, seconds),
        (None, true) => dispatch::run_traced(name, via_proxy, seed, seconds, &span_file),
    }?;
    if args.trace {
        eprintln!("spans written to {}", span_file.display());
    }
    report.validate()?;
    Ok(report)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--describe") {
        print!("{}", report::benchmark_json(BENCH_DIR));
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.repeat {
        // Children get the same arguments minus `--repeat <n>`.
        let mut child = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if a == "--repeat" {
                it.next();
            } else {
                child.push(a.clone());
            }
        }
        return match repeat::run(n, &child, args.trace) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("e2e: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(report) => {
            print!("{}", report.table());
            println!("{}", report.json_line());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
