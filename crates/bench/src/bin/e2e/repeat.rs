//! `--repeat N`: N independent runs of one workload (each a fresh process,
//! as the driver makes them), then each metric's run-to-run spread against
//! its bound.
//!
//! Spread is the distance between the first and third quartile of the N
//! values, by the cut points of Python's `statistics.quantiles(v, n=4)`,
//! as a share of their median. An end-to-end metric whose spread exceeds
//! its bound is printed as `unresolved`: this machine cannot tell a
//! regression of that size from noise.

use crate::report::{Def, END_TO_END, PER_LAYER};
use crate::stats;
use std::process::{Command, Stdio};

/// The metrics of a run's final JSON line. The harness only ever reads its
/// own output, so this scans for `"name": {"value": <number>` rather than
/// parsing JSON in general.
fn parse_metrics(line: &str, defs: &[Def]) -> Option<Vec<f64>> {
    defs.iter()
        .map(|d| {
            let key = format!("\"{}\": {{\"value\": ", d.name);
            let rest = &line[line.find(&key)? + key.len()..];
            rest[..rest.find([',', '}'])?].trim().parse().ok()
        })
        .collect()
}

/// Runs the workload `n` times with `child_args` and prints the spread
/// table. Returns whether every run exited 0 with a parsable result.
///
/// # Errors
///
/// Returns a description if the harness cannot re-execute itself.
pub fn run(n: usize, child_args: &[String], traced: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let defs = if traced { PER_LAYER } else { END_TO_END };
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); defs.len()];
    let mut all_ok = true;
    for i in 0..n {
        // `output` waits for the child, so no process outlives this loop.
        let out = Command::new(&exe)
            .args(child_args)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        match parse_metrics(last, defs) {
            Some(values) if out.status.success() => {
                for (column, v) in columns.iter_mut().zip(values) {
                    column.push(v);
                }
                eprintln!("run {}/{n}: ok", i + 1);
            }
            _ => {
                all_ok = false;
                eprintln!("run {}/{n}: FAILED ({}) {last}", i + 1, out.status);
            }
        }
    }
    if columns[0].len() < 2 {
        return Err("fewer than two successful runs: no spread to report".into());
    }
    println!(
        "{:<34} {:>14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "metric", "q1", "median", "q3", "spread", "bound"
    );
    for (d, column) in defs.iter().zip(&columns) {
        let (q1, med, q3) = stats::quartiles(column);
        let spread = stats::spread(column);
        let (bound, verdict) = if traced {
            ("-".to_string(), "")
        } else if spread > d.bound {
            (format!("{:.3}", d.bound), "unresolved")
        } else if spread > d.bound / 3.0 {
            (
                format!("{:.3}", d.bound),
                "resolved (spread over a third of the bound)",
            )
        } else {
            (format!("{:.3}", d.bound), "resolved")
        };
        println!(
            "{:<34} {q1:>14.6} {med:>14.6} {q3:>14.6} {spread:>9.4} {bound:>7}  {verdict}",
            d.name
        );
    }
    Ok(all_ok)
}
