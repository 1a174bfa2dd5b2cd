//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints one JSON line on stdout (the last
//! line): `{"correct", "attempted", "failed", "metrics"}`. Context goes
//! to stderr. Exits non-zero, without a result line, when the workload
//! cannot run or one of its self-checks no longer holds.

use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<String, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let result = castg_perfbench::run(&workload, seed, seconds, trace)?;
    for note in &result.notes {
        eprintln!("perfbench: {workload}: {note}");
    }
    for failure in &result.check_failures {
        eprintln!("perfbench: {workload}: check failed: {failure}");
    }
    castg_perfbench::render(&result, trace)
}
