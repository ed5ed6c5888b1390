//! Command line of the benchmark:
//!
//! ```text
//! hpmdr-perfbench --workload <refactor|retrieve|serve> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then one JSON line with `correct`,
//! `attempted`, `failed` and `metrics`. Exits non-zero when a check
//! failed or the run could not complete.

use hpmdr_perfbench::common::{Outcome, RunOpts, Scale};
use hpmdr_perfbench::{layers::PER_LAYER, END_TO_END};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0_f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The result line: every metric the run's mode promises, in order.
fn result_json(out: &Outcome, trace: bool) -> Result<String, String> {
    let names = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let m = out
            .get(name)
            .ok_or(format!("metric {name} was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric {name} is {}", m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
            m.value
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed
    ))
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: work.clone(),
        scale: Scale::full(),
    };
    let started = std::time::Instant::now();
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("create {}: {e}", work.display()))
        .and_then(|()| hpmdr_perfbench::run(&args.workload, &opts));
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", hpmdr_perfbench::common::Host::probe().describe());
    println!(
        "workload={} seed={} seconds={} trace={} wall={:.3}s",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        started.elapsed().as_secs_f64()
    );
    for line in &out.notes {
        println!("{line}");
    }
    for m in &out.metrics {
        println!("{} = {:?} {} (n={})", m.name, m.value, m.unit, m.samples);
    }
    println!("checks: {} attempted, {} failed", out.attempted, out.failed);
    match result_json(&out, args.trace) {
        Ok(json) if out.failed == 0 => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Ok(json) => {
            println!("{json}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
