//! `campaignbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints what it checked and every metric with its unit, then, as the
//! last line of standard output, one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` they are the per-layer ones.

use std::process::ExitCode;

use campaignbench::run::{run, Options, Outcome};
use campaignbench::workload::Workload;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: {value:?} is not a positive number"))?;
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: {value:?} is not 0 or 1")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    // One worker for the session's fault-simulation pool, which then
    // runs inline: a campaign never leaves its client thread, so each
    // client is one farm slot on one core and its CPU clock sees the
    // whole campaign. Set before any thread starts.
    std::env::set_var("FLEET_WORKERS", "1");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("campaignbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("campaignbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(m) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("campaignbench: metric {} is not a number", m.name);
        return ExitCode::FAILURE;
    }
    for note in &out.notes {
        println!("# {note}");
    }
    for m in &out.metrics {
        println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "campaigns: {} attempted, {} failed",
        out.attempted, out.failed
    );
    println!("{}", result_json(&out));
    ExitCode::SUCCESS
}
