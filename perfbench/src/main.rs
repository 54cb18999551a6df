//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-mixed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every metric is printed with its unit, beside the host's thread count,
//! the seed and the sample count behind each percentile. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end with `--trace 0`, per-layer with `--trace 1`). The
//! exit code is 0 only when every checked answer was right and no batch
//! call failed; usage errors exit 2 without a result.

use perfbench::{catalog, stats, Settings, Size, Workload, HELD_OUT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <serve-mixed|ingest-durable|paper-or> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse(args: &[String]) -> Result<Settings, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Settings {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::full(workload),
        work_dir: PathBuf::from(".bench_work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match parse(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = perfbench::run(&settings);
    let _ = std::fs::remove_dir_all(&settings.work_dir);
    if let Some(parent) = settings.work_dir.parent() {
        // Only succeeds once no other run still uses it.
        let _ = std::fs::remove_dir(parent);
    }
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "workload={} seed={} held_out_seed={HELD_OUT_SEED} trace={} seconds={} nproc={} \
         threads={}",
        settings.workload.name(),
        settings.seed,
        u8::from(settings.trace),
        settings.seconds,
        stats::nproc(),
        settings.size.threads,
    );
    for note in &out.notes {
        println!("  {note}");
    }
    let catalog = catalog::for_mode(settings.trace);
    for &(name, unit) in catalog {
        println!("  {name:<30} {:>16.6} {unit}", out.metrics[name]);
    }
    println!(
        "  {:<30} {:>16.6} ratio ({} of {} batch calls)",
        "error_rate",
        stats::ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    );
    println!("  {:<30} {:>16} count", "wrong_answers", out.wrong_answers);

    let metrics: Vec<String> = catalog
        .iter()
        .map(|&(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                out.metrics[name]
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
