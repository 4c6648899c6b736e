//! Paper-scale serving and ingestion benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload nas_sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` runs the end-to-end measurement over binary-v1 TCP;
//! `--trace 1` runs the per-layer timing of the same seeded inputs.
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; a detailed report
//! (validity, sample counts, spans, diagnostics) is written under
//! `.perfbench/reports/`. The exit code is non-zero when the correctness
//! gate fails. See `perfbench/README.md` for the workloads and the
//! metric -> layer -> workload map.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::json::Json;
use perfbench::stream::Workload;
use perfbench::{layers, run, world};

const USAGE: &str = "usage: perfbench --workload <nas_sweep|zoo_hot|ingest_refit> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(run::DEFAULT_SECONDS);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".perfbench");
    let reports = work.join("reports");
    std::fs::create_dir_all(&reports).expect("work directory is creatable");

    let world = world::World::build();
    let base = world::ensure_base_snapshot(&world, &work);
    let outcome = if args.trace {
        layers::run(&world, args.workload, args.seed, args.seconds, &work, base)
    } else {
        run::run(&world, args.workload, args.seed, args.seconds, &work, base)
    };

    let report_path = reports.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&report_path, outcome.report.render()) {
        eprintln!("perfbench: report write failed: {e}");
    }
    for (name, value, unit) in &outcome.metrics {
        eprintln!("perfbench: {:<28} {value:>16.6} {unit}", name);
    }
    eprintln!("perfbench: report at {}", report_path.display());

    let all_finite = outcome.metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = outcome.failed == 0 && all_finite;
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(outcome.attempted.max(1))),
        ("failed", Json::Int(outcome.failed)),
        (
            "metrics",
            Json::obj(outcome.metrics.iter().map(|(name, value, unit)| {
                (
                    *name,
                    Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                )
            })),
        ),
    ]);
    println!("{}", line.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: correctness gate FAILED ({} of {} failed)",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}
