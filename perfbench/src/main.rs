//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the GTD reproduction and prints its metrics, one
//! per line with its unit, then a stamp line, then the result as one JSON
//! object on the last line. `--trace 0` measures the end-to-end metrics;
//! `--trace 1` replays the workload through counting and timing wrappers
//! and reports the per-layer metrics. See README.md.
//!
//! `perfbench --serve-grid <seed>` is the process `campaign-wire` starts
//! for each served grid.

mod checks;
mod report;
mod stats;
mod sys;
mod tracer;
mod workloads;

use gtd::bench::json::JsonValue;
use report::result_line;
use std::process::ExitCode;
use workloads::{run_traced, run_untraced, serve_grid, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected a whole number"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, seed] = argv.as_slice() {
        if flag == "--serve-grid" {
            let served = seed
                .parse()
                .map_err(|_| format!("--serve-grid: expected a whole number, got {seed:?}"))
                .and_then(serve_grid);
            return match served {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let m = if args.trace {
        run_traced(args.workload, args.seed, args.seconds)
    } else {
        run_untraced(args.workload, args.seed, args.seconds)
    };
    for note in m.tally.notes.iter().chain(&m.tally.gate_breaches) {
        eprintln!("FAILED {note}");
    }
    for metric in &m.metrics {
        println!("{:<36} {:>16.6} {}", metric.name, metric.value, metric.unit);
    }
    let stamp = JsonValue::obj([
        (
            "workload".to_string(),
            JsonValue::Str(args.workload.name().into()),
        ),
        ("seed".to_string(), JsonValue::Num(args.seed as f64)),
        ("trace".to_string(), JsonValue::Bool(args.trace)),
        ("ops".to_string(), JsonValue::Num(m.ops as f64)),
        (
            "available_parallelism".to_string(),
            JsonValue::Num(std::thread::available_parallelism().map_or(1, |p| p.get()) as f64),
        ),
        (
            "pool_workers".to_string(),
            JsonValue::Num(m.pool_workers as f64),
        ),
        (
            "profile".to_string(),
            JsonValue::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
    ]);
    println!(
        "{}",
        JsonValue::obj([("stamp".to_string(), stamp)]).render()
    );
    println!("{}", result_line(&m.tally, &m.metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&args("--workload map-ring --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::MapRing);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload map-ring --seed -1 --seconds 1",
            "--workload map-ring --seed 1 --seconds 0",
            "--workload map-ring --seed 1 --seconds 1 --trace 2",
            "--workload map-ring --seed 1",
            "--workload map-ring --seed 1 --seconds 1 --extra 3",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
