//! `scorpio-benchmark`: the repository's benchmark.
//!
//! ```text
//! scorpio-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]] [--quick]
//! scorpio-benchmark --selfcheck [R] [--seed <n>] [--seconds <s>]
//! ```
//!
//! A plain run prints every end-to-end metric by name with unit and bound;
//! `--trace` makes the separate traced run for the per-layer numbers. The
//! last line of standard output is one JSON object. Single process, single
//! thread. See README.md beside this crate.

mod alloc;
mod api;
mod estimator;
mod metrics;
mod run;
mod selfcheck;
mod traced;
mod tracer;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Seconds a run measures unless `--seconds` says otherwise; the same value
/// `BENCHMARK.json` fixes as `run_seconds`.
const DEFAULT_SECONDS: f64 = 27.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    selfcheck: Option<u32>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        selfcheck: None,
    };
    let mut i = 0;
    // The value after flag `i`, if the next argument is not itself a flag.
    let value = |i: usize| args.get(i + 1).filter(|a| !a.starts_with("--"));
    while i < args.len() {
        let flag = args[i].as_str();
        let need = |what: &str| value(i).ok_or_else(|| format!("{flag} needs {what}"));
        match flag {
            "--workload" => parsed.workload = Some(need("a workload name")?.clone()),
            "--seed" => {
                parsed.seed = need("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = need("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be above 0 and at most 600".into());
                }
            }
            "--trace" => {
                parsed.trace = match value(i).map(String::as_str) {
                    None | Some("1") => true,
                    Some("0") => false,
                    Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--selfcheck" => {
                parsed.selfcheck = Some(match value(i) {
                    None => 3,
                    Some(r) => r
                        .parse()
                        .ok()
                        .filter(|&r| r >= 1)
                        .ok_or("--selfcheck takes a positive run count")?,
                });
            }
            "--quick" => parsed.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
        i += if flag != "--quick" && value(i).is_some() {
            2
        } else {
            1
        };
    }
    Ok(parsed)
}

fn usage() -> String {
    let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
    format!(
        "usage: scorpio-benchmark --workload <{}> --seed <n> [--seconds <s>] [--trace [0|1]] \
         [--quick]\n       scorpio-benchmark --selfcheck [R] [--seed <n>] [--seconds <s>]",
        names.join("|")
    )
}

/// `benchmark/out/`, beside this crate's manifest.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
        .join("out")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.selfcheck {
        return match selfcheck::selfcheck(runs, args.seed, args.seconds) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(w) = args.workload.as_deref().and_then(workloads::by_name) else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    println!(
        "workload {}  seed {}  {}",
        w.name,
        args.seed,
        if args.quick {
            "quick: 2 timed passes, numbers not comparable".to_string()
        } else {
            format!("measuring for {} s", args.seconds)
        }
    );
    println!("why: {}", w.why);
    let outcome = if args.trace {
        let file = out_dir().join(format!("trace-{}.json", w.name));
        let outcome = traced::traced(&w, args.seed, args.seconds, &file);
        outcome.print_per_layer();
        outcome
    } else {
        let length = if args.quick {
            run::Length::Quick
        } else {
            run::Length::Seconds(args.seconds)
        };
        let outcome = run::plain(&w, args.seed, length);
        outcome.print_end_to_end();
        outcome
    };
    println!("{}", outcome.json_line());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "sat-8x8",
            "--seed",
            "7",
            "--seconds",
            "27",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("sat-8x8"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 27.0, false));
        let a = args(&["--workload", "chip-6x6", "--trace", "1"]).unwrap();
        assert!(a.trace && a.seed == 1 && a.seconds == DEFAULT_SECONDS);
        // A bare --trace means 1, also in front of another flag.
        assert!(args(&["--trace", "--quick"]).unwrap().trace);
        assert!(args(&["--quick", "--trace"]).unwrap().quick);
    }

    #[test]
    fn parses_selfcheck_and_rejects_nonsense() {
        assert_eq!(args(&["--selfcheck"]).unwrap().selfcheck, Some(3));
        assert_eq!(args(&["--selfcheck", "5"]).unwrap().selfcheck, Some(5));
        assert!(args(&["--selfcheck", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seed", "x"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }
}
