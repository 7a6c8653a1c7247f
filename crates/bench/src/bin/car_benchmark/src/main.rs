//! `car_benchmark [run|trace] --workload <name> --seed <n> --seconds <s> [--trace 0|1]`
//! `car_benchmark compare <parent-runs-dir> <change-runs-dir>`
//!
//! The last line of standard output is the result object. A wrong
//! answer, a lost edit or an open-loop generator that fell behind exits
//! non-zero.

use car_benchmark::workloads::{self, Tally, Workload};
use car_benchmark::{compare, end_to_end, result_line, stats, trace};
use std::process::ExitCode;

const USAGE: &str = "usage: car_benchmark [run|trace] --workload <edit_session|shared_reads|cold_classify|crash_recovery> \
                     [--seed <n>] [--seconds <s>] [--trace 0|1]\n       \
                     car_benchmark compare <parent-runs-dir> <change-runs-dir>";

/// Open-loop validity: a generator whose sends run late measures its
/// own scheduling, not the server. Late sends inflate only their own
/// latencies, so lateness can move a reported percentile only when more
/// than the share of sends beyond it is late: the p90 limit protects
/// `query_p90_ms`. The p99 limit catches a generator falling behind; it
/// sits above this platform's own wake-up jitter — a thread sleeping
/// 15 ms on an otherwise idle 2-vCPU VM overshoots by about 1 ms at p99
/// and up to 7 ms at worst, because the host deschedules idle vCPUs.
const MAX_LATENESS_P90_MS: f64 = 1.0;
const MAX_LATENESS_P99_MS: f64 = 20.0;

struct Args {
    traced: bool,
    workload: Workload,
    seed: u64,
    seconds: f64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut traced = None;
    let mut rest = args;
    match args.first().map(String::as_str) {
        Some("run") => {
            traced = Some(false);
            rest = &args[1..];
        }
        Some("trace") => {
            traced = Some(true);
            rest = &args[1..];
        }
        _ => {}
    }
    let (mut workload, mut seed, mut seconds, mut trace_flag) = (None, 1, 10.0_f64, None);
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds '{value}'"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace_flag = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}'")),
                });
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    if let (Some(sub), Some(flag)) = (traced, trace_flag) {
        if sub != flag {
            return Err("the subcommand and --trace disagree".into());
        }
    }
    Ok(Args {
        traced: traced.or(trace_flag).unwrap_or(false),
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
    })
}

fn timed(args: &Args) -> Result<ExitCode, String> {
    let r = workloads::run(args.workload, args.seed, args.seconds)?;
    let lateness = stats::sorted(&r.lateness_ms);
    let (lateness_p90, lateness_p99) = (
        stats::nearest_rank(&lateness, 0.9),
        stats::nearest_rank(&lateness, 0.99),
    );
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    for note in &r.notes {
        println!("# {note}");
    }
    println!(
        "# {} seed {}: {} ops, {} failed, {} wrong; generator lateness p99 {}; nproc {nproc}; net mode {}",
        args.workload.name(),
        args.seed,
        r.tally.attempted,
        r.tally.failed,
        r.tally.wrong,
        lateness_p99.map_or("n/a (closed loop)".to_owned(), |l| format!("{l:.3} ms")),
        r.net_mode.as_deref().unwrap_or("n/a"),
    );
    if let (Some(p90), Some(p99)) = (lateness_p90, lateness_p99) {
        if p90 > MAX_LATENESS_P90_MS || p99 > MAX_LATENESS_P99_MS {
            return Err(format!(
                "invalid run: the load generator sent late (p90 {p90:.3} ms, p99 {p99:.3} ms; \
                 limits {MAX_LATENESS_P90_MS} and {MAX_LATENESS_P99_MS} ms)"
            ));
        }
    }
    let mut metrics = Vec::new();
    for (name, value, unit) in end_to_end(&r) {
        match value {
            Some(v) => metrics.push((name.to_owned(), v, unit)),
            None => println!("# {name}: too few samples ({} ops)", r.ops.len()),
        }
    }
    Ok(report(r.tally, &metrics))
}

fn traced(args: &Args) -> Result<ExitCode, String> {
    let t = trace::run(
        args.workload,
        args.seed,
        args.seconds,
        trace::Size::Standard,
    )?;
    for note in &t.notes {
        println!("# {note}");
    }
    Ok(report(t.tally, &t.metrics))
}

/// Prints the result line; a wrong answer or lost edit fails the run.
fn report(tally: Tally, metrics: &[(String, f64, &str)]) -> ExitCode {
    let correct = tally.wrong == 0;
    println!(
        "{}",
        result_line(correct, tally.attempted, tally.failed, metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::main(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("car_benchmark compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let parsed = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("car_benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if parsed.traced {
        traced(&parsed)
    } else {
        timed(&parsed)
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("car_benchmark: {e}");
        ExitCode::FAILURE
    })
}
