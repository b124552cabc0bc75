//! One benchmark of the LoWino stack, from request to kernel.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_layers|model_forward|serve_poisson> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload goes through public APIs only and checks every output.
//! `--trace 0` prints the end-to-end metrics of an untraced run;
//! `--trace 1` alternates untraced and traced slices and prints the
//! per-layer metrics derived from the program's own trace events. The
//! last line of standard output is the result object; the line before it
//! holds sample counts and accounting, and the first line the host
//! fingerprint. See `README.md` for the metric map.

mod host;
mod model_forward;
mod paper_layers;
mod report;
mod serve_poisson;
mod stats;
mod trace_agg;

use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Engine threads: the host's core count.
    pub threads: usize,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag}: cannot parse {value:?}: {e}");
        let bad_f = |e: std::num::ParseFloatError| format!("{flag}: cannot parse {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(bad_f)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} outside (0, 120]"));
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

/// One stretch of timed work.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub length: Duration,
    /// Record trace events during this slice (traced runs only).
    pub traced: bool,
}

/// How a run divides its `--seconds`.
///
/// Untraced: `setups` equal slices; the workload takes one cold set-up
/// sample after each, so set-up is sampled through the run rather than
/// only at its start. Traced: alternating untraced and traced slices of
/// about `traced_slice`, so the tracing overhead compares like with like.
/// `traced_slice` must be short enough that no thread's 64Ki-event ring
/// wraps before the drain that follows each traced slice.
pub fn slices(opts: &Opts, setups: usize, traced_slice: Duration) -> Vec<Slice> {
    let total = Duration::from_secs_f64(opts.seconds);
    let (n, traced) = if opts.trace {
        let n = (total.as_secs_f64() / traced_slice.as_secs_f64())
            .round()
            .max(2.0) as usize;
        (n + n % 2, true)
    } else {
        (setups.max(1), false)
    };
    (0..n)
        .map(|i| Slice {
            length: total / n as u32,
            traced: traced && i % 2 == 1,
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host::fingerprint(opts.threads));
    let out = match opts.workload.as_str() {
        "paper_layers" => paper_layers::run(&opts),
        "model_forward" => model_forward::run(&opts),
        "serve_poisson" => serve_poisson::run(&opts),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    println!("{}", out.notes_json());
    println!("{}", out.result_json(opts.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let o = parse_args(&args(
            "--workload model_forward --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("model_forward", 7, 12.0, true)
        );
        assert!(parse_args(&args("--workload x --trace 2")).is_err());
        assert!(parse_args(&args("--workload x --seed")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
    }

    #[test]
    fn slices_cover_the_run() {
        let mut o = parse_args(&args("--workload w --seconds 6")).unwrap();
        let short = Duration::from_millis(250);
        let s = slices(&o, 12, short);
        assert_eq!(s.len(), 12);
        assert!(s.iter().all(|x| !x.traced));
        o.trace = true;
        let s = slices(&o, 12, short);
        assert_eq!(s.len(), 24);
        assert_eq!(s.iter().filter(|x| x.traced).count() * 2, s.len());
        let total: Duration = s.iter().map(|x| x.length).sum();
        assert!((total.as_secs_f64() - 6.0).abs() < 1e-3);
    }
}
