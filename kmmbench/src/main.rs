//! `kmmbench`: the release benchmark of the kmm workspace.
//!
//! ```text
//! kmmbench --workload <mst-wire|dyn-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It generates the workload's inputs from the seed, drives the public
//! API, checks every answer against the sequential oracle
//! (`kgraph::refalgo`) and prints a metric table, then one JSON result
//! line: `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones, measured with tracing off; with
//! `--trace 1` they are the per-layer ones, from a run that attaches a
//! time-stamping trace sink and also times calls into each layer's public
//! functions. `BENCHMARK.json` at the repository root names the workloads
//! and metrics and says what each measures. The process exits non-zero
//! when any answer is wrong or any operation fails.
//!
//! The run confines itself to one CPU ([`probe::pin_to_one_cpu`]), and
//! the end-to-end timings are divided by a host factor measured alongside
//! them ([`gauge`]), so that they follow the program rather than the
//! shared host's load.

mod cell;
mod churn;
mod gauge;
mod layers;
mod oracle;
mod probe;
mod report;
mod timeline;

use std::process::ExitCode;
use std::time::Instant;

/// Every end-to-end metric with its unit, in report order
/// (`BENCHMARK.json` lists the same).
const END_TO_END_METRICS: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("edges_per_s", "1/s"),
    ("batch_p50_ms", "ms"),
    ("batch_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("rounds", "count"),
    ("total_bits", "bit"),
];

/// The workloads, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 2] = ["mst-wire", "dyn-churn"];

const USAGE: &str =
    "usage: kmmbench --workload <mst-wire|dyn-churn> --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| bad("expected an integer"))?,
                    )
                }
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
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
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// The message of a caught panic.
pub fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(ToString::to_string)
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

fn run(args: &Args) -> report::Report {
    let pinned = probe::pin_to_one_cpu();
    let started = Instant::now();
    let (steal0, total0) = probe::host_ticks();
    let mut r = match (args.workload.as_str(), args.trace) {
        ("mst-wire", false) => cell::Cell::mst_wire(args.seed).end_to_end(args, started),
        ("mst-wire", true) => cell::Cell::mst_wire(args.seed).traced(args, started),
        (_, false) => churn::Churn::new(args.seed).end_to_end(args, started),
        (_, true) => churn::Churn::new(args.seed).traced(args, started),
    };
    let declared: &[(&str, &str)] = if args.trace {
        &layers::LAYER_METRICS
    } else {
        &END_TO_END_METRICS
    };
    if r.correct() {
        let mut got: Vec<(&str, &str)> = r
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.unit))
            .collect();
        let mut want = declared.to_vec();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(
            got, want,
            "the benchmark must report exactly its declared metrics and units"
        );
        r.metrics
            .sort_by_key(|m| declared.iter().position(|&(name, _)| name == m.name));
    }
    let (steal, total) = probe::host_ticks();
    r.note(match pinned {
        Some(cpu) => format!("confined to CPU {cpu}, with its threads and worker processes"),
        None => "could not confine the run to one CPU".into(),
    });
    r.note(format!(
        "run took {:.3} s; host steal {:.1}% of CPU time",
        started.elapsed().as_secs_f64(),
        100.0 * steal.saturating_sub(steal0) as f64 / total.saturating_sub(total0).max(1) as f64
    ));
    r
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    // The proc transport re-executes this binary as each machine's worker.
    if argv.get(1).map(String::as_str) == Some("__transport-worker") {
        let (Some(dir), Some(Ok(machine)), Some(Ok(k))) = (
            argv.get(2),
            argv.get(3).map(|a| a.parse::<usize>()),
            argv.get(4).map(|a| a.parse::<usize>()),
        ) else {
            eprintln!("__transport-worker needs <dir> <machine> <k>");
            return ExitCode::FAILURE;
        };
        return match kmachine::transport::worker_main(std::path::Path::new(dir), machine, k) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("transport worker {machine}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match Args::parse(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kmmbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Worker sockets live under the working directory (the checkout), not
    // the system temporary directory; the relative path also keeps socket
    // paths short.
    let tmp = std::path::Path::new(".bench_tmp");
    if let Err(e) = std::fs::create_dir_all(tmp) {
        eprintln!("kmmbench: creating {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    std::env::set_var("TMPDIR", tmp);
    let report = run(&args);
    print!("{}", report.render());
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = Args::parse(&argv(
            "--workload dyn-churn --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "dyn-churn".into(),
                seed: 7,
                seconds: 20.0,
                trace: true
            }
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload mst-wire --seed x --seconds 1 --trace 0",
            "--workload mst-wire --seed 1 --seconds 0 --trace 0",
            "--workload mst-wire --seed 1 --seconds 1 --trace 2",
            "--workload mst-wire --seed 1 --seconds 1",
            "--workload mst-wire --seed 1 --seconds 1 --trace 0 --extra",
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// The declared metric lists and `BENCHMARK.json` name the same metrics.
    #[test]
    fn metric_lists_match_the_benchmark_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let declared: Vec<(&str, &str)> = END_TO_END_METRICS
            .iter()
            .chain(layers::LAYER_METRICS.iter())
            .copied()
            .collect();
        for (name, unit) in &declared {
            assert!(report::valid_name(name), "{name}");
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(
                text.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        for w in WORKLOADS {
            let entry = format!("\"name\": \"{w}\",\n      \"why\"");
            assert!(
                text.contains(&entry),
                "workload {w} missing from BENCHMARK.json"
            );
        }
        let names = text.matches("\"name\": ").count();
        assert_eq!(
            names,
            declared.len() + WORKLOADS.len(),
            "no unknown workload or metric"
        );
    }
}
