//! End-to-end and per-layer benchmark of the SafeLight simulator.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The worker count is the repository's own `SAFELIGHT_THREADS` setting
//! (default: every core), capped at the number of cores.
//!
//! One process runs one workload: it sets the workload up several times
//! (training from scratch each time), runs one cold evaluation pass on the
//! last set-up, then runs warm passes until `--seconds` have passed (at
//! least three, so their median leaves out one disturbed by other load on
//! the host). Every
//! pass checks its reports and digests their committed CSV renderings; the
//! passes of a run must agree byte for byte. With `--trace 0` the run
//! prints the end-to-end metrics. With `--trace 1` it spends half the warm
//! window untraced and half with the program's profiler on, and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod layers;
mod measure;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use measure::{median, Metrics};
use workload::{Pass, Runner, Workload};

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Fewest passes in a timing window, so their median can leave out one
/// disturbed by other load.
const MIN_PASSES: usize = 3;

fn usage() -> String {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload {{{}}} [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 2025u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::find(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        // Never more workers than cores.
        threads: safelight_neuro::parallel::configured_threads().min(nproc),
    })
}

/// The passes of one timing window.
#[derive(Default)]
struct Window {
    seconds: Vec<f64>,
    wall: f64,
    cpu: f64,
    steal: f64,
    passes: Vec<Pass>,
}

/// Runs passes until `seconds` of wall time have passed (at least
/// `MIN_PASSES`).
fn window(runner: &Runner<'_>, seconds: f64, traced: bool) -> Window {
    let mut w = Window::default();
    let cpu0 = measure::cpu_seconds();
    let steal0 = measure::steal_seconds();
    let start = Instant::now();
    while w.passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let pass = runner.pass(traced);
        w.seconds.push(t.elapsed().as_secs_f64());
        w.passes.push(pass);
    }
    w.wall = start.elapsed().as_secs_f64();
    w.cpu = measure::cpu_seconds() - cpu0;
    w.steal = measure::steal_seconds() - steal0;
    w
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let opts = workload::options(args.seed, args.threads);

    // Set-up, several times; the last workbench serves the passes.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut splits = Vec::with_capacity(SETUP_REPS);
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        // Free the previous set-up first, so peak memory is one set-up's.
        drop(bench.take());
        let t = Instant::now();
        let built = if args.trace {
            workload::setup_split(w.model, &opts).map(|(b, split)| {
                splits.push(split);
                b
            })
        } else {
            safelight::experiment::workbench(w.model, &opts)
        };
        bench = Some(built.map_err(|e| format!("set-up failed: {e}"))?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let bench = bench.expect("at least one set-up ran");
    let runner = Runner::new(w, &bench, &opts);
    println!(
        "workload {} seed {} threads {} grid: {}",
        w.name,
        args.seed,
        args.threads,
        runner.grid()
    );

    // The first pass starts with the process's memo tables empty (the
    // hotspot unit-field cache above all), as every `repro` run does; it
    // is timed on its own. A traced run splits it into layers.
    let t = Instant::now();
    let cold = runner.pass(args.trace);
    let cold_s = t.elapsed().as_secs_f64();

    let (plain, traced) = if args.trace {
        let plain = window(&runner, args.seconds / 2.0, false);
        safelight_neuro::linalg::kernel_stats::reset();
        safelight_obs::profile_reset();
        safelight_obs::set_profile_enabled(true);
        let traced = window(&runner, args.seconds / 2.0, true);
        safelight_obs::set_profile_enabled(false);
        (plain, Some(traced))
    } else {
        (window(&runner, args.seconds, false), None)
    };

    let all: Vec<&Pass> = std::iter::once(&cold)
        .chain(&plain.passes)
        .chain(traced.iter().flat_map(|t| &t.passes))
        .collect();
    let digest = cold.digest;
    let consistent = all.iter().all(|p| p.digest == digest);
    let attempted: u64 = all.iter().map(|p| p.attempted).sum();
    let failed: u64 = all.iter().map(|p| p.failed).sum();
    let eval_s = median(&plain.seconds);

    let mut metrics = Metrics::default();
    let names = if let Some(traced) = &traced {
        layers::record(&mut metrics, &splits, &cold, &plain, traced, args.threads);
        layers::names()
    } else {
        metrics.set("setup_s", median(&setup_s));
        metrics.set("cold_pass_s", cold_s);
        metrics.set("eval_s", eval_s);
        metrics.set("inferences_per_s", cold.images as f64 / eval_s);
        metrics.set("peak_rss_mb", measure::peak_rss_mb());
        metrics.set("clean_accuracy", cold.clean_accuracy);
        end_to_end_names()
    };

    println!("digest {}", digest.hex());
    println!(
        "passes 1 cold + {} warm (traced {}), consistent digests: {consistent}",
        plain.passes.len(),
        traced.as_ref().map_or(0, |t| t.passes.len())
    );
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("warm pass seconds: {}", list(&plain.seconds));
    // On a shared host, stolen CPU time is the main source of run-to-run
    // spread; a run with a high share here reads slow.
    println!(
        "host steal during warm window: {:.3} of the machine's CPU time",
        layers::steal_frac(&plain)
    );
    if let Some(traced) = &traced {
        println!("traced pass seconds: {}", list(&traced.seconds));
    }
    println!(
        "error_rate {} ({failed} of {attempted} operations failed)",
        failed as f64 / attempted.max(1) as f64
    );
    for (name, unit) in &names {
        println!("{name} {} {unit}", metrics.get(name).unwrap_or(0.0));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0 && consistent,
        metrics.json(&names)
    );
    Ok(())
}

/// The end-to-end metrics every untraced run prints, in order.
fn end_to_end_names() -> Vec<(String, &'static str)> {
    [
        ("setup_s", "s"),
        ("cold_pass_s", "s"),
        ("eval_s", "s"),
        ("inferences_per_s", "1/s"),
        ("peak_rss_mb", "MiB"),
        ("clean_accuracy", "frac"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_contract() {
        let e2e = end_to_end_names();
        let per_layer = layers::names();
        assert!(!e2e.is_empty() && e2e.len() <= 16);
        assert!(!per_layer.is_empty() && per_layer.len() <= 128);
        let mut all: Vec<&str> = e2e
            .iter()
            .chain(&per_layer)
            .map(|(n, _)| n.as_str())
            .collect();
        for name in &all {
            assert!(measure::valid_name(name), "bad metric name {name}");
        }
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count, "a metric name is used twice");
    }

    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let printed: Vec<(String, &str)> = end_to_end_names()
            .into_iter()
            .chain(layers::names())
            .collect();
        for (name, unit) in &printed {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        // Metric entries follow the "end_to_end" key; each must be printed.
        let (_, metrics) = spec
            .split_once("\"end_to_end\"")
            .expect("BENCHMARK.json has end_to_end");
        let declared: Vec<&str> = metrics
            .split("{\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split_once('"'))
            .map(|(name, _)| name)
            .collect();
        assert_eq!(declared.len(), printed.len(), "declared {declared:?}");
        for name in declared {
            assert!(
                printed.iter().any(|(n, _)| n == name),
                "BENCHMARK.json declares {name}, which no run prints"
            );
        }
        // Workload entries are the names followed by a "why".
        let listed: Vec<&str> = spec
            .split("{\"name\": \"")
            .filter_map(|rest| rest.split_once("\", \"why\""))
            .map(|(name, _)| name)
            .collect();
        assert!(listed.len() >= 2, "BENCHMARK.json lists {listed:?}");
        for name in listed {
            assert!(workload::find(name).is_some(), "unknown workload {name}");
        }
    }
}
