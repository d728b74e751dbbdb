//! Regenerates every table and figure of the SafeLight paper.
//!
//! ```text
//! repro [--quick|--full] [--model cnn1|resnet18|vgg16|all] [--out-dir DIR]
//!       [--vectors LIST] [--selections LIST] [--json]
//!       [--backend fast|optical|quantized[:WBITS[:RBITS]]]
//!       [--rate R|inf] [--arrival closed|poisson:R|bursty:R[:B]]
//!       [--slo SPEC] [--profile] [--quiet] [--verbose]
//!       [--table1] [--fig6] [--fig7] [--fig8] [--fig9] [--detection]
//!       [--serve] [--chaos] [--ablation] [--all]
//! ```
//!
//! Each artifact prints the same rows/series the paper reports; the Fig. 6
//! heatmap is additionally written as CSV/PGM files under `--out-dir`.
//!
//! `--vectors` widens the Fig. 7 threat model beyond the paper's pair:
//! a comma-separated list of `actuation`, `hotspot`, `laser[:LOSS_DB]`,
//! `trim[:DETUNE_REL]`, `stacked` (actuation+hotspot in one scenario) or
//! `extended` (all of the above). `--selections` sweeps trojan-placement
//! strategies: `uniform`, `clustered`, `targeted` or `all`.
//!
//! `--backend` selects which datapath evaluates every scenario: the fast
//! analytic path (default), the slow device-level optical simulation, or
//! the finite-bit-depth quantized converter model — the same grid runs
//! against any of them unchanged.
//!
//! `--detection` runs the runtime trojan-detection evaluation (ROC,
//! latency, per-vector detectability) over the same vectors/selections
//! grid. `--serve` runs the secure serving-runtime evaluation: every
//! scenario replayed as a request stream with mid-stream compromise
//! against the closed-loop fleet (detect → quarantine/remap → failover)
//! and a no-response baseline. `--rate R` (or the more general
//! `--arrival MODEL`) replays the serving and chaos streams open-loop
//! through the request plane at a finite arrival rate (requests per
//! virtual tick), reporting per-scenario p50/p99/p999 service latency,
//! sustained throughput and shed rate; at a finite rate `--serve` also
//! runs the throughput-vs-p99 rate sweep and writes
//! `serving_<model>_sweep.csv`. `--chaos` runs the chaos evaluation grid
//! (benign faults alone, trojans alone, fault+trojan overlap) against the
//! fault-tolerant runtime and reports the spurious-quarantine rate,
//! trojan TPR under fault discrimination and crash-recovery latency.
//! `--json` writes machine-readable `.json` results next to every CSV, so
//! downstream tooling doesn't scrape tables.
//!
//! `--profile` turns on the `safelight-obs` observability plane for the
//! `--serve`/`--chaos` evaluations: the committed (deterministic) audit
//! trace, the wall-clock profile sidecar and the metrics snapshot are
//! written next to the report artifacts, and a per-phase timing table is
//! printed at the end of the run. `--slo SPEC` attaches a service-level
//! objective to those evaluations (`default`, or comma-separated
//! overrides like `avail=0.9,p99=16,p999=32,shed=0.05,spurious=0`):
//! every serving/chaos row gains SLO verdict columns, the virtual-time
//! alert rules are evaluated over the metric streams (firings land in
//! the audit trace and metrics snapshot), and incident forensics
//! reconstructs one report per injected fault/attack, written as
//! `<stem>_incidents.txt`/`.json`. `--quiet` suppresses progress chatter
//! (result tables still print); `--verbose` adds debug detail. See
//! `docs/observability.md`.

use std::path::PathBuf;

use safelight::defense::noise_ablation_variants;
use safelight::experiment::{
    run_detection_experiment, run_fig6, run_fig7, run_fig8, run_fig9_from, workbench,
    ExperimentOptions, Fidelity, ModelWorkbench,
};
use safelight::models::{table1, ModelKind};
use safelight::prelude::*;
use safelight_obs::{
    debug, error, info, profile_phases, profile_reset, render_table, result, set_max_level,
    set_profile_enabled, Level, SloSpec,
};
use safelight_onn::{BackendKind, BlockKind};
use safelight_serve::{
    chaos_grid, run_chaos_observed, run_rate_sweep, run_serving_observed, ArrivalModel,
    ObsArtifacts, ServingOptions,
};

struct Args {
    fidelity: Fidelity,
    models: Vec<ModelKind>,
    out_dir: PathBuf,
    vectors: Vec<Vec<VectorSpec>>,
    selections: Vec<Selection>,
    backend: BackendKind,
    arrival: ArrivalModel,
    slo: Option<SloSpec>,
    json: bool,
    profile: bool,
    table1: bool,
    fig6: bool,
    fig7: bool,
    fig8: bool,
    fig9: bool,
    detection: bool,
    serve: bool,
    chaos: bool,
    ablation: bool,
}

fn parse_vectors(list: &str) -> Result<Vec<Vec<VectorSpec>>, String> {
    let mut stacks = Vec::new();
    for token in list.split(',') {
        match token {
            "stacked" => stacks.push(safelight::attack::stacked_pair()),
            "extended" => stacks.extend(safelight::attack::extended_stacks()),
            single => stacks.push(vec![single
                .parse::<VectorSpec>()
                .map_err(|e| e.to_string())?]),
        }
    }
    Ok(stacks)
}

fn parse_selections(list: &str) -> Result<Vec<Selection>, String> {
    if list == "all" {
        return Ok(Selection::all().to_vec());
    }
    list.split(',')
        .map(|token| token.parse::<Selection>().map_err(|e| e.to_string()))
        .collect()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        fidelity: Fidelity::Quick,
        models: ModelKind::all().to_vec(),
        out_dir: PathBuf::from("target/safelight-artifacts"),
        vectors: VectorSpec::paper_pair().map(|v| vec![v]).into(),
        selections: vec![Selection::Uniform],
        backend: BackendKind::Fast,
        arrival: ArrivalModel::Closed,
        slo: None,
        json: false,
        profile: false,
        table1: false,
        fig6: false,
        fig7: false,
        fig8: false,
        fig9: false,
        detection: false,
        serve: false,
        chaos: false,
        ablation: false,
    };
    let mut any = false;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => args.fidelity = Fidelity::Quick,
            "--full" => args.fidelity = Fidelity::Full,
            "--model" => {
                let value = iter.next().ok_or("--model needs a value")?;
                args.models = match value.as_str() {
                    "cnn1" => vec![ModelKind::Cnn1],
                    "resnet18" => vec![ModelKind::ResNet18s],
                    "vgg16" => vec![ModelKind::Vgg16s],
                    "all" => ModelKind::all().to_vec(),
                    other => return Err(format!("unknown model `{other}`")),
                };
            }
            "--vectors" => {
                args.vectors = parse_vectors(&iter.next().ok_or("--vectors needs a value")?)?;
            }
            "--selections" => {
                args.selections =
                    parse_selections(&iter.next().ok_or("--selections needs a value")?)?;
            }
            "--backend" => {
                args.backend = iter.next().ok_or("--backend needs a value")?.parse()?;
            }
            "--rate" => {
                let value = iter.next().ok_or("--rate needs a value")?;
                args.arrival = match value.as_str() {
                    "inf" | "infinite" | "closed" => ArrivalModel::Closed,
                    rate => ArrivalModel::Poisson {
                        rate: rate
                            .parse::<f64>()
                            .map_err(|_| format!("bad --rate `{rate}`"))?,
                    },
                };
            }
            "--arrival" => {
                args.arrival = iter.next().ok_or("--arrival needs a value")?.parse()?;
            }
            "--slo" => {
                args.slo = Some(iter.next().ok_or("--slo needs a value")?.parse()?);
            }
            "--out-dir" => {
                args.out_dir = PathBuf::from(iter.next().ok_or("--out-dir needs a value")?);
            }
            "--table1" => {
                args.table1 = true;
                any = true;
            }
            "--fig6" => {
                args.fig6 = true;
                any = true;
            }
            "--fig7" => {
                args.fig7 = true;
                any = true;
            }
            "--fig8" => {
                args.fig8 = true;
                any = true;
            }
            "--fig9" => {
                args.fig9 = true;
                any = true;
            }
            "--detection" => {
                args.detection = true;
                any = true;
            }
            "--serve" => {
                args.serve = true;
                any = true;
            }
            "--chaos" => {
                args.chaos = true;
                any = true;
            }
            "--json" => args.json = true,
            "--profile" => args.profile = true,
            "--quiet" => set_max_level(Level::Warn),
            "--verbose" => set_max_level(Level::Debug),
            "--ablation" => {
                args.ablation = true;
                any = true;
            }
            "--all" => {
                args.table1 = true;
                args.fig6 = true;
                args.fig7 = true;
                args.fig8 = true;
                args.fig9 = true;
                args.detection = true;
                args.serve = true;
                args.chaos = true;
                args.ablation = true;
                any = true;
            }
            "--help" | "-h" => {
                result!(
                    "usage: repro [--quick|--full] [--model cnn1|resnet18|vgg16|all] \
                     [--out-dir DIR] [--vectors actuation,hotspot,laser[:DB],trim[:REL],\
                     stacked|extended] [--selections uniform,clustered,targeted|all] \
                     [--backend fast|optical|quantized[:WBITS[:RBITS]]] \
                     [--rate R|inf] [--arrival closed|poisson:R|bursty:R[:B]] \
                     [--slo default|avail=A,p99=T,p999=T,shed=S,spurious=N] \
                     [--json] [--profile] [--quiet] [--verbose] \
                     [--table1] [--fig6] [--fig7] [--fig8] [--fig9] \
                     [--detection] [--serve] [--chaos] [--ablation] [--all]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !any {
        args.table1 = true;
        args.fig6 = true;
        args.fig7 = true;
    }
    Ok(args)
}

fn pct(x: f64) -> String {
    format!("{:6.2}%", x * 100.0)
}

/// Writes `stem.csv` (and, when `json` is given, `stem.json`) under
/// `out_dir`, reporting the paths on stdout.
fn write_artifact(out_dir: &std::path::Path, stem: &str, csv: &str, json: Option<String>) {
    std::fs::create_dir_all(out_dir).ok();
    let csv_path = out_dir.join(format!("{stem}.csv"));
    std::fs::write(&csv_path, csv).ok();
    match json {
        Some(body) => {
            let json_path = out_dir.join(format!("{stem}.json"));
            std::fs::write(&json_path, body).ok();
            result!(
                "series written to {} and {}",
                csv_path.display(),
                json_path.display()
            );
        }
        None => result!("series written to {}", csv_path.display()),
    }
}

/// Writes the observability artifacts of a `--profile`/`--slo` run under
/// `out_dir`: the committed (deterministic) trace, the wall-clock profile
/// sidecar, the metrics snapshot in Prometheus/CSV (and, with `--json`,
/// JSON) renderings, and — when an SLO judged the run — the incident
/// forensics reports.
fn write_obs_artifacts(out_dir: &std::path::Path, stem: &str, obs: &ObsArtifacts, json: bool) {
    std::fs::create_dir_all(out_dir).ok();
    let write = |suffix: &str, body: &str| {
        let path = out_dir.join(format!("{stem}{suffix}"));
        std::fs::write(&path, body).ok();
        debug!("wrote {} ({} bytes)", path.display(), body.len());
        path
    };
    let trace = write("_trace.txt", &obs.trace);
    write("_profile.txt", &obs.profile);
    let prom = write("_metrics.prom", &obs.metrics.prometheus());
    write("_metrics.csv", &obs.metrics.csv());
    if json {
        write("_metrics.json", &obs.metrics.json());
    }
    result!(
        "observability artifacts written to {} and {}",
        trace.display(),
        prom.display()
    );
    if !obs.incidents.is_empty() {
        let txt = write(
            "_incidents.txt",
            &safelight_serve::incidents_txt(&obs.incidents),
        );
        if json {
            write(
                "_incidents.json",
                &safelight_serve::incidents_json(&obs.incidents),
            );
        }
        let matched = obs.incidents.iter().filter(|i| i.root_cause_match).count();
        result!(
            "incident forensics: {} incident(s), {} root-cause matched, written to {}",
            obs.incidents.len(),
            matched,
            txt.display()
        );
    }
}

/// Prints the per-row SLO verdict table shared by `--serve` and `--chaos`
/// (`rows` pairs a row label with its verdict, if any).
fn print_slo_verdicts<'a>(
    rows: impl Iterator<Item = (String, Option<&'a safelight_obs::SloVerdict>)>,
) {
    result!(
        "\nSLO verdicts:\n{:<44} {:>5} {:>12} {:<40}",
        "row",
        "pass",
        "burn",
        "violations"
    );
    for (label, verdict) in rows {
        let Some(v) = verdict else { continue };
        result!(
            "{:<44} {:>5} {:>12.3} {:<40}",
            label,
            if v.pass { "ok" } else { "FAIL" },
            v.budget_burn,
            if v.violated.is_empty() {
                "none".to_string()
            } else {
                v.violated.join("+")
            }
        );
    }
}

fn print_table1() -> Result<(), SafelightError> {
    result!("\n=== Table I: CNN model parameters (paper → this reproduction) ===");
    result!(
        "{:<10} {:<26} {:>12} {:>22} {:>10} {:>26} {:>26}",
        "Model",
        "Dataset",
        "CONV layers",
        "CONV params",
        "FC layers",
        "FC params",
        "Total"
    );
    for row in table1()? {
        result!(
            "{:<10} {:<26} {:>12} {:>22} {:>10} {:>26} {:>26}",
            row.model,
            format!("{} → {}", row.dataset.0, row.dataset.1),
            format!("{} → {}", row.conv_layers.0, row.conv_layers.1),
            format!("{} → {}", row.conv_params.0, row.conv_params.1),
            format!("{} → {}", row.fc_layers.0, row.fc_layers.1),
            format!("{} → {}", row.fc_params.0, row.fc_params.1),
            format!("{} → {}", row.total_params.0, row.total_params.1),
        );
    }
    Ok(())
}

fn print_fig6(opts: &ExperimentOptions, out_dir: &std::path::Path) -> Result<(), SafelightError> {
    result!("\n=== Fig. 6: CONV-block heatmap under hotspot attacks ===");
    let artifact = run_fig6(opts)?;
    result!("attacked banks: {:?}", artifact.attacked_banks);
    result!("peak ΔT: {:.1} K", artifact.peak_delta_kelvin);
    result!(
        "mean ΔT across non-attacked banks (spill-over): {:.2} K",
        artifact.neighbour_mean_delta_kelvin
    );
    std::fs::create_dir_all(out_dir).ok();
    let csv = out_dir.join("fig6_heatmap.csv");
    let pgm = out_dir.join("fig6_heatmap.pgm");
    std::fs::write(&csv, artifact.heatmap.to_csv()).ok();
    std::fs::write(&pgm, artifact.heatmap.to_pgm()).ok();
    result!("heatmap written to {} and {}", csv.display(), pgm.display());
    result!("{}", artifact.heatmap.to_ascii());
    Ok(())
}

fn print_fig7(
    bench: &ModelWorkbench,
    opts: &ExperimentOptions,
    out_dir: &std::path::Path,
    json: bool,
) -> Result<(), SafelightError> {
    let kind = bench.kind;
    result!("\n=== Fig. 7 ({kind}): susceptibility to actuation & hotspot attacks ===");
    let report = run_fig7(bench, opts)?;
    result!(
        "baseline (clean accelerator) accuracy: {}   [CONV rounds: {}, FC rounds: {}]",
        pct(report.baseline),
        bench.mapping.rounds(BlockKind::Conv),
        bench.mapping.rounds(BlockKind::Fc),
    );
    result!(
        "{:<20} {:<10} {:<8} {:>6} {:>6} {:>10} {:>10} {:>10}",
        "vector",
        "selection",
        "target",
        "pct",
        "eff%",
        "min",
        "mean",
        "max"
    );
    // Group trials by scenario cell in input order — the grid may carry
    // any mix of vectors, stacks and selection strategies.
    type CellKey = (String, String, String, u64);
    let mut cells: Vec<(CellKey, Vec<&safelight::eval::TrialResult>)> = Vec::new();
    for trial in &report.trials {
        let key = (
            trial.scenario.vector_label(),
            trial.scenario.selection.to_string(),
            trial.scenario.target.to_string(),
            (trial.scenario.fraction * 1e9).round() as u64,
        );
        match cells.iter_mut().find(|(k, _)| *k == key) {
            Some((_, trials)) => trials.push(trial),
            None => cells.push((key, vec![trial])),
        }
    }
    for ((vector, selection, target, _), trials) in &cells {
        let accs: Vec<f64> = trials.iter().map(|t| t.accuracy).collect();
        let min = accs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = accs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mean = accs.iter().sum::<f64>() / accs.len() as f64;
        let effective =
            trials.iter().map(|t| t.effective_fraction).sum::<f64>() / trials.len() as f64;
        result!(
            "{:<20} {:<10} {:<8} {:>5.0}% {:>5.1}% {:>10} {:>10} {:>10}",
            vector,
            selection,
            target,
            trials[0].scenario.fraction * 100.0,
            effective * 100.0,
            pct(min),
            pct(mean),
            pct(max)
        );
    }
    // The paper quotes one operating point per model: uniform hotspot
    // trojans on 10% of the CONV+FC rings.
    let paper = match kind {
        ModelKind::Cnn1 => "7.49%",
        ModelKind::ResNet18s => "26.4%",
        ModelKind::Vgg16s => "80.46%",
    };
    let point = report.filtered(|s| {
        s.vectors == [VectorSpec::Hotspot]
            && s.selection == Selection::Uniform
            && s.target == AttackTarget::Both
            && (s.fraction - 0.10).abs() < 1e-12
    });
    let ours = if point.is_empty() {
        "— (not on this grid)".to_string()
    } else {
        let mean = point.iter().map(|t| t.accuracy).sum::<f64>() / point.len() as f64;
        let drop = (report.baseline - mean) * 100.0;
        format!("{drop:.2}% (mean of {} trials)", point.len())
    };
    result!("drop at 10% hotspot CONV+FC: {ours}   paper: {paper}");
    let worst = report
        .trials
        .iter()
        .min_by(|a, b| a.accuracy.total_cmp(&b.accuracy));
    if let Some(worst) = worst {
        result!(
            "worst-case drop on the grid: {:.2}% at {}",
            report.worst_drop() * 100.0,
            worst.scenario.to_spec_string()
        );
    }
    write_artifact(
        out_dir,
        &format!("fig7_{}", kind.label().to_lowercase()),
        &safelight::eval::susceptibility_csv(&report),
        json.then(|| safelight::eval::susceptibility_json(&report)),
    );
    Ok(())
}

fn print_fig8(
    bench: &ModelWorkbench,
    opts: &ExperimentOptions,
    out_dir: &std::path::Path,
    json: bool,
) -> Result<safelight::experiment::Fig8Run, SafelightError> {
    let kind = bench.kind;
    result!("\n=== Fig. 8 ({kind}): robustness of mitigation-trained variants ===");
    let fig8 = run_fig8(bench, opts)?;
    let report = &fig8.report;
    result!(
        "{:<10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "variant",
        "baseline",
        "min",
        "q1",
        "median",
        "q3",
        "max"
    );
    for o in &report.outcomes {
        result!(
            "{:<10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            o.variant.label(),
            pct(o.baseline),
            pct(o.stats.min),
            pct(o.stats.q1),
            pct(o.stats.median),
            pct(o.stats.q3),
            pct(o.stats.max)
        );
    }
    if let Some(best) = report.most_robust() {
        result!(
            "most robust variant: {} (paper found l2+n3 / l2+n5 / l2+n2 for its three models)",
            best.variant.label()
        );
    }
    write_artifact(
        out_dir,
        &format!("fig8_{}", kind.label().to_lowercase()),
        &safelight::eval::mitigation_csv(report),
        json.then(|| safelight::eval::mitigation_json(report)),
    );
    Ok(fig8)
}

fn print_fig9(
    bench: &ModelWorkbench,
    opts: &ExperimentOptions,
    out_dir: &std::path::Path,
    json: bool,
    fig8: Option<safelight::experiment::Fig8Run>,
) -> Result<(), SafelightError> {
    let kind = bench.kind;
    result!("\n=== Fig. 9 ({kind}): robust vs original under CONV+FC attacks ===");
    // Fig. 9 needs Fig. 8's winner; reuse the run `--fig8` just produced
    // (the whole point of `Fig8Run`) and compute it only when Fig. 9 runs
    // alone.
    let fig8 = match fig8 {
        Some(fig8) => fig8,
        None => run_fig8(bench, opts)?,
    };
    let (best, report) = run_fig9_from(bench, &fig8, opts)?;
    result!(
        "robust variant: {}   original baseline {}   robust baseline {}",
        best.label(),
        pct(report.original_baseline),
        pct(report.robust_baseline)
    );
    result!(
        "{:<10} {:>6} {:>30} {:>30} {:>10}",
        "vector",
        "pct",
        "original (min/mean/max)",
        "robust (min/mean/max)",
        "recovery"
    );
    for i in &report.intervals {
        result!(
            "{:<10} {:>5.0}% {:>30} {:>30} {:>10}",
            i.vector.to_string(),
            i.fraction * 100.0,
            format!(
                "{} / {} / {}",
                pct(i.original.0),
                pct(i.original.1),
                pct(i.original.2)
            ),
            format!(
                "{} / {} / {}",
                pct(i.robust.0),
                pct(i.robust.1),
                pct(i.robust.2)
            ),
            pct(i.worst_case_recovery())
        );
    }
    write_artifact(
        out_dir,
        &format!("fig9_{}", kind.label().to_lowercase()),
        &safelight::eval::recovery_csv(&report),
        json.then(|| safelight::eval::recovery_json(&report)),
    );
    Ok(())
}

fn print_detection(
    bench: &ModelWorkbench,
    opts: &ExperimentOptions,
    out_dir: &std::path::Path,
    json: bool,
) -> Result<(), SafelightError> {
    let kind = bench.kind;
    result!("\n=== Detection ({kind}): runtime trojan detection over the scenario grid ===");
    let report = run_detection_experiment(bench, opts)?;
    result!("{:<12} {:>12} {:>10}", "detector", "threshold", "cal. FPR");
    for op in &report.operating {
        result!(
            "{:<12} {:>12.4} {:>10}",
            op.detector,
            op.threshold,
            pct(op.fpr)
        );
    }
    result!(
        "\n{:<12} {:<20} {:<10} {:<8} {:>5} {:>8} {:>8} {:>10}",
        "detector",
        "vector",
        "selection",
        "target",
        "pct",
        "TPR",
        "AUC",
        "latency"
    );
    for c in &report.cells {
        result!(
            "{:<12} {:<20} {:<10} {:<8} {:>4.0}% {:>8} {:>8.3} {:>10}",
            c.detector,
            c.vector,
            c.selection,
            c.target,
            c.fraction * 100.0,
            pct(c.tpr),
            c.auc,
            if c.mean_latency_frames.is_finite() {
                format!("{:.1} fr", c.mean_latency_frames)
            } else {
                "—".into()
            }
        );
    }
    let stem = format!("detection_{}", kind.label().to_lowercase());
    write_artifact(
        out_dir,
        &format!("{stem}_roc"),
        &safelight::eval::detection_roc_csv(&report),
        None,
    );
    write_artifact(
        out_dir,
        &format!("{stem}_summary"),
        &safelight::eval::detection_summary_csv(&report),
        json.then(|| safelight::eval::detection_json(&report)),
    );
    Ok(())
}

fn print_serve(
    bench: &ModelWorkbench,
    opts: &ExperimentOptions,
    out_dir: &std::path::Path,
    json: bool,
    arrival: ArrivalModel,
    profile: bool,
    slo: Option<SloSpec>,
) -> Result<(), SafelightError> {
    let kind = bench.kind;
    result!("\n=== Serving ({kind}): closed-loop secure serving runtime ===");
    // One trial per scenario cell: the serving loop replays each scenario
    // against a full request stream already.
    let serving_opts = ServingOptions {
        arrival,
        slo,
        ..ServingOptions::for_fidelity(opts.fidelity)
    };
    let (report, obs) = run_serving_observed(
        &bench.original,
        &bench.mapping,
        bench.backend.as_ref(),
        &bench.data.test,
        &opts.fig7_grid(1),
        &safelight::detect::default_detectors(),
        &serving_opts,
        opts.seed,
        opts.threads,
        profile || slo.is_some(),
    )?;
    result!(
        "clean fleet accuracy: {}   [fleet {} × batch {} × {} batches, onset at {}, \
         arrival {}]",
        pct(report.clean_accuracy),
        report.fleet_size,
        report.batch_size,
        report.batches,
        report.onset_batch,
        report.arrival
    );
    for (name, threshold) in report.detectors.iter().zip(&report.thresholds) {
        result!("operating threshold {name:<12} {threshold:.4}");
    }
    result!(
        "\n{:<20} {:<10} {:<8} {:>5} {:>9} {:>9} {:>9} {:>9} {:>7} {:>7} {:<16} {:>6}",
        "vector",
        "selection",
        "target",
        "pct",
        "degraded",
        "recovered",
        "baseline",
        "detect",
        "recov",
        "avail",
        "action",
        "remap"
    );
    for r in &report.rows {
        let latency = |x: f64| {
            if x.is_finite() {
                format!("{x:.0} b")
            } else {
                "—".into()
            }
        };
        let acc = |x: f64| {
            if x.is_finite() {
                pct(x)
            } else {
                "     —".into()
            }
        };
        result!(
            "{:<20} {:<10} {:<8} {:>4.0}% {:>9} {:>9} {:>9} {:>9} {:>7} {:>6.1}% {:<16} {:>6}",
            r.scenario.vector_label(),
            r.scenario.selection,
            r.scenario.target,
            r.scenario.fraction * 100.0,
            acc(r.degraded_accuracy),
            acc(r.recovered_accuracy),
            acc(r.baseline_post_accuracy),
            latency(r.detection_latency_batches),
            latency(r.recovery_latency_batches),
            r.availability * 100.0,
            r.action,
            r.remapped_rings
        );
    }
    result!(
        "\nrequest-plane service latency (virtual ticks) per scenario:\n\
         {:<20} {:<10} {:>5} {:>8} {:>8} {:>8} {:>10} {:>7}",
        "vector",
        "selection",
        "pct",
        "p50",
        "p99",
        "p999",
        "thpt/tick",
        "shed"
    );
    for r in &report.rows {
        result!(
            "{:<20} {:<10} {:>4.0}% {:>8.1} {:>8.1} {:>8.1} {:>10.2} {:>6.1}%",
            r.scenario.vector_label(),
            r.scenario.selection,
            r.scenario.fraction * 100.0,
            r.p50_latency,
            r.p99_latency,
            r.p999_latency,
            r.throughput,
            r.shed_rate * 100.0
        );
    }
    if report.rows.iter().any(|r| r.slo.is_some()) {
        print_slo_verdicts(report.rows.iter().map(|r| {
            (
                format!(
                    "{} {} {:.0}%",
                    r.scenario.vector_label(),
                    r.scenario.selection,
                    r.scenario.fraction * 100.0
                ),
                r.slo.as_ref(),
            )
        }));
    }
    write_artifact(
        out_dir,
        &format!("serving_{}", kind.label().to_lowercase()),
        &safelight_serve::report::serving_csv(&report),
        json.then(|| safelight_serve::report::serving_json(&report)),
    );
    if let Some(obs) = &obs {
        write_obs_artifacts(
            out_dir,
            &format!("serving_{}", kind.label().to_lowercase()),
            obs,
            json,
        );
    }
    // At a finite arrival rate, also sweep offered rates around the
    // fleet's per-tick drain capacity and locate the saturation point.
    let rate = report.arrival.rate();
    if rate.is_finite() {
        let capacity = (report.fleet_size * report.batch_size) as f64;
        let mut rates = vec![0.25 * capacity, 0.5 * capacity, 0.75 * capacity, rate];
        rates.sort_by(f64::total_cmp);
        rates.dedup();
        let sweep = run_rate_sweep(
            &bench.original,
            &bench.mapping,
            bench.backend.as_ref(),
            &bench.data.test,
            &safelight::detect::default_detectors(),
            &ServingOptions::for_fidelity(opts.fidelity),
            &rates,
            opts.seed,
            opts.threads,
        )?;
        result!(
            "\nthroughput-vs-p99 sweep (clean fleet, saturation at rate {}):",
            if sweep.saturation_rate.is_finite() {
                format!("{}", sweep.saturation_rate)
            } else {
                "— (all swept rates saturate)".into()
            }
        );
        result!(
            "{:>8} {:>8} {:>8} {:>10} {:>8} {:>8} {:>8}",
            "rate",
            "offered",
            "served",
            "thpt/tick",
            "p50",
            "p99",
            "shed"
        );
        for p in &sweep.rows {
            result!(
                "{:>8.2} {:>8} {:>8} {:>10.2} {:>8.1} {:>8.1} {:>7.1}%",
                p.rate,
                p.offered,
                p.served,
                p.throughput,
                p.p50_latency,
                p.p99_latency,
                p.shed_rate * 100.0
            );
        }
        write_artifact(
            out_dir,
            &format!("serving_{}_sweep", kind.label().to_lowercase()),
            &safelight_serve::report::rate_sweep_csv(&sweep),
            json.then(|| safelight_serve::report::rate_sweep_json(&sweep)),
        );
    }
    Ok(())
}

fn print_chaos(
    bench: &ModelWorkbench,
    opts: &ExperimentOptions,
    out_dir: &std::path::Path,
    json: bool,
    arrival: ArrivalModel,
    profile: bool,
    slo: Option<SloSpec>,
) -> Result<(), SafelightError> {
    let kind = bench.kind;
    result!("\n=== Chaos ({kind}): benign faults vs trojans on the fault-tolerant runtime ===");
    let serving_opts = ServingOptions {
        arrival,
        slo,
        ..ServingOptions::for_fidelity(opts.fidelity)
    };
    let (report, obs) = run_chaos_observed(
        &bench.original,
        &bench.mapping,
        bench.backend.as_ref(),
        &bench.data.test,
        &chaos_grid(serving_opts.onset_batch),
        &safelight::detect::default_detectors(),
        &serving_opts,
        opts.seed,
        opts.threads,
        profile || slo.is_some(),
    )?;
    result!(
        "clean fleet accuracy: {}   [fleet {} × batch {} × {} batches, trojan onset at {}, \
         arrival {}]",
        pct(report.clean_accuracy),
        report.fleet_size,
        report.batch_size,
        report.batches,
        report.onset_batch,
        report.arrival
    );
    result!(
        "spurious-quarantine rate: {}   trojan TPR: {}   overlap missed: {}   mean crash recovery: {}",
        pct(report.spurious_quarantine_rate),
        pct(report.trojan_tpr),
        pct(report.overlap_missed_rate),
        if report.mean_crash_recovery_batches.is_finite() {
            format!("{:.1} b", report.mean_crash_recovery_batches)
        } else {
            "—".into()
        }
    );
    result!(
        "\n{:<8} {:<34} {:<30} {:>6} {:>8} {:>6} {:>7} {:>9} {:>7} {:>7} {:>6} {:<24}",
        "kind",
        "fault",
        "scenario",
        "trojan",
        "spurious",
        "maint",
        "crash",
        "post_acc",
        "avail",
        "p99",
        "shed",
        "action"
    );
    for r in &report.rows {
        let acc = |x: f64| {
            if x.is_finite() {
                pct(x)
            } else {
                "     —".into()
            }
        };
        result!(
            "{:<8} {:<34} {:<30} {:>6} {:>8} {:>6} {:>7} {:>9} {:>6.1}% {:>7.1} {:>5.1}% {:<24}",
            r.kind,
            if r.fault.is_empty() { "—" } else { &r.fault },
            if r.scenario.is_empty() {
                "—"
            } else {
                &r.scenario
            },
            if r.trojan_detected { "yes" } else { "no" },
            if r.spurious_quarantine { "YES" } else { "no" },
            r.maintenance_events,
            if r.crash_recovery_batches.is_finite() {
                format!("{:.0} b", r.crash_recovery_batches)
            } else {
                "—".into()
            },
            acc(r.post_accuracy),
            r.availability * 100.0,
            r.p99_latency,
            r.shed_rate * 100.0,
            r.action
        );
    }
    if report.rows.iter().any(|r| r.slo.is_some()) {
        print_slo_verdicts(report.rows.iter().map(|r| {
            (
                format!(
                    "{} {}",
                    r.kind,
                    if r.fault.is_empty() {
                        &r.scenario
                    } else {
                        &r.fault
                    }
                ),
                r.slo.as_ref(),
            )
        }));
    }
    write_artifact(
        out_dir,
        &format!("chaos_{}", kind.label().to_lowercase()),
        &safelight_serve::report::chaos_csv(&report),
        json.then(|| safelight_serve::report::chaos_json(&report)),
    );
    if let Some(obs) = &obs {
        write_obs_artifacts(
            out_dir,
            &format!("chaos_{}", kind.label().to_lowercase()),
            obs,
            json,
        );
    }
    Ok(())
}

fn print_ablation(bench: &ModelWorkbench, opts: &ExperimentOptions) -> Result<(), SafelightError> {
    let kind = bench.kind;
    result!("\n=== Ablation ({kind}): noise-aware training without L2 ===");
    let recipe = opts.recipe(kind);
    let mut variants = vec![(VariantKind::Original, bench.original.clone())];
    for variant in noise_ablation_variants().into_iter().step_by(2) {
        let network = train_variant(
            kind,
            variant,
            &bench.data,
            &recipe,
            opts.cache_dir.as_deref(),
        )?;
        variants.push((variant, network));
    }
    let scenarios = scenario_grid(&[0.05], opts.fig8_trials());
    let report = run_mitigation(
        &variants,
        &bench.mapping,
        bench.backend.as_ref(),
        &bench.data.test,
        &scenarios,
        opts.seed,
        opts.threads,
    )?;
    result!(
        "{:<10} {:>10} {:>26}",
        "variant",
        "baseline",
        "median under 5% attacks"
    );
    for o in &report.outcomes {
        result!(
            "{:<10} {:>10} {:>26}",
            o.variant.label(),
            pct(o.baseline),
            pct(o.stats.median)
        );
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            error!("{e}");
            std::process::exit(2);
        }
    };
    let opts = ExperimentOptions {
        fidelity: args.fidelity,
        vectors: args.vectors.clone(),
        selections: args.selections.clone(),
        backend: args.backend,
        ..ExperimentOptions::default()
    };
    if args.profile {
        set_profile_enabled(true);
        profile_reset();
    }
    info!("datapath backend: {}", args.backend);
    debug!(
        "fidelity {:?}, {} model(s), arrival {}, out-dir {}",
        args.fidelity,
        args.models.len(),
        args.arrival,
        args.out_dir.display()
    );
    let started = std::time::Instant::now();

    let run = || -> Result<(), SafelightError> {
        if args.table1 {
            print_table1()?;
        }
        if args.fig6 {
            print_fig6(&opts, &args.out_dir)?;
        }
        let per_model = args.fig7
            || args.fig8
            || args.fig9
            || args.detection
            || args.serve
            || args.chaos
            || args.ablation;
        if !per_model {
            return Ok(());
        }
        for &kind in &args.models {
            // One workbench per model: every experiment below reads the
            // same data, mapping, trained network and backend.
            let bench = workbench(kind, &opts)?;
            if args.fig7 {
                print_fig7(&bench, &opts, &args.out_dir, args.json)?;
            }
            let fig8 = if args.fig8 {
                Some(print_fig8(&bench, &opts, &args.out_dir, args.json)?)
            } else {
                None
            };
            if args.fig9 {
                print_fig9(&bench, &opts, &args.out_dir, args.json, fig8)?;
            }
            if args.detection {
                print_detection(&bench, &opts, &args.out_dir, args.json)?;
            }
            if args.serve {
                print_serve(
                    &bench,
                    &opts,
                    &args.out_dir,
                    args.json,
                    args.arrival,
                    args.profile,
                    args.slo,
                )?;
            }
            if args.chaos {
                print_chaos(
                    &bench,
                    &opts,
                    &args.out_dir,
                    args.json,
                    args.arrival,
                    args.profile,
                    args.slo,
                )?;
            }
            if args.ablation {
                print_ablation(&bench, &opts)?;
            }
        }
        Ok(())
    };
    if let Err(e) = run() {
        error!("{e}");
        std::process::exit(1);
    }
    if args.profile {
        let phases = profile_phases();
        if phases.is_empty() {
            info!("profiling enabled but no phases recorded");
        } else {
            result!("\n=== Profile: per-phase wall-clock (machine-dependent) ===");
            result!("{}", render_table(&phases).trim_end());
        }
    }
    // Which GEMM/conv kernel classes actually served the run: the dispatch
    // decision tree (docs/perf.md) in observable form. Cheap enough to
    // print unconditionally — it is the ground truth when a perf number
    // looks off ("did the SIMD tier actually engage on this machine?").
    let tier = safelight_neuro::GemmImpl::active();
    info!(
        "gemm tier: {} [{}]; kernels executed: {}",
        tier.name(),
        tier.isa(),
        safelight_neuro::linalg::kernel_stats::report()
    );
    info!("completed in {:.1} s", started.elapsed().as_secs_f64());
}
