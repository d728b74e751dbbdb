//! The runtime-detection evaluation pipeline: every detector against every
//! attack scenario *and* attack-free runs, producing ROC points, detection
//! latency in frames and per-vector detectability summaries.
//!
//! Methodology (see `docs/detection.md` for the full write-up):
//!
//! 1. the analytic telemetry probe derives the noiseless sensor means of
//!    the clean accelerator and of every injected scenario once;
//! 2. detectors are calibrated on a dedicated attack-free frame stream;
//! 3. `clean_runs` further attack-free runs measure each detector's
//!    false-positive behaviour, `attack_runs` noise-seeded runs per
//!    scenario measure detection — each run plays `onset` clean frames
//!    followed by attacked frames, so sequential detectors are scored on a
//!    realistic mid-stream compromise;
//! 4. the threshold axis is swept over quantiles of the pooled max-score
//!    distribution (ROC), and a fixed operating threshold — the smallest
//!    with calibrated FPR below the target — yields detection latency.
//!
//! Every random draw derives from `(seed, scenario spec, run, batch)` by
//! avalanche mixing, so reports are bitwise independent of the worker
//! thread count.

use safelight_neuro::parallel::par_map;
use safelight_neuro::Network;
use safelight_onn::{
    ConditionMap, InferenceBackend, SentinelPlan, TelemetryFrame, TelemetryProbe, WeightMapping,
};

use crate::attack::{fold, RingSalience, ScenarioSpec};
use crate::detect::Detector;
use crate::eval::susceptibility::{inject_all, needs_salience};
use crate::SafelightError;

/// Calibrated false-positive-rate target of every operating threshold: the
/// detection evaluation's and the serving fleet's.
const FPR_TARGET: f64 = 0.05;

/// The rank k of the operating threshold among `clean_runs` attack-free
/// run maxima sorted descending: the k-th largest keeps the calibrated
/// false-positive rate strictly below the 5 % target.
#[must_use]
pub fn operating_rank(clean_runs: usize) -> usize {
    ((FPR_TARGET * clean_runs as f64).floor() as usize).clamp(1, clean_runs)
}

/// Tuning knobs of the detection evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionOptions {
    /// Frames per evaluation run.
    pub frames: usize,
    /// Frame index at which the attack switches on within a run (frames
    /// before it replay the clean accelerator).
    pub onset: usize,
    /// Attack-free frames the detectors are calibrated on.
    pub calibration_frames: usize,
    /// Attack-free runs measuring false-positive rates.
    pub clean_runs: usize,
    /// Noise-seeded runs per attack scenario.
    pub attack_runs: usize,
    /// Threshold samples on the ROC curve (plus the two degenerate ends).
    pub threshold_points: usize,
    /// Sentinel rings provisioned per block.
    pub sentinels_per_block: usize,
}

impl Default for DetectionOptions {
    fn default() -> Self {
        Self {
            frames: 24,
            onset: 8,
            calibration_frames: 48,
            clean_runs: 40,
            attack_runs: 4,
            threshold_points: 12,
            sentinels_per_block: 32,
        }
    }
}

/// One point of a detector's ROC curve for one scenario cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RocPoint {
    /// Detector name.
    pub detector: String,
    /// Vector-stack label of the cell (e.g. `actuation+hotspot`).
    pub vector: String,
    /// Site-selection label of the cell.
    pub selection: String,
    /// Target label of the cell (CONV/FC/CONV+FC).
    pub target: String,
    /// Nominal attack fraction of the cell.
    pub fraction: f64,
    /// Score threshold this point was computed at.
    pub threshold: f64,
    /// True-positive rate across the cell's attack runs.
    pub tpr: f64,
    /// False-positive rate across the attack-free runs.
    pub fpr: f64,
}

/// A detector's operating point: the fixed threshold used for latency and
/// detectability summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    /// Detector name.
    pub detector: String,
    /// Chosen score threshold.
    pub threshold: f64,
    /// False-positive rate measured at that threshold.
    pub fpr: f64,
}

/// Detectability of one scenario cell by one detector, at the operating
/// threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSummary {
    /// Detector name.
    pub detector: String,
    /// Vector-stack label.
    pub vector: String,
    /// Site-selection label.
    pub selection: String,
    /// Target label.
    pub target: String,
    /// Nominal attack fraction.
    pub fraction: f64,
    /// Attack runs evaluated in the cell (trials × noise seeds).
    pub runs: usize,
    /// Fraction of runs detected at the operating threshold.
    pub tpr: f64,
    /// Area under the cell's ROC curve (trapezoidal).
    pub auc: f64,
    /// Mean frames from attack onset to the first alarm, across detected
    /// runs (`NaN` when nothing was detected).
    pub mean_latency_frames: f64,
    /// Runs in which the detector alarmed at all.
    pub detected_runs: usize,
}

/// The full detection-evaluation report.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionReport {
    /// Detector names, in suite order.
    pub detectors: Vec<String>,
    /// Attack-free runs behind every FPR figure.
    pub clean_runs: usize,
    /// ROC points, ordered by detector, then cell (scenario input order),
    /// then ascending threshold.
    pub roc: Vec<RocPoint>,
    /// The per-detector operating points.
    pub operating: Vec<OperatingPoint>,
    /// Per-cell detectability at the operating threshold, ordered by
    /// detector then cell.
    pub cells: Vec<CellSummary>,
}

impl DetectionReport {
    /// The cell summary of `detector` for the cell containing `spec`.
    #[must_use]
    pub fn cell(&self, detector: &str, spec: &ScenarioSpec) -> Option<&CellSummary> {
        self.cells.iter().find(|c| {
            c.detector == detector
                && c.vector == spec.vector_label()
                && c.selection == spec.selection.to_string()
                && c.target == spec.target.to_string()
                && c.fraction == spec.fraction
        })
    }

    /// The best (highest-TPR) detector summary for the cell containing
    /// `spec`.
    #[must_use]
    pub fn best_for(&self, spec: &ScenarioSpec) -> Option<&CellSummary> {
        self.detectors
            .iter()
            .filter_map(|d| self.cell(d, spec))
            .max_by(|a, b| a.tpr.partial_cmp(&b.tpr).expect("TPRs are finite"))
    }
}

/// Identity of one scenario cell (all trials of one grid point).
type CellKey = (String, String, String, u64);

fn cell_key(spec: &ScenarioSpec) -> CellKey {
    (
        spec.vector_label(),
        spec.selection.to_string(),
        spec.target.to_string(),
        spec.fraction.to_bits(),
    )
}

/// Per-run scores of every detector: `scores[detector][frame]`.
type RunScores = Vec<Vec<f64>>;

/// Plays one run of `frames` through an already-calibrated `suite`:
/// batches `0..onset` from `clean`, the rest from `attacked`.
///
/// The suite is [`Detector::reset`] at the start of every run, so one
/// calibrated clone serves an arbitrary number of runs without
/// reallocation — the same reuse discipline the serving loop applies to
/// its per-accelerator suites.
fn play_run(
    suite: &mut [Box<dyn Detector>],
    clean: &TelemetryProbe,
    attacked: Option<&TelemetryProbe>,
    opts: &DetectionOptions,
    run_seed: u64,
) -> RunScores {
    for d in suite.iter_mut() {
        d.reset();
    }
    let mut scores = vec![Vec::with_capacity(opts.frames); suite.len()];
    for batch in 0..opts.frames {
        let probe = match attacked {
            Some(probe) if batch >= opts.onset => probe,
            _ => clean,
        };
        let frame = probe.frame(batch as u64, run_seed);
        for (d, out) in suite.iter_mut().zip(&mut scores) {
            let _span = safelight_obs::profile_span_class("detector_score", d.name());
            out.push(d.score(&frame));
        }
    }
    scores
}

/// Maximum score over the post-onset frames of a run.
fn post_onset_max(scores: &[f64], onset: usize) -> f64 {
    scores[onset..].iter().fold(0.0f64, |a, &s| a.max(s))
}

/// Runs the full detection evaluation: calibrates the `detectors`
/// prototypes on attack-free telemetry, measures false-positive behaviour
/// on dedicated clean runs, then plays every scenario of `scenarios`
/// (each with [`DetectionOptions::attack_runs`] noise seeds) through the
/// calibrated suite.
///
/// Work fans out over `threads` workers of the shared pool; results are
/// ordered by the input scenario order and bitwise independent of
/// `threads`.
///
/// # Errors
///
/// Propagates attack-injection and telemetry errors, and rejects
/// degenerate options (zero frames/runs, onset beyond the run length).
#[allow(clippy::too_many_arguments)]
pub fn run_detection(
    network: &Network,
    mapping: &WeightMapping,
    backend: &dyn InferenceBackend,
    scenarios: &[ScenarioSpec],
    detectors: &[Box<dyn Detector>],
    opts: &DetectionOptions,
    seed: u64,
    threads: usize,
) -> Result<DetectionReport, SafelightError> {
    if opts.frames == 0 || opts.onset >= opts.frames {
        return Err(SafelightError::InvalidParameter {
            name: "frames/onset",
            value: opts.frames as f64,
        });
    }
    if opts.clean_runs == 0 || opts.attack_runs == 0 || opts.calibration_frames == 0 {
        return Err(SafelightError::InvalidParameter {
            name: "runs",
            value: 0.0,
        });
    }
    let config = backend.config();
    let sentinels = SentinelPlan::new(mapping, config, opts.sentinels_per_block);
    let clean_probe = backend
        .probe(network, mapping, &ConditionMap::new(), &sentinels)
        .map_err(SafelightError::from)?;

    // Calibrate the suite once on a dedicated attack-free stream.
    let cal_seed = fold(seed, 0xCA11_B8A7);
    let cal_frames: Vec<TelemetryFrame> = (0..opts.calibration_frames as u64)
        .map(|b| clean_probe.frame(b, cal_seed))
        .collect();
    let mut calibrated: Vec<Box<dyn Detector>> = detectors.iter().map(|d| d.clone_box()).collect();
    for d in &mut calibrated {
        d.calibrate(&cal_frames)?;
    }
    let names: Vec<String> = calibrated.iter().map(|d| d.name().to_string()).collect();

    // Attack-free runs: the false-positive population. Seeds are chunked so
    // each worker task clones the calibrated suite once and replays it via
    // `reset` across its runs; run results are independent of chunking
    // because every run starts from a reset suite.
    let clean_seeds: Vec<u64> = (0..opts.clean_runs as u64)
        .map(|r| fold(fold(seed, 0xC1EA_4095), r))
        .collect();
    let chunk = clean_seeds.len().div_ceil(threads.max(1)).max(1);
    let seed_chunks: Vec<Vec<u64>> = clean_seeds.chunks(chunk).map(<[u64]>::to_vec).collect();
    let clean_scores: Vec<RunScores> = par_map(seed_chunks, threads, |chunk_seeds| {
        let mut suite: Vec<Box<dyn Detector>> = calibrated.iter().map(|d| d.clone_box()).collect();
        chunk_seeds
            .into_iter()
            .map(|run_seed| play_run(&mut suite, &clean_probe, None, opts, run_seed))
            .collect::<Vec<RunScores>>()
    })
    .into_iter()
    .flatten()
    .collect();
    // Per detector: the max score of every clean run (full run length — a
    // false positive at any frame counts).
    let clean_max: Vec<Vec<f64>> = (0..calibrated.len())
        .map(|d| {
            clean_scores
                .iter()
                .map(|run| run[d].iter().fold(0.0f64, |a, &s| a.max(s)))
                .collect()
        })
        .collect();

    // Inject every scenario (sharing thermal solves and the salience map),
    // then play the attack runs.
    let salience = if needs_salience(scenarios) {
        Some(RingSalience::from_network(network, mapping, config)?)
    } else {
        None
    };
    let injected = inject_all(config, scenarios, salience.as_ref(), seed, threads)?;
    let per_scenario: Vec<Result<Vec<RunScores>, SafelightError>> =
        par_map(injected, threads, |entry| {
            let probe = backend
                .probe(network, mapping, &entry.conditions, &sentinels)
                .map_err(SafelightError::from)?;
            let spec_key = spec_stream_key(&entry.scenario);
            // One suite clone serves every run of this scenario via reset.
            let mut suite: Vec<Box<dyn Detector>> =
                calibrated.iter().map(|d| d.clone_box()).collect();
            Ok((0..opts.attack_runs as u64)
                .map(|run| {
                    let run_seed = fold(fold(seed, spec_key), run);
                    play_run(&mut suite, &clean_probe, Some(&probe), opts, run_seed)
                })
                .collect())
        });
    let per_scenario: Vec<Vec<RunScores>> = per_scenario.into_iter().collect::<Result<_, _>>()?;

    // Group scenario indices into cells, preserving input order.
    let mut cells: Vec<(CellKey, Vec<usize>)> = Vec::new();
    for (i, spec) in scenarios.iter().enumerate() {
        let key = cell_key(spec);
        match cells.iter_mut().find(|(k, _)| *k == key) {
            Some((_, idx)) => idx.push(i),
            None => cells.push((key, vec![i])),
        }
    }

    // Threshold axis and report assembly, serially (cheap).
    let mut roc = Vec::new();
    let mut operating = Vec::new();
    let mut summaries = Vec::new();
    for (d, name) in names.iter().enumerate() {
        // Candidate thresholds: quantiles of the pooled run maxima, plus a
        // catch-all above the global max (TPR = FPR = 0) and zero
        // (everything alarms).
        let mut pool: Vec<f64> = clean_max[d].clone();
        for runs in &per_scenario {
            for run in runs {
                pool.push(post_onset_max(&run[d], opts.onset));
            }
        }
        pool.sort_by(|a, b| a.partial_cmp(b).expect("scores are finite"));
        // −1 sits below every score (they are ≥ 0), pinning the (1, 1)
        // ROC endpoint even for detectors that emit exact zeros.
        let mut thresholds = vec![-1.0];
        for i in 0..opts.threshold_points {
            let pos = (i as f64 + 0.5) / opts.threshold_points as f64;
            thresholds.push(pool[((pos * pool.len() as f64) as usize).min(pool.len() - 1)]);
        }
        thresholds.push(pool[pool.len() - 1] + 1.0);
        thresholds.sort_by(|a, b| a.partial_cmp(b).expect("scores are finite"));
        thresholds.dedup();

        let fpr_at = |threshold: f64| -> f64 {
            clean_max[d].iter().filter(|&&s| s > threshold).count() as f64 / opts.clean_runs as f64
        };

        // Operating threshold: the k-th largest clean maximum, with k
        // chosen so the calibrated FPR stays strictly below the target.
        let mut sorted_clean = clean_max[d].clone();
        sorted_clean.sort_by(|a, b| b.partial_cmp(a).expect("scores are finite"));
        let op_threshold = sorted_clean[operating_rank(opts.clean_runs) - 1];
        operating.push(OperatingPoint {
            detector: name.clone(),
            threshold: op_threshold,
            fpr: fpr_at(op_threshold),
        });

        for (key, scenario_idx) in &cells {
            let run_maxima: Vec<f64> = scenario_idx
                .iter()
                .flat_map(|&i| {
                    per_scenario[i]
                        .iter()
                        .map(|run| post_onset_max(&run[d], opts.onset))
                })
                .collect();
            let tpr_at = |threshold: f64| -> f64 {
                run_maxima.iter().filter(|&&s| s > threshold).count() as f64
                    / run_maxima.len() as f64
            };
            let mut cell_points = Vec::with_capacity(thresholds.len());
            for &threshold in &thresholds {
                cell_points.push(RocPoint {
                    detector: name.clone(),
                    vector: key.0.clone(),
                    selection: key.1.clone(),
                    target: key.2.clone(),
                    fraction: f64::from_bits(key.3),
                    threshold,
                    tpr: tpr_at(threshold),
                    fpr: fpr_at(threshold),
                });
            }
            // Trapezoidal AUC over (fpr, tpr), swept from lax to strict.
            let mut auc = 0.0;
            for pair in cell_points.windows(2) {
                auc += (pair[0].fpr - pair[1].fpr) * (pair[0].tpr + pair[1].tpr) / 2.0;
            }
            // Latency at the operating threshold.
            let mut detected = 0usize;
            let mut latency_sum = 0.0;
            let mut runs = 0usize;
            for &i in scenario_idx {
                for run in &per_scenario[i] {
                    runs += 1;
                    if let Some(t) = (opts.onset..opts.frames).find(|&t| run[d][t] > op_threshold) {
                        detected += 1;
                        latency_sum += (t - opts.onset + 1) as f64;
                    }
                }
            }
            summaries.push(CellSummary {
                detector: name.clone(),
                vector: key.0.clone(),
                selection: key.1.clone(),
                target: key.2.clone(),
                fraction: f64::from_bits(key.3),
                runs,
                tpr: tpr_at(op_threshold),
                auc,
                mean_latency_frames: if detected > 0 {
                    latency_sum / detected as f64
                } else {
                    f64::NAN
                },
                detected_runs: detected,
            });
            roc.extend(cell_points);
        }
    }

    Ok(DetectionReport {
        detectors: names,
        clean_runs: opts.clean_runs,
        roc,
        operating,
        cells: summaries,
    })
}

/// A stable stream key of a scenario spec (all fields avalanche-mixed), so
/// attack-run noise seeds never alias across the grid.
fn spec_stream_key(spec: &ScenarioSpec) -> u64 {
    let mut h = fold(0xDE7E_C7ED, spec.trial);
    h = fold(h, spec.fraction.to_bits());
    for byte in spec.to_spec_string().bytes() {
        h = fold(h, u64::from(byte));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{AttackTarget, Selection, VectorSpec};
    use crate::detect::default_detectors;
    use crate::models::{build_model, matched_accelerator, ModelKind};
    use safelight_onn::AnalyticBackend;

    fn setup() -> (Network, WeightMapping, AnalyticBackend) {
        let bundle = build_model(ModelKind::Cnn1, 7).unwrap();
        let config = matched_accelerator(ModelKind::Cnn1).unwrap();
        let mapping = WeightMapping::new(&config, &bundle.layer_specs).unwrap();
        (bundle.network, mapping, AnalyticBackend::new(&config))
    }

    fn quick_opts() -> DetectionOptions {
        DetectionOptions {
            frames: 12,
            onset: 4,
            calibration_frames: 16,
            clean_runs: 12,
            attack_runs: 2,
            threshold_points: 6,
            ..DetectionOptions::default()
        }
    }

    #[test]
    fn report_covers_every_cell_and_detector() {
        let (network, mapping, backend) = setup();
        let scenarios = vec![
            ScenarioSpec::new(VectorSpec::Actuation, AttackTarget::ConvBlock, 0.10, 0),
            ScenarioSpec::new(VectorSpec::Actuation, AttackTarget::ConvBlock, 0.10, 1),
            ScenarioSpec::new(VectorSpec::laser_default(), AttackTarget::FcBlock, 0.05, 0)
                .with_selection(Selection::Clustered),
        ];
        let report = run_detection(
            &network,
            &mapping,
            &backend,
            &scenarios,
            &default_detectors(),
            &quick_opts(),
            11,
            2,
        )
        .unwrap();
        assert_eq!(report.detectors.len(), 3);
        // Two cells (the two trials share one), three detectors.
        assert_eq!(report.cells.len(), 2 * 3);
        // The shared cell pooled both trials' runs.
        let pooled = report.cell("guard_band", &scenarios[0]).unwrap();
        assert_eq!(pooled.runs, 2 * quick_opts().attack_runs);
        // ROC endpoints behave: the laxest threshold catches everything,
        // the strictest nothing.
        for d in &report.detectors {
            let points: Vec<&RocPoint> = report.roc.iter().filter(|p| &p.detector == d).collect();
            assert!(points.iter().any(|p| p.tpr == 1.0 && p.fpr == 1.0));
            assert!(points.iter().any(|p| p.fpr == 0.0));
        }
        // Operating points respect the FPR target.
        for op in &report.operating {
            assert!(op.fpr < FPR_TARGET + 1e-12, "{op:?}");
        }
    }

    #[test]
    fn strong_actuation_is_detected_with_low_latency() {
        let (network, mapping, backend) = setup();
        let spec = ScenarioSpec::new(VectorSpec::Actuation, AttackTarget::Both, 0.10, 0);
        let report = run_detection(
            &network,
            &mapping,
            &backend,
            std::slice::from_ref(&spec),
            &default_detectors(),
            &quick_opts(),
            11,
            1,
        )
        .unwrap();
        let best = report.best_for(&spec).unwrap();
        assert!(best.tpr > 0.9, "best TPR {}", best.tpr);
        // The guard band fires on the first attacked frame.
        let guard = report.cell("guard_band", &spec).unwrap();
        assert_eq!(guard.mean_latency_frames, 1.0);
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let (network, mapping, backend) = setup();
        let scenarios = vec![
            ScenarioSpec::new(VectorSpec::Actuation, AttackTarget::ConvBlock, 0.05, 0),
            ScenarioSpec::new(VectorSpec::trim_default(), AttackTarget::Both, 0.05, 0),
        ];
        let run = |threads| {
            run_detection(
                &network,
                &mapping,
                &backend,
                &scenarios,
                &default_detectors(),
                &quick_opts(),
                3,
                threads,
            )
            .unwrap()
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.roc, b.roc);
        assert_eq!(a.operating, b.operating);
        // NaN-bearing latency cells compare via their debug text.
        assert_eq!(format!("{:?}", a.cells), format!("{:?}", b.cells));
    }

    #[test]
    fn degenerate_options_are_rejected() {
        let (network, mapping, backend) = setup();
        let scenarios = [ScenarioSpec::new(
            VectorSpec::Actuation,
            AttackTarget::ConvBlock,
            0.05,
            0,
        )];
        for opts in [
            DetectionOptions {
                onset: 12,
                frames: 12,
                ..quick_opts()
            },
            DetectionOptions {
                clean_runs: 0,
                ..quick_opts()
            },
        ] {
            assert!(run_detection(
                &network,
                &mapping,
                &backend,
                &scenarios,
                &default_detectors(),
                &opts,
                1,
                1,
            )
            .is_err());
        }
    }
}
