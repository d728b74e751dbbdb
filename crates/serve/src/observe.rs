//! The serving-plane observer: the bridge between [`crate::runtime`] and
//! the `safelight-obs` tracing/metrics plane.
//!
//! A [`ServeObserver`] is attached to a [`crate::Fleet`] for the duration
//! of one served stream (one chaos case, one serving scenario). It owns a
//! [`Tracer`] of its own — so per-case traces never interleave even when
//! cases run concurrently — and shares a [`MetricsRegistry`] with its
//! sibling observers, namespacing every series it touches with its scope
//! labels (e.g. `case="03"`). Within one observer, every metric is
//! recorded from the stream's *serial* control path (admission, the
//! results loop, the response policy), so the merged snapshot is
//! byte-identical across worker-thread counts; trace events may
//! additionally be emitted from pool workers because the tracer's
//! committed rendering sorts on a total `(virtual time, stage, sequence,
//! text)` key.
//!
//! The trace vocabulary mirrors the response-policy state machine: every
//! quarantine, remap, failover, maintenance verdict, crash and recovery is
//! one [`Decision`], which the observer's `record` renders as a
//! `policy`/`crash`/`recover` event carrying the *inputs* of the decision
//! (worst suite score, rail-glitch z, implicated banks with their
//! excursions, masked channels, retry state) and counts in the metrics
//! from the same value, so a committed trace reconstructs the decision
//! sequence without re-running the stream.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use safelight_obs::{
    default_rules, labeled, AlertEngine, AlertFiring, Histogram, HistogramConfig, MetricsRegistry,
    SloSpec, Stage, Tracer,
};

use crate::incident::IncidentReport;
use crate::runtime::{Decision, Disposition, PolicyEvent, ServedBatch, StreamOutcome};

/// Rendered observability artifacts of one observed run: the committed
/// trace (deterministic, byte-identical across thread counts), the
/// wall-clock profile section (measurement, machine-dependent) and the
/// metrics snapshot.
#[derive(Debug, Clone)]
pub struct ObsArtifacts {
    /// Committed trace: `# `-prefixed headers plus canonical event lines.
    pub trace: String,
    /// Wall-clock sidecar: the same events' `wall_ns` timings, uncommitted.
    pub profile: String,
    /// Metrics snapshot at end of run.
    pub metrics: safelight_obs::MetricsSnapshot,
    /// Incident reports reconstructed from the committed trace, one per
    /// injected fault/attack; empty when no SLO was attached.
    pub incidents: Vec<IncidentReport>,
}

/// Per-stream observer: a private tracer plus scoped handles into a
/// shared metrics registry.
pub struct ServeObserver {
    tracer: Tracer,
    metrics: Arc<MetricsRegistry>,
    /// Labels stamped on every metric series this observer touches.
    scope: Vec<(String, String)>,
    /// Virtual-time alert engine, present when an SLO spec was attached.
    /// Fed from the serial admission path; locked, never contended.
    alerts: Option<Mutex<AlertEngine>>,
    /// Last stream-end tick, the evaluation instant for threshold rules.
    end_vt: AtomicU64,
}

impl std::fmt::Debug for ServeObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeObserver")
            .field("scope", &self.scope)
            .finish_non_exhaustive()
    }
}

impl ServeObserver {
    /// An observer with its own fresh registry and no scope labels.
    #[must_use]
    pub fn new() -> Self {
        Self::with_scope(Arc::new(MetricsRegistry::new()), &[])
    }

    /// An observer over a shared `metrics` registry, stamping `scope`
    /// labels (e.g. `[("case", "03")]`) on every series it records.
    #[must_use]
    pub fn with_scope(metrics: Arc<MetricsRegistry>, scope: &[(&str, &str)]) -> Self {
        Self::with_scope_slo(metrics, scope, None)
    }

    /// [`Self::with_scope`] with a virtual-time alert engine attached:
    /// the observer feeds the engine per-tick admission samples and
    /// evaluates [`default_rules`] for `slo` at end of stream (see
    /// [`Self::evaluate_alerts`]).
    #[must_use]
    pub fn with_scope_slo(
        metrics: Arc<MetricsRegistry>,
        scope: &[(&str, &str)],
        slo: Option<&SloSpec>,
    ) -> Self {
        Self {
            tracer: Tracer::new(),
            metrics,
            scope: scope
                .iter()
                .map(|&(k, v)| (k.to_owned(), v.to_owned()))
                .collect(),
            alerts: slo.map(|s| Mutex::new(AlertEngine::new(default_rules(s)))),
            end_vt: AtomicU64::new(0),
        }
    }

    /// The observer's private tracer.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The shared metrics registry.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// A metric name carrying the observer's scope labels plus `extra`.
    fn name(&self, base: &str, extra: &[(&str, &str)]) -> String {
        let mut pairs: Vec<(&str, &str)> = self
            .scope
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        pairs.extend_from_slice(extra);
        labeled(base, &pairs)
    }

    fn inc(&self, base: &str, by: u64) {
        self.metrics.counter(&self.name(base, &[])).add(by);
    }

    fn latency_hist(&self, base: &str) -> Arc<Histogram> {
        self.metrics
            .histogram(&self.name(base, &[]), HistogramConfig::latency_ticks())
    }

    // --- Tick-loop events (serial path). -------------------------------

    /// Admission outcome of one tick: `admitted`/`shed` are this tick's
    /// deltas, `depth` the queue depth after admission.
    pub(crate) fn admission(&self, tick: u64, admitted: u64, shed: u64, depth: usize) {
        if admitted > 0 || shed > 0 {
            self.tracer.event(
                tick,
                Stage::Admission,
                tick,
                format!("event=admit admitted={admitted} shed={shed} depth={depth}"),
            );
        }
        if admitted > 0 {
            self.inc("serve_admitted_total", admitted);
        }
        if shed > 0 {
            self.inc("serve_shed_total", shed);
        }
        if admitted + shed > 0 {
            self.inc("serve_offered_total", admitted + shed);
        }
        if let Some(engine) = &self.alerts {
            // Every tick gets a sample, including quiet ones: burn-rate
            // windows measure trailing rates, so the cumulative log needs
            // the flat stretches too.
            let mut engine = engine.lock().unwrap_or_else(|e| e.into_inner());
            engine.record(tick, "serve_offered_total", (admitted + shed) as f64);
            engine.record(tick, "serve_shed_total", shed as f64);
        }
        self.metrics
            .gauge(&self.name("serve_queue_depth", &[]))
            .set(depth as f64);
        self.metrics
            .histogram(
                &self.name("serve_queue_depth_ticks", &[]),
                HistogramConfig::latency_ticks(),
            )
            .observe(depth as f64);
    }

    /// A pending compromise activated on its member.
    pub(crate) fn compromise(&self, tick: u64, batch: u64, member: usize) {
        self.tracer.event(
            tick,
            Stage::Compromise,
            member as u64,
            format!("event=compromise member={member} batch={batch}"),
        );
        self.inc("serve_compromises_total", 1);
    }

    /// One served micro-batch. Called from pool workers — trace only, no
    /// metrics (worker-side metric updates would be order-dependent).
    pub(crate) fn batch_served(&self, tick: u64, batch: &ServedBatch, size: usize, wall_ns: u64) {
        let worst = batch.scores.iter().fold(0.0f64, |a, &s| a.max(s));
        let text = if batch.scores.is_empty() {
            format!(
                "event=batch member={} size={size} degraded={}",
                batch.member, batch.degraded
            )
        } else {
            format!(
                "event=batch member={} size={size} worst={worst:.4} alarmed={} masked={} degraded={}",
                batch.member,
                batch.alarmed,
                batch.masked.len(),
                batch.degraded
            )
        };
        self.tracer
            .event_timed(tick, Stage::Serve, batch.batch, text, wall_ns);
    }

    /// Serial per-batch accounting from the results loop: request count,
    /// per-member batch counters, latency histograms, detector scores.
    pub(crate) fn batch_outcomes(&self, batch: &ServedBatch, delays: &[(f64, f64)]) {
        let member = batch.member.to_string();
        self.metrics
            .counter(&self.name("serve_batches_total", &[("member", &member)]))
            .inc();
        self.inc("serve_requests_total", delays.len() as u64);
        let queue_delay = self.latency_hist("serve_queue_delay_ticks");
        let latency = self.latency_hist("serve_latency_ticks");
        for &(qd, sl) in delays {
            queue_delay.observe(qd);
            latency.observe(sl);
        }
        if !batch.scores.is_empty() {
            let worst = batch.scores.iter().fold(0.0f64, |a, &s| a.max(s));
            self.metrics
                .histogram(
                    &self.name("serve_detector_worst_score", &[]),
                    HistogramConfig {
                        lo: 0.125,
                        growth: 2.0,
                        buckets: 16,
                    },
                )
                .observe(worst);
            if batch.alarmed {
                self.inc("serve_alarmed_batches_total", 1);
            }
        }
    }

    /// One response-policy decision (serial path): its audit-trace line
    /// — crash and recovery on their own stages keyed by member, every
    /// verdict on the policy stage keyed by batch — and its counters.
    pub(crate) fn record(&self, tick: u64, event: &PolicyEvent) {
        let (stage, seq) = match event.decision {
            Decision::Crash { .. } => (Stage::Crash, event.member as u64),
            Decision::Recover { .. } => (Stage::Recover, event.member as u64),
            _ => (Stage::Policy, event.batch),
        };
        self.tracer.event(tick, stage, seq, event.to_string());
        match &event.decision {
            Decision::SensorMask { newly, .. } => {
                self.inc("serve_maintenance_total", 1);
                self.inc("serve_masked_channels_total", newly.len() as u64);
            }
            Decision::MaskClear => {}
            Decision::RailGlitch { .. } => {
                self.inc("serve_maintenance_total", 1);
                self.inc("serve_rail_glitches_total", 1);
            }
            Decision::Implicate { disposition, .. } => {
                self.inc("serve_implications_total", 1);
                match disposition {
                    Disposition::Remap {
                        quarantined_banks,
                        remapped_rings,
                        unplaced_rings,
                        spare_level,
                    } => {
                        self.inc("serve_remaps_total", 1);
                        self.inc("serve_quarantined_banks_total", *quarantined_banks as u64);
                        self.inc("serve_remapped_rings_total", *remapped_rings as u64);
                        self.inc("serve_unplaced_rings_total", *unplaced_rings as u64);
                        let member = event.member.to_string();
                        self.metrics
                            .gauge(&self.name("serve_spare_rings", &[("member", &member)]))
                            .set(*spare_level as f64);
                    }
                    Disposition::Backoff { .. } => {}
                    Disposition::RemapFailed { .. } => self.inc("serve_remap_retries_total", 1),
                    Disposition::Failover => self.inc("serve_failovers_total", 1),
                }
            }
            Decision::SensorQuarantine { suspects } => {
                self.inc("serve_maintenance_total", 1);
                self.inc("serve_sensor_quarantines_total", suspects.len() as u64);
            }
            Decision::Unlocalized { failover, .. } => {
                self.inc("serve_alarms_total", 1);
                if *failover {
                    self.inc("serve_failovers_total", 1);
                }
            }
            Decision::Crash { .. } => self.inc("serve_crashes_total", 1),
            Decision::Recover { latency_batches } => {
                self.inc("serve_recoveries_total", 1);
                self.latency_hist("serve_crash_recovery_latency_batches")
                    .observe(*latency_batches as f64);
            }
        }
    }

    /// End-of-stream summary event plus the end-of-stream SLO gauges
    /// (`serve_availability`, `serve_shed_rate`) the threshold rules
    /// judge — the stream outcome's own values, so the gauges match the
    /// report columns exactly.
    pub(crate) fn stream_end(&self, out: &StreamOutcome) {
        let tick = out.ticks;
        self.tracer.event(
            tick,
            Stage::Summary,
            0,
            format!(
                "event=stream_end served={} unserved={} shed={} healthy={} ticks={tick}",
                out.outcomes.len(),
                out.unserved,
                out.shed,
                out.healthy()
            ),
        );
        self.metrics
            .gauge(&self.name("serve_availability", &[]))
            .set(out.availability());
        self.metrics
            .gauge(&self.name("serve_shed_rate", &[]))
            .set(out.shed_rate());
        self.end_vt.store(tick, Ordering::Relaxed);
    }

    /// Whether a labeled metric name belongs to this observer's scope
    /// (every scope pair appears among its labels).
    fn in_scope(&self, name: &str) -> bool {
        self.scope
            .iter()
            .all(|(k, v)| name.contains(&format!("{k}=\"{v}\"")))
    }

    /// Evaluate the attached alert rules against this observer's slice of
    /// the shared registry, as of the stream-end tick. Each firing is
    /// committed to the trace (`alert` stage, at the firing's virtual
    /// tick) and counted in `serve_alerts_fired_total{rule=...}`. Returns
    /// the firings; empty when no SLO was attached. Call after the stream
    /// ends and before [`Self::drain`].
    pub fn evaluate_alerts(&self) -> Vec<AlertFiring> {
        let Some(engine) = &self.alerts else {
            return Vec::new();
        };
        let engine = engine.lock().unwrap_or_else(|e| e.into_inner());
        let mut snapshot = self.metrics.snapshot();
        snapshot.entries.retain(|(name, _)| self.in_scope(name));
        let end_vt = self.end_vt.load(Ordering::Relaxed);
        let firings = engine.evaluate(&snapshot, end_vt);
        for (i, f) in firings.iter().enumerate() {
            self.tracer.event(
                f.vt,
                Stage::Alert,
                i as u64,
                format!(
                    "event=alert_firing rule={} series={} value={:.4} threshold={}",
                    f.rule, f.series, f.value, f.threshold
                ),
            );
            self.metrics
                .counter(&self.name("serve_alerts_fired_total", &[("rule", &f.rule)]))
                .inc();
        }
        firings
    }

    /// Drains the tracer and renders both trace sections under `header`
    /// lines, leaving the observer's registry untouched (the caller
    /// snapshots the shared registry once all observers are drained).
    /// Committed rendering is invalidated (annotated) if the tracer
    /// overflowed and dropped events.
    #[must_use]
    pub fn drain(&self, header: &[String]) -> (String, String) {
        let dropped = self.tracer.dropped();
        let events = self.tracer.drain_sorted();
        let mut header = header.to_vec();
        if dropped > 0 {
            header.push(format!("WARNING dropped={dropped} (trace incomplete)"));
        }
        let committed = safelight_obs::render_committed(&header, &events);
        let profile = safelight_obs::render_profile(&events);
        (committed, profile)
    }
}

impl Default for ServeObserver {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One event per [`Decision`] variant, implicate disposition and
    /// unlocalized outcome, on member 0 at batches 1, 2, … in this order:
    /// sensor_mask, mask_clear, rail_glitch, implicate (remap, backoff,
    /// remap_failed, failover), sensor_quarantine, unlocalized (alarm,
    /// failover), crash, recover.
    pub(crate) fn every_decision() -> Vec<PolicyEvent> {
        use safelight_onn::BlockKind::{Conv, Fc};
        use safelight_onn::SensorChannel::{DeltaKelvin, DropCurrent, RailPower};
        let banks = vec![(Fc, 0, [7.5, 1.0, 6.25, 0.5])];
        let implicate = |disposition| Decision::Implicate {
            banks: banks.clone(),
            disposition,
        };
        let decisions = [
            Decision::SensorMask {
                newly: vec![(Fc, 1, DropCurrent), (Conv, 0, DeltaKelvin)],
                total_masked: 3,
            },
            Decision::MaskClear,
            Decision::RailGlitch {
                rail_z: 5.25,
                threshold: 4.0,
            },
            implicate(Disposition::Remap {
                quarantined_banks: 1,
                remapped_rings: 8,
                unplaced_rings: 0,
                spare_level: 24,
            }),
            implicate(Disposition::Backoff { retry_after: 9 }),
            implicate(Disposition::RemapFailed {
                attempts: 1,
                retry_after: 8,
            }),
            implicate(Disposition::Failover),
            Decision::SensorQuarantine {
                suspects: vec![(Fc, 2, RailPower)],
            },
            Decision::Unlocalized {
                consecutive: 1,
                failover: false,
            },
            Decision::Unlocalized {
                consecutive: 3,
                failover: true,
            },
            Decision::Crash { restart_until: 13 },
            Decision::Recover { latency_batches: 2 },
        ];
        decisions
            .into_iter()
            .zip(1..)
            .map(|(decision, batch)| PolicyEvent {
                batch,
                member: 0,
                score: if matches!(decision, Decision::Crash { .. } | Decision::Recover { .. }) {
                    0.0
                } else {
                    2.5
                },
                decision,
            })
            .collect()
    }

    #[test]
    fn every_decision_renders_its_audit_line() {
        let obs = ServeObserver::new();
        for e in every_decision() {
            obs.record(e.batch, &e);
        }
        let (trace, _) = obs.drain(&[]);
        let expected = [
            "vt=000001 policy seq=000001 event=sensor_mask member=0 \
             masked=[FC:1:DropCurrent,CONV:0:DeltaKelvin] total=3 score=2.5000 action=maintenance",
            "vt=000002 policy seq=000002 event=mask_clear member=0",
            "vt=000003 policy seq=000003 event=rail_glitch member=0 rail_z=5.250 threshold=4 \
             score=2.5000 action=maintenance",
            "vt=000004 policy seq=000004 event=implicate member=0 banks=[FC:0(z=7.500)] \
             score=2.5000 action=remap quarantined=1 remapped=8 unplaced=0",
            "vt=000005 policy seq=000005 event=implicate member=0 banks=[FC:0(z=7.500)] \
             score=2.5000 action=backoff retry_after=9",
            "vt=000006 policy seq=000006 event=implicate member=0 banks=[FC:0(z=7.500)] \
             score=2.5000 action=remap_failed attempts=1 retry_after=8",
            "vt=000007 policy seq=000007 event=implicate member=0 banks=[FC:0(z=7.500)] \
             score=2.5000 action=failover reason=spares_exhausted",
            "vt=000008 policy seq=000008 event=sensor_quarantine member=0 \
             suspects=[FC:2:RailPower] score=2.5000 action=maintenance",
            "vt=000009 policy seq=000009 event=unlocalized member=0 consecutive=1 score=2.5000 \
             action=alarm",
            "vt=000010 policy seq=000010 event=unlocalized member=0 consecutive=3 score=2.5000 \
             action=failover",
            "vt=000011 crash seq=000000 event=crash member=0 batch=11 restart_until=13",
            "vt=000012 recover seq=000000 event=recover member=0 batch=12 latency_batches=2",
        ];
        assert_eq!(trace.lines().collect::<Vec<_>>(), expected);
    }

    /// The counter semantics of each decision, pinned on the exact
    /// Prometheus exposition (histogram buckets aside) — including the
    /// series a decision creates at zero.
    #[test]
    fn every_decision_lands_in_its_counters() {
        let reg = Arc::new(MetricsRegistry::new());
        let obs = ServeObserver::with_scope(reg.clone(), &[("case", "03")]);
        for e in every_decision() {
            obs.record(e.batch, &e);
        }
        let prom = reg.snapshot().prometheus();
        let series: Vec<&str> = prom.lines().filter(|l| !l.contains("_bucket{")).collect();
        assert_eq!(
            series,
            [
                "# TYPE serve_alarms_total counter",
                "serve_alarms_total{case=\"03\"} 2",
                "# TYPE serve_crash_recovery_latency_batches histogram",
                "serve_crash_recovery_latency_batches_sum{case=\"03\"} 2",
                "serve_crash_recovery_latency_batches_count{case=\"03\"} 1",
                "# TYPE serve_crashes_total counter",
                "serve_crashes_total{case=\"03\"} 1",
                "# TYPE serve_failovers_total counter",
                "serve_failovers_total{case=\"03\"} 2",
                "# TYPE serve_implications_total counter",
                "serve_implications_total{case=\"03\"} 4",
                "# TYPE serve_maintenance_total counter",
                "serve_maintenance_total{case=\"03\"} 3",
                "# TYPE serve_masked_channels_total counter",
                "serve_masked_channels_total{case=\"03\"} 2",
                "# TYPE serve_quarantined_banks_total counter",
                "serve_quarantined_banks_total{case=\"03\"} 1",
                "# TYPE serve_rail_glitches_total counter",
                "serve_rail_glitches_total{case=\"03\"} 1",
                "# TYPE serve_recoveries_total counter",
                "serve_recoveries_total{case=\"03\"} 1",
                "# TYPE serve_remap_retries_total counter",
                "serve_remap_retries_total{case=\"03\"} 1",
                "# TYPE serve_remapped_rings_total counter",
                "serve_remapped_rings_total{case=\"03\"} 8",
                "# TYPE serve_remaps_total counter",
                "serve_remaps_total{case=\"03\"} 1",
                "# TYPE serve_sensor_quarantines_total counter",
                "serve_sensor_quarantines_total{case=\"03\"} 1",
                "# TYPE serve_spare_rings gauge",
                "serve_spare_rings{case=\"03\",member=\"0\"} 24",
                "# TYPE serve_unplaced_rings_total counter",
                "serve_unplaced_rings_total{case=\"03\"} 0",
            ]
        );
        assert!(
            prom.contains("serve_crash_recovery_latency_batches_bucket{case=\"03\",le=\"2\"} 1\n"),
            "{prom}"
        );
    }

    #[test]
    fn scoped_metric_names_carry_labels() {
        let reg = Arc::new(MetricsRegistry::new());
        let obs = ServeObserver::with_scope(reg.clone(), &[("case", "03")]);
        obs.inc("serve_admitted_total", 2);
        let snap = reg.snapshot();
        let text = snap.prometheus();
        assert!(
            text.contains("serve_admitted_total{case=\"03\"} 2"),
            "missing scoped counter in:\n{text}"
        );
    }

    #[test]
    fn drain_renders_header_and_sorted_events() {
        let obs = ServeObserver::new();
        obs.tracer()
            .event(3, Stage::Serve, 1, "event=batch member=0".into());
        obs.tracer().event(
            1,
            Stage::Admission,
            1,
            "event=admit admitted=4 shed=0 depth=4".into(),
        );
        let (committed, profile) = obs.drain(&["case=00 kind=fault".into()]);
        assert!(committed.starts_with("# case=00 kind=fault\n"));
        let lines: Vec<&str> = committed.lines().collect();
        assert!(lines[1].contains("admission"), "{committed}");
        assert!(lines[2].contains("serve"), "{committed}");
        // No timed events: the profile section is just its header line.
        assert_eq!(profile.lines().count(), 1, "{profile}");
    }
}
