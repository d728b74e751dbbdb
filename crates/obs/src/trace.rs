//! Deterministic structured tracing.
//!
//! # Model
//!
//! A [`Tracer`] collects [`TraceEvent`]s from any number of threads into
//! per-thread shards ("lock-free enough": a push only takes the calling
//! thread's own shard lock, which is uncontended unless two threads hash
//! to the same shard). Each event carries:
//!
//! - `vt` — the serve plane's **virtual-time tick**. Simulation time, a
//!   pure function of the seed; never wall clock.
//! - `stage` — a coarse pipeline stage with a fixed ordinal
//!   ([`Stage`]), ordering events that share a tick the way the serial
//!   control loop observes them (admission before recovery before serving
//!   before policy decisions).
//! - `seq` — a stable sequence key within `(vt, stage)`: the global batch
//!   index for serve/policy events, the member id for lifecycle events.
//! - `text` — the rendered payload (`event=... key=value ...`), built by
//!   the emitter from deterministic inputs only.
//! - `wall_ns` — optional wall-clock duration. **Never committed**: the
//!   committed rendering excludes it so the artifact is a function of the
//!   seed alone.
//!
//! # Determinism argument
//!
//! The committed artifact is produced by [`Tracer::drain_sorted`] +
//! [`render_committed`]: shards are concatenated and sorted by the *total*
//! key `(vt, stage, seq, text)`. Every component of that key is computed
//! from simulation state, not from scheduling; shard assignment and
//! insertion order affect only the pre-sort layout. Two runs with the same
//! seed therefore produce the same multiset of events, and the total sort
//! key collapses any interleaving into one canonical order — the rendered
//! bytes are identical across 1 vs N worker threads. CI checks exactly
//! this (`repro --serve --profile` at 1 and 4 threads, byte compare).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

/// Number of shards. Collisions are harmless (brief lock sharing); more
/// shards than typical worker counts keeps pushes uncontended.
const SHARDS: usize = 16;

/// Default per-shard capacity. Overflow drops the event and counts it —
/// committed artifacts must never be produced from a tracer that dropped
/// (see [`Tracer::dropped`]); the default is sized far above what a full
/// chaos grid emits.
const DEFAULT_SHARD_CAPACITY: usize = 1 << 16;

/// Coarse pipeline stage. The ordinal is part of the canonical event
/// order within a tick and mirrors the serial control loop: admission
/// and shedding first, then member lifecycle (recover / crash /
/// compromise activation), then batch service, then policy decisions,
/// then end-of-stream summary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Request admission / shedding at the queue.
    Admission = 0,
    /// A failed member finishing recovery.
    Recover = 1,
    /// A scheduled crash activating.
    Crash = 2,
    /// A scheduled compromise (attack onset) activating.
    Compromise = 3,
    /// A micro-batch served by a fleet member (emitted from workers).
    Serve = 4,
    /// A response-policy decision (health screen, quarantine, remap,
    /// failover, maintenance) on the serial path.
    Policy = 5,
    /// End-of-stream summary records.
    Summary = 6,
    /// An alert rule firing (virtual-time SLO engine), emitted after the
    /// stream summary when the rule set is evaluated.
    Alert = 7,
}

impl Stage {
    /// Stable lower-case name used in the rendered trace.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Admission => "admission",
            Stage::Recover => "recover",
            Stage::Crash => "crash",
            Stage::Compromise => "compromise",
            Stage::Serve => "serve",
            Stage::Policy => "policy",
            Stage::Summary => "summary",
            Stage::Alert => "alert",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured event. See the module docs for field semantics.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Virtual-time tick (simulation time).
    pub vt: u64,
    /// Pipeline stage (fixed ordinal, part of the sort key).
    pub stage: Stage,
    /// Stable sequence key within `(vt, stage)`.
    pub seq: u64,
    /// Rendered payload, `event=... key=value ...`.
    pub text: String,
    /// Optional wall-clock duration in nanoseconds. Excluded from the
    /// committed rendering.
    pub wall_ns: u64,
}

impl TraceEvent {
    fn sort_key(&self) -> (u64, u8, u64, &str) {
        (self.vt, self.stage as u8, self.seq, &self.text)
    }

    /// The committed (deterministic) rendering of this event.
    pub fn committed_line(&self) -> String {
        format!(
            "vt={:06} {:<10} seq={:06} {}",
            self.vt, self.stage, self.seq, self.text
        )
    }
}

struct Shard {
    events: Vec<TraceEvent>,
    dropped: u64,
}

/// A deterministic multi-producer trace collector.
///
/// Instance-based (shared by `Arc`) rather than global so concurrent test
/// runs cannot pollute each other's traces.
pub struct Tracer {
    shards: [Mutex<Shard>; SHARDS],
    capacity: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer with the default per-shard capacity.
    pub fn new() -> Tracer {
        Tracer::with_capacity(DEFAULT_SHARD_CAPACITY)
    }

    /// A tracer whose shards each hold at most `capacity` events; pushes
    /// beyond that are dropped and counted.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            shards: std::array::from_fn(|_| {
                Mutex::new(Shard {
                    events: Vec::new(),
                    dropped: 0,
                })
            }),
            capacity,
        }
    }

    fn shard_index() -> usize {
        let mut h = DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        (h.finish() as usize) % SHARDS
    }

    /// Record an event with no wall-clock component.
    pub fn event(&self, vt: u64, stage: Stage, seq: u64, text: String) {
        self.push(TraceEvent {
            vt,
            stage,
            seq,
            text,
            wall_ns: 0,
        });
    }

    /// Record an event carrying a measured wall-clock duration.
    pub fn event_timed(&self, vt: u64, stage: Stage, seq: u64, text: String, wall_ns: u64) {
        self.push(TraceEvent {
            vt,
            stage,
            seq,
            text,
            wall_ns,
        });
    }

    fn push(&self, ev: TraceEvent) {
        let mut shard = self.shards[Self::shard_index()]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if shard.events.len() >= self.capacity {
            shard.dropped += 1;
        } else {
            shard.events.push(ev);
        }
    }

    /// Number of events dropped to shard-capacity overflow. A committed
    /// artifact is only valid when this is zero.
    pub fn dropped(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).dropped)
            .sum()
    }

    /// Drain all shards and return the events in canonical order
    /// `(vt, stage, seq, text)`. Resets the tracer.
    pub fn drain_sorted(&self) -> Vec<TraceEvent> {
        let mut all = Vec::new();
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            all.append(&mut shard.events);
            shard.dropped = 0;
        }
        all.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        all
    }
}

/// Render the committed (deterministic, seed-only) trace section.
///
/// `header` lines are prefixed with `# ` — use them for run identity
/// (model, seed, scenario) so the artifact is self-describing.
pub fn render_committed(header: &[String], events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for line in header {
        out.push_str("# ");
        out.push_str(line);
        out.push('\n');
    }
    for ev in events {
        out.push_str(&ev.committed_line());
        out.push('\n');
    }
    out
}

/// Render the uncommitted wall-clock profile section: the same events
/// with their measured durations. Machine-dependent; never committed or
/// byte-compared.
pub fn render_profile(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    out.push_str("# profile section (wall clock; machine-dependent, not committed)\n");
    for ev in events {
        if ev.wall_ns > 0 {
            out.push_str(&format!("{} wall_ns={}\n", ev.committed_line(), ev.wall_ns));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn collect(tracer: &Tracer) -> Vec<String> {
        tracer
            .drain_sorted()
            .iter()
            .map(|e| e.committed_line())
            .collect()
    }

    #[test]
    fn sorted_by_vt_then_stage_then_seq() {
        let t = Tracer::new();
        t.event(2, Stage::Policy, 0, "c".into());
        t.event(1, Stage::Serve, 5, "b".into());
        t.event(1, Stage::Admission, 9, "a".into());
        t.event(1, Stage::Serve, 2, "z".into());
        let lines = collect(&t);
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("admission"));
        assert!(lines[1].contains("seq=000002"));
        assert!(lines[2].contains("seq=000005"));
        assert!(lines[3].contains("policy"));
    }

    #[test]
    fn merge_is_thread_count_invariant() {
        // Same multiset of events pushed from 1 thread vs 4 threads must
        // render identically.
        let events: Vec<(u64, u64)> = (0..64u64).map(|i| (i / 8, i)).collect();
        let serial = Tracer::new();
        for &(vt, seq) in &events {
            serial.event(vt, Stage::Serve, seq, format!("event=batch idx={seq}"));
        }
        let parallel = Arc::new(Tracer::new());
        let mut handles = Vec::new();
        for chunk in events.chunks(16) {
            let chunk = chunk.to_vec();
            let tracer = Arc::clone(&parallel);
            handles.push(std::thread::spawn(move || {
                for (vt, seq) in chunk {
                    tracer.event(vt, Stage::Serve, seq, format!("event=batch idx={seq}"));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let a = render_committed(&[], &serial.drain_sorted());
        let b = render_committed(&[], &parallel.drain_sorted());
        assert_eq!(a, b);
    }

    #[test]
    fn committed_rendering_excludes_wall_clock() {
        let t = Tracer::new();
        t.event_timed(3, Stage::Policy, 1, "event=quarantine".into(), 12345);
        let events = t.drain_sorted();
        let committed = render_committed(&["run=test".into()], &events);
        assert!(committed.starts_with("# run=test\n"));
        assert!(!committed.contains("12345"));
        assert!(!committed.contains("wall"));
        let profile = render_profile(&events);
        assert!(profile.contains("wall_ns=12345"));
    }

    #[test]
    fn overflow_drops_and_counts() {
        let t = Tracer::with_capacity(2);
        for i in 0..64 {
            t.event(0, Stage::Admission, i, "x".into());
        }
        assert!(t.dropped() > 0);
        let n = t.drain_sorted().len();
        assert!(n <= 2 * SHARDS);
        assert_eq!(t.dropped(), 0, "drain resets drop counter");
    }

    #[test]
    fn drain_resets() {
        let t = Tracer::new();
        t.event(0, Stage::Summary, 0, "one".into());
        assert_eq!(t.drain_sorted().len(), 1);
        assert!(t.drain_sorted().is_empty());
    }
}
