//! The request plane: arrival processes, bounded admission and
//! micro-batching of an ordered request stream.
//!
//! The scheduler separates *when requests arrive* from *when they
//! execute*. An [`ArrivalModel`] stamps every request with a virtual
//! arrival time (in tick units, replayable from the in-tree xoshiro
//! RNG), an [`AdmissionQueue`] bounds how many admitted-but-unserved
//! requests the fleet will hold before shedding load, and the runtime's
//! continuous batcher fills each tick's micro-batches from whatever has
//! arrived (see [`crate::runtime`]).
//!
//! The contract stays deliberately narrow and fully deterministic:
//! requests are admitted in arrival order, each admitted request lands in
//! exactly one batch, batches preserve admission order, and per-request
//! outcomes are reassembled in arrival order. Which *accelerator* runs a
//! batch is decided by the fleet's routing, never by worker availability
//! — that is what keeps serving results byte-identical across
//! worker-thread counts. Virtual time makes the arrival process equally
//! deterministic: a tick is one unit of virtual time, every arrival
//! timestamp is drawn from a seeded generator, and the wall clock is
//! never consulted.
//!
//! [`partition`] survives as the degenerate closed-loop case: at arrival
//! rate ∞ every request is present before tick 0 and the continuous
//! batcher reproduces the old contiguous partition byte-for-byte.

use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;

use safelight::attack::fold;
use safelight_neuro::{SimRng, Tensor};

/// Stream-selection constant folded into arrival-schedule seeds so the
/// arrival draws never alias the attack/telemetry/noise streams that are
/// derived from the same experiment seed.
const ARRIVAL_STREAM: u64 = 0xA441_7A1E_0F10_AD5C;

/// One inference request in the stream.
#[derive(Debug, Clone)]
pub struct Request {
    /// Monotone arrival identifier (also the request's stream position).
    pub id: u64,
    /// The CHW input image.
    pub input: Tensor,
    /// Virtual arrival time in tick units. Tick `t` spans virtual time
    /// `[t, t+1)`; a request with `arrived_at <= t` is eligible for
    /// admission at tick `t`. Closed-loop callers set `0.0` (everything
    /// arrived before serving started).
    pub arrived_at: f64,
}

/// The served result of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// The request's arrival identifier.
    pub id: u64,
    /// The class the serving accelerator predicted.
    pub prediction: usize,
    /// Fleet member that served the request.
    pub member: usize,
    /// Global micro-batch index the request was served in.
    pub batch: u64,
    /// Whether the serving member was compromised with no remediation
    /// applied yet when the batch ran — the bit behind the availability
    /// metric. A remediation clears it even when partial (residual
    /// corruption on unimplicated rings is visible in the post-recovery
    /// accuracy instead, which is measured, not believed).
    pub degraded_service: bool,
    /// Virtual ticks the request waited in the admission queue before its
    /// batch was dispatched: `dispatch_tick - arrived_at`.
    pub queue_delay: f64,
    /// End-to-end virtual-time latency: queueing plus the one tick of
    /// execution, `(dispatch_tick + 1) - arrived_at`.
    pub service_latency: f64,
}

/// An open-loop arrival process in virtual time.
///
/// Rates are in requests per tick (one tick = one micro-batch round of
/// the fleet). [`ArrivalModel::Closed`] is the rate-∞ degenerate case:
/// every request is already queued when serving starts, which reproduces
/// the pre-request-plane closed-loop scheduler exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalModel {
    /// Closed loop: all requests arrive at virtual time 0 (rate = ∞).
    Closed,
    /// Poisson arrivals: i.i.d. exponential inter-arrival gaps with mean
    /// `1 / rate` ticks.
    Poisson {
        /// Mean arrival rate in requests per tick; finite and positive.
        rate: f64,
    },
    /// Bursty (batch-Poisson) arrivals: burst epochs arrive as a Poisson
    /// process at rate `rate / burst`, and every request in a burst
    /// shares its epoch's arrival time — same long-run rate as
    /// [`ArrivalModel::Poisson`], far heavier instantaneous load.
    Bursty {
        /// Mean arrival rate in requests per tick; finite and positive.
        rate: f64,
        /// Requests per burst epoch (minimum 1).
        burst: usize,
    },
}

impl ArrivalModel {
    /// The long-run offered load in requests per tick (∞ for
    /// [`ArrivalModel::Closed`]).
    #[must_use]
    pub fn rate(&self) -> f64 {
        match *self {
            ArrivalModel::Closed => f64::INFINITY,
            ArrivalModel::Poisson { rate } | ArrivalModel::Bursty { rate, .. } => rate,
        }
    }

    /// Whether the model's parameters are usable (finite positive rate,
    /// non-zero burst).
    #[must_use]
    pub fn is_valid(&self) -> bool {
        match *self {
            ArrivalModel::Closed => true,
            ArrivalModel::Poisson { rate } => rate.is_finite() && rate > 0.0,
            ArrivalModel::Bursty { rate, burst } => rate.is_finite() && rate > 0.0 && burst >= 1,
        }
    }

    /// Draws a replayable arrival schedule for `count` requests:
    /// non-decreasing virtual arrival times in tick units, fully
    /// determined by `(self, seed)`.
    ///
    /// # Example
    ///
    /// ```
    /// use safelight_serve::scheduler::ArrivalModel;
    ///
    /// let model = ArrivalModel::Poisson { rate: 4.0 };
    /// let a = model.schedule(100, 7);
    /// let b = model.schedule(100, 7);
    /// assert_eq!(a, b); // replay-deterministic per (seed, rate)
    /// assert!(a.windows(2).all(|w| w[0] <= w[1]));
    /// ```
    #[must_use]
    pub fn schedule(&self, count: usize, seed: u64) -> Vec<f64> {
        match *self {
            ArrivalModel::Closed => vec![0.0; count],
            ArrivalModel::Poisson { rate } => {
                let mut rng = SimRng::seed_from(fold(fold(seed, ARRIVAL_STREAM), rate.to_bits()));
                let mut t = 0.0;
                (0..count)
                    .map(|_| {
                        t += exponential(&mut rng, rate);
                        t
                    })
                    .collect()
            }
            ArrivalModel::Bursty { rate, burst } => {
                let burst = burst.max(1);
                let mut rng = SimRng::seed_from(fold(
                    fold(fold(seed, ARRIVAL_STREAM), rate.to_bits()),
                    burst as u64,
                ));
                let epoch_rate = rate / burst as f64;
                let mut out = Vec::with_capacity(count);
                let mut t = 0.0;
                while out.len() < count {
                    t += exponential(&mut rng, epoch_rate);
                    for _ in 0..burst.min(count - out.len()) {
                        out.push(t);
                    }
                }
                out
            }
        }
    }
}

/// Inverse-CDF exponential draw with the given rate; `1 - u` keeps the
/// argument in `(0, 1]` so the draw is finite and non-negative.
fn exponential(rng: &mut SimRng, rate: f64) -> f64 {
    -(1.0 - rng.uniform()).ln() / rate
}

impl fmt::Display for ArrivalModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ArrivalModel::Closed => write!(f, "closed"),
            ArrivalModel::Poisson { rate } => write!(f, "poisson:{rate}"),
            ArrivalModel::Bursty { rate, burst } => write!(f, "bursty:{rate}:{burst}"),
        }
    }
}

impl FromStr for ArrivalModel {
    type Err = String;

    /// Parses `closed` (aliases `inf`/`infinite`), `poisson:RATE`, or
    /// `bursty:RATE[:BURST]` (default burst 4), with rates in requests
    /// per tick.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split(':');
        let kind = parts.next().unwrap_or("");
        let model = match kind {
            "closed" | "inf" | "infinite" => ArrivalModel::Closed,
            "poisson" | "bursty" => {
                let rate: f64 = parts
                    .next()
                    .ok_or_else(|| format!("`{s}`: missing rate (e.g. `{kind}:8`)"))?
                    .parse()
                    .map_err(|e| format!("`{s}`: bad rate: {e}"))?;
                if kind == "poisson" {
                    ArrivalModel::Poisson { rate }
                } else {
                    let burst = match parts.next() {
                        Some(b) => b.parse().map_err(|e| format!("`{s}`: bad burst: {e}"))?,
                        None => 4,
                    };
                    ArrivalModel::Bursty { rate, burst }
                }
            }
            _ => {
                return Err(format!(
                    "`{s}`: expected `closed`, `poisson:RATE` or `bursty:RATE[:BURST]`"
                ))
            }
        };
        if parts.next().is_some() {
            return Err(format!("`{s}`: trailing fields"));
        }
        if !model.is_valid() {
            return Err(format!("`{s}`: rate must be finite and positive"));
        }
        Ok(model)
    }
}

/// A bounded FIFO admission queue over request stream positions.
///
/// Admission preserves arrival order; when the queue is full the offered
/// request is shed (counted, never served). Capacity 0 clamps to 1 so
/// the queue can always make progress.
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    capacity: usize,
    queue: VecDeque<usize>,
    shed: usize,
}

impl AdmissionQueue {
    /// An empty queue holding at most `capacity` admitted requests.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            queue: VecDeque::new(),
            shed: 0,
        }
    }

    /// Offers the request at stream position `index`; returns `false`
    /// (and counts it shed) when the queue is at capacity.
    pub fn offer(&mut self, index: usize) -> bool {
        if self.queue.len() >= self.capacity {
            self.shed += 1;
            return false;
        }
        self.queue.push_back(index);
        true
    }

    /// Takes up to `batch_size` requests off the front of the queue, in
    /// admission order — one continuous-batching micro-batch.
    #[must_use]
    pub fn take_batch(&mut self, batch_size: usize) -> Vec<usize> {
        let take = batch_size.max(1).min(self.queue.len());
        self.queue.drain(..take).collect()
    }

    /// Admitted-but-unserved requests currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Requests shed at admission so far.
    #[must_use]
    pub fn shed(&self) -> usize {
        self.shed
    }
}

/// Partitions `count` requests into contiguous micro-batches of at most
/// `batch_size` (minimum 1), in arrival order.
///
/// Every returned range is non-empty, the ranges are disjoint, ordered and
/// cover `0..count` exactly. This is the degenerate closed-loop schedule:
/// the continuous batcher at arrival rate ∞ produces exactly these
/// batches (a regression test in [`crate::runtime`] holds it to that).
///
/// # Example
///
/// ```
/// let batches = safelight_serve::scheduler::partition(10, 4);
/// assert_eq!(batches, vec![0..4, 4..8, 8..10]);
/// ```
#[must_use]
pub fn partition(count: usize, batch_size: usize) -> Vec<std::ops::Range<usize>> {
    let batch_size = batch_size.max(1);
    let mut out = Vec::with_capacity(count.div_ceil(batch_size));
    let mut start = 0;
    while start < count {
        let end = (start + batch_size).min(count);
        out.push(start..end);
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn partition_handles_edges() {
        assert!(partition(0, 8).is_empty());
        assert_eq!(partition(1, 8), vec![0..1]);
        assert_eq!(partition(8, 8), vec![0..8]);
        // A zero batch size clamps to one request per batch.
        assert_eq!(partition(3, 0), vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn arrival_model_round_trips_through_strings() {
        for (text, model) in [
            ("closed", ArrivalModel::Closed),
            ("poisson:8", ArrivalModel::Poisson { rate: 8.0 }),
            (
                "bursty:2.5:6",
                ArrivalModel::Bursty {
                    rate: 2.5,
                    burst: 6,
                },
            ),
        ] {
            let parsed: ArrivalModel = text.parse().unwrap();
            assert_eq!(parsed, model);
            assert_eq!(parsed.to_string().parse::<ArrivalModel>().unwrap(), model);
        }
        // Aliases and the default burst.
        assert_eq!("inf".parse::<ArrivalModel>().unwrap(), ArrivalModel::Closed);
        assert_eq!(
            "bursty:4".parse::<ArrivalModel>().unwrap(),
            ArrivalModel::Bursty {
                rate: 4.0,
                burst: 4
            }
        );
        // Degenerate rates and malformed strings are rejected.
        for bad in [
            "poisson:0",
            "poisson:-1",
            "poisson:inf",
            "poisson",
            "drip:3",
            "poisson:2:3",
        ] {
            assert!(bad.parse::<ArrivalModel>().is_err(), "`{bad}` parsed");
        }
    }

    #[test]
    fn closed_schedule_is_all_zeros() {
        assert_eq!(ArrivalModel::Closed.schedule(5, 99), vec![0.0; 5]);
    }

    proptest! {
        #[test]
        fn partition_preserves_order_and_drops_nothing(
            count in 0usize..500,
            batch_size in 0usize..33,
        ) {
            let ranges = partition(count, batch_size);
            // Contiguous, ordered, non-empty and exactly covering.
            let mut cursor = 0usize;
            for r in &ranges {
                prop_assert_eq!(r.start, cursor);
                prop_assert!(r.end > r.start);
                prop_assert!(r.end - r.start <= batch_size.max(1));
                cursor = r.end;
            }
            prop_assert_eq!(cursor, count);
            // Only the tail batch may be short.
            for r in ranges.iter().rev().skip(1) {
                prop_assert_eq!(r.end - r.start, batch_size.max(1));
            }
        }

        #[test]
        fn schedules_are_replay_deterministic_and_monotone(
            count in 0usize..300,
            rate_milli in 1u32..20_000,
            burst in 1usize..9,
            seed in 0u64..u64::MAX,
        ) {
            let rate = f64::from(rate_milli) / 1e3;
            for model in [
                ArrivalModel::Poisson { rate },
                ArrivalModel::Bursty { rate, burst },
            ] {
                let a = model.schedule(count, seed);
                // Same (model, seed) ⇒ the same schedule, draw for draw.
                prop_assert_eq!(&a, &model.schedule(count, seed));
                prop_assert_eq!(a.len(), count);
                for w in a.windows(2) {
                    prop_assert!(w[0] <= w[1]);
                }
                for t in &a {
                    prop_assert!(t.is_finite() && *t >= 0.0);
                }
            }
        }

        #[test]
        fn bursty_and_poisson_streams_differ_per_seed(
            rate_milli in 100u32..10_000,
            seed in 0u64..u64::MAX,
        ) {
            // Distinct seeds must not alias into the same arrival draws
            // (the schedule is keyed on seed, not just on the model).
            let rate = f64::from(rate_milli) / 1e3;
            let model = ArrivalModel::Poisson { rate };
            prop_assert!(model.schedule(16, seed) != model.schedule(16, seed ^ 0xDEAD_BEEF));
        }

        #[test]
        fn admission_never_reorders_admitted_requests(
            capacity in 1usize..12,
            offered in 0usize..200,
            drain in 0usize..5,
        ) {
            // Interleave offers with partial drains; everything popped
            // must come out in strictly increasing stream order and every
            // offer is either admitted or counted shed.
            let mut queue = AdmissionQueue::new(capacity);
            let mut admitted = 0usize;
            let mut popped = Vec::new();
            for index in 0..offered {
                if queue.offer(index) {
                    admitted += 1;
                }
                if index % 7 == drain {
                    popped.extend(queue.take_batch(2));
                }
            }
            while !queue.is_empty() {
                popped.extend(queue.take_batch(3));
            }
            prop_assert!(popped.windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(popped.len(), admitted);
            prop_assert_eq!(admitted + queue.shed(), offered);
        }
    }
}
