//! Seeded fault injection for the serving pipeline.
//!
//! [`FaultyDetector`] wraps a detector and corrupts its verdicts. Its
//! per-window corruption rate exercises *verdict*-level resilience (the
//! pipeline's validation and fallback), but a serving pipeline fails in
//! richer ways: the model stalls (latency spikes), errors arrive in
//! bursts (a bad shard, a poisoned cache), or the primary goes hard-down
//! for a stretch (OOM-kill, wedged accelerator). [`ChaosSchedule`]
//! generates exactly those patterns from a seed, one [`ChaosEvent`] per
//! window, as a pure function of `(config, seed, window index)` — so a
//! chaos run is replayable bit-for-bit, at any worker count, and tests
//! can assert on the precise fault sequence.
//!
//! Attach a schedule to a [`FaultyDetector`] via
//! [`with_schedule`](FaultyDetector::with_schedule); drive it
//! through a [`StreamingPipeline`](crate::StreamingPipeline) to watch the
//! circuit breaker and deadline machinery respond.

use crate::detector::Detector;
use crate::traffic::Flow;
use pelican_tensor::SeededRng;

/// What the chaos source does to one window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEvent {
    /// The window is served cleanly.
    Healthy,
    /// The verdict is correct but arrives `ticks` of virtual latency late
    /// (drained by the pipeline via
    /// [`Detector::take_stall_ticks`](crate::Detector::take_stall_ticks)).
    Stall(u64),
    /// The verdict is corrupted (truncated / emptied / out-of-range
    /// class), part of a transient error burst.
    Corrupt,
    /// The primary is hard-down for this window: it panics when panics
    /// are enabled, otherwise returns an empty (structurally invalid)
    /// verdict.
    Down,
}

/// Shape of the fault schedule.
///
/// Rates are per *healthy* window probabilities of entering the
/// corresponding episode; burst and down episodes then persist for a
/// duration drawn uniformly from the configured range, overriding the
/// other fault kinds until they end (down takes precedence over burst).
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Probability a healthy window stalls (isolated latency spike).
    pub stall_rate: f32,
    /// Stall magnitude in virtual ticks, drawn uniformly from
    /// `min..=max`.
    pub stall_ticks: (u64, u64),
    /// Probability a transient error burst starts on a healthy window.
    pub burst_rate: f32,
    /// Burst length in windows, drawn uniformly from `min..=max`.
    pub burst_len: (usize, usize),
    /// Probability a hard-down period starts on a healthy window.
    pub down_rate: f32,
    /// Hard-down length in windows, drawn uniformly from `min..=max`.
    pub down_len: (usize, usize),
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            stall_rate: 0.1,
            stall_ticks: (50, 200),
            burst_rate: 0.05,
            burst_len: (2, 5),
            down_rate: 0.02,
            down_len: (3, 8),
        }
    }
}

impl ChaosConfig {
    /// A schedule that never faults — the control arm of a chaos test.
    pub fn quiet() -> Self {
        Self {
            stall_rate: 0.0,
            stall_ticks: (0, 0),
            burst_rate: 0.0,
            burst_len: (0, 0),
            down_rate: 0.0,
            down_len: (0, 0),
        }
    }
}

/// A deterministic per-window fault schedule.
///
/// Every event is drawn from a [`SeededRng`] with a fixed draw order, so
/// two schedules built from the same `(config, seed)` emit the same
/// sequence of events — the foundation for replayable chaos tests. The
/// full event history is kept in [`log`](ChaosSchedule::log) for
/// assertions.
#[derive(Debug)]
pub struct ChaosSchedule {
    config: ChaosConfig,
    rng: SeededRng,
    burst_left: usize,
    down_left: usize,
    log: Vec<ChaosEvent>,
}

impl ChaosSchedule {
    /// A schedule driven by `seed`.
    pub fn new(config: ChaosConfig, seed: u64) -> Self {
        Self {
            config,
            rng: SeededRng::new(seed ^ 0xC4A05),
            burst_left: 0,
            down_left: 0,
            log: Vec::new(),
        }
    }

    fn span(rng: &mut SeededRng, (lo, hi): (usize, usize)) -> usize {
        lo + rng.index(hi.saturating_sub(lo) + 1)
    }

    /// Draws the event for the next window and records it in the log.
    ///
    /// The draw order is fixed (down-start, burst-start, stall, then any
    /// magnitudes), so the schedule depends only on the seed and how many
    /// windows have been drawn — never on what the pipeline did with
    /// earlier events.
    pub fn next_event(&mut self) -> ChaosEvent {
        let event = if self.down_left > 0 {
            self.down_left -= 1;
            ChaosEvent::Down
        } else if self.burst_left > 0 {
            self.burst_left -= 1;
            ChaosEvent::Corrupt
        } else if self.rng.uniform() < self.config.down_rate {
            let len = Self::span(&mut self.rng, self.config.down_len).max(1);
            self.down_left = len - 1;
            ChaosEvent::Down
        } else if self.rng.uniform() < self.config.burst_rate {
            let len = Self::span(&mut self.rng, self.config.burst_len).max(1);
            self.burst_left = len - 1;
            ChaosEvent::Corrupt
        } else if self.rng.uniform() < self.config.stall_rate {
            let (lo, hi) = self.config.stall_ticks;
            let ticks = lo + self.rng.index((hi.saturating_sub(lo) + 1) as usize) as u64;
            ChaosEvent::Stall(ticks)
        } else {
            ChaosEvent::Healthy
        };
        self.log.push(event);
        event
    }

    /// Every event drawn so far, in window order.
    pub fn log(&self) -> &[ChaosEvent] {
        &self.log
    }

    /// Windows drawn so far.
    pub fn windows(&self) -> usize {
        self.log.len()
    }
}

/// The ways [`FaultyDetector`] corrupts a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DetectorFault {
    /// Drop the second half of the predictions (wrong length).
    Truncate,
    /// Return nothing at all (a stalled model).
    Stall,
    /// Replace a prediction with an absurd class index.
    Garbage,
    /// Panic mid-classification.
    Panic,
}

/// A seeded chaos wrapper corrupting an inner detector's output.
///
/// Two modes:
///
/// * **Rate mode** (the default): at the configured per-window rate it
///   truncates the verdict, returns an empty one, injects out-of-range
///   class indices, or (only when enabled via
///   [`with_panics`](FaultyDetector::with_panics)) panics outright —
///   exactly the failure modes the
///   [`StreamingPipeline`](crate::StreamingPipeline) absorbs.
/// * **Schedule mode** (via
///   [`with_schedule`](FaultyDetector::with_schedule)): a
///   [`ChaosSchedule`] dictates per-window events, adding the pipeline-
///   level failure shapes — virtual-clock stalls (reported through
///   [`Detector::take_stall_ticks`]), transient corruption bursts, and
///   hard-down periods — all replayable from the seed.
pub struct FaultyDetector<D: Detector> {
    inner: D,
    rng: SeededRng,
    rate: f32,
    panics: bool,
    injected: usize,
    schedule: Option<ChaosSchedule>,
    stall_pending: u64,
    stalled: usize,
}

impl<D: Detector> FaultyDetector<D> {
    /// Corrupts roughly `rate` of windows (clamped to `[0, 1]`).
    pub fn new(inner: D, seed: u64, rate: f32) -> Self {
        Self {
            inner,
            rng: SeededRng::new(seed),
            rate: rate.clamp(0.0, 1.0),
            panics: false,
            injected: 0,
            schedule: None,
            stall_pending: 0,
            stalled: 0,
        }
    }

    /// Also inject panics (off by default: a panicking detector aborts
    /// any harness that does not catch it). In schedule mode this governs
    /// whether [`ChaosEvent::Down`] windows panic or return an empty
    /// verdict.
    pub fn with_panics(mut self, panics: bool) -> Self {
        self.panics = panics;
        self
    }

    /// Switches to schedule mode: `schedule` decides every window's fate
    /// and the per-window corruption rate is ignored.
    pub fn with_schedule(mut self, schedule: ChaosSchedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Windows corrupted so far (in schedule mode: corrupt + down
    /// windows; stalls deliver a correct verdict and are counted by
    /// [`stalled`](FaultyDetector::stalled) instead).
    pub fn injected(&self) -> usize {
        self.injected
    }

    /// Windows that incurred an injected stall so far.
    pub fn stalled(&self) -> usize {
        self.stalled
    }

    /// The chaos schedule, if attached — its
    /// [`log`](ChaosSchedule::log) is the ground-truth fault sequence for
    /// determinism assertions.
    pub fn schedule(&self) -> Option<&ChaosSchedule> {
        self.schedule.as_ref()
    }

    /// Applies one rate-mode corruption to `preds`.
    fn corrupt(&mut self, preds: &mut Vec<usize>, allow_panic: bool) {
        let faults: &[DetectorFault] = if allow_panic {
            &[
                DetectorFault::Truncate,
                DetectorFault::Stall,
                DetectorFault::Garbage,
                DetectorFault::Panic,
            ]
        } else {
            &[
                DetectorFault::Truncate,
                DetectorFault::Stall,
                DetectorFault::Garbage,
            ]
        };
        match faults[self.rng.index(faults.len())] {
            DetectorFault::Truncate => {
                let half = preds.len() / 2;
                preds.truncate(half);
            }
            DetectorFault::Stall => preds.clear(),
            DetectorFault::Garbage => {
                if !preds.is_empty() {
                    let i = self.rng.index(preds.len());
                    preds[i] = usize::MAX;
                }
            }
            DetectorFault::Panic => panic!("injected detector fault"),
        }
    }
}

impl<D: Detector> Detector for FaultyDetector<D> {
    fn classify(&mut self, window: &[Flow]) -> Vec<usize> {
        if let Some(schedule) = self.schedule.as_mut() {
            // Schedule mode: the event is drawn before touching the inner
            // detector so the schedule stays a pure function of the seed
            // and the window count.
            let event = schedule.next_event();
            return match event {
                ChaosEvent::Healthy => self.inner.classify(window),
                ChaosEvent::Stall(ticks) => {
                    self.stall_pending = self.stall_pending.saturating_add(ticks);
                    self.stalled += 1;
                    self.inner.classify(window)
                }
                ChaosEvent::Corrupt => {
                    self.injected += 1;
                    let mut preds = self.inner.classify(window);
                    self.corrupt(&mut preds, false);
                    preds
                }
                ChaosEvent::Down => {
                    self.injected += 1;
                    if self.panics {
                        panic!("injected hard-down period");
                    }
                    Vec::new()
                }
            };
        }
        let mut preds = self.inner.classify(window);
        if self.rng.uniform() >= self.rate {
            return preds;
        }
        self.injected += 1;
        let allow_panic = self.panics;
        self.corrupt(&mut preds, allow_panic);
        preds
    }

    fn name(&self) -> &'static str {
        "faulty"
    }

    fn take_stall_ticks(&mut self) -> u64 {
        std::mem::take(&mut self.stall_pending) + self.inner.take_stall_ticks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::OracleDetector;
    use crate::traffic::TrafficStream;

    fn window(n: usize) -> Vec<Flow> {
        TrafficStream::nslkdd(0.3, 4).next_window(n)
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = ChaosConfig::default();
        let mut a = ChaosSchedule::new(cfg, 42);
        let mut b = ChaosSchedule::new(cfg, 42);
        for _ in 0..200 {
            assert_eq!(a.next_event(), b.next_event());
        }
        assert_eq!(a.log(), b.log());
    }

    #[test]
    fn different_seeds_diverge() {
        let cfg = ChaosConfig {
            stall_rate: 0.5,
            ..Default::default()
        };
        let mut a = ChaosSchedule::new(cfg, 1);
        let mut b = ChaosSchedule::new(cfg, 2);
        let ea: Vec<_> = (0..100).map(|_| a.next_event()).collect();
        let eb: Vec<_> = (0..100).map(|_| b.next_event()).collect();
        assert_ne!(ea, eb, "seeds must decorrelate schedules");
    }

    #[test]
    fn quiet_schedule_never_faults() {
        let mut s = ChaosSchedule::new(ChaosConfig::quiet(), 7);
        for _ in 0..50 {
            assert_eq!(s.next_event(), ChaosEvent::Healthy);
        }
    }

    #[test]
    fn episodes_persist_for_their_drawn_length() {
        // Force an immediate hard-down episode of a known length range and
        // verify it runs in one contiguous block.
        let cfg = ChaosConfig {
            stall_rate: 0.0,
            burst_rate: 0.0,
            down_rate: 1.0,
            down_len: (4, 4),
            ..ChaosConfig::quiet()
        };
        let mut s = ChaosSchedule::new(cfg, 3);
        let events: Vec<_> = (0..8).map(|_| s.next_event()).collect();
        assert!(events.iter().all(|e| *e == ChaosEvent::Down));
        // With down_rate 1.0 every post-episode window starts a new one,
        // so all 8 are Down — and the episode counter never yields a
        // non-Down gap inside the first drawn span of 4.
        assert_eq!(s.windows(), 8);
    }

    #[test]
    fn stall_ticks_stay_in_range() {
        let cfg = ChaosConfig {
            stall_rate: 1.0,
            stall_ticks: (10, 20),
            burst_rate: 0.0,
            down_rate: 0.0,
            ..ChaosConfig::quiet()
        };
        let mut s = ChaosSchedule::new(cfg, 11);
        for _ in 0..100 {
            match s.next_event() {
                ChaosEvent::Stall(t) => assert!((10..=20).contains(&t), "stall {t}"),
                other => panic!("expected stall, got {other:?}"),
            }
        }
    }

    #[test]
    fn faulty_detector_injects_at_rate() {
        let mut det = FaultyDetector::new(OracleDetector::new(1.0, 0.0, 2), 9, 1.0);
        let w = window(20);
        for _ in 0..10 {
            det.classify(&w);
        }
        assert_eq!(det.injected(), 10, "rate 1.0 corrupts every window");
        let mut clean = FaultyDetector::new(OracleDetector::new(1.0, 0.0, 2), 9, 0.0);
        for _ in 0..10 {
            let preds = clean.classify(&w);
            assert_eq!(preds.len(), w.len());
        }
        assert_eq!(clean.injected(), 0);
    }

    #[test]
    fn faulty_schedule_replays_bit_identically() {
        use pelican_runtime::{with_exec, with_workers, ExecConfig};
        let chaos = ChaosConfig {
            stall_rate: 0.3,
            stall_ticks: (10, 40),
            burst_rate: 0.2,
            burst_len: (1, 3),
            down_rate: 0.1,
            down_len: (2, 4),
        };
        let run = || {
            let mut det = FaultyDetector::new(OracleDetector::new(1.0, 0.0, 2), 7, 0.0)
                .with_schedule(ChaosSchedule::new(chaos, 99));
            let mut stream = TrafficStream::nslkdd(0.2, 13);
            let mut preds = Vec::new();
            let mut stalls = Vec::new();
            for _ in 0..30 {
                let w = stream.next_window(12);
                preds.push(det.classify(&w));
                stalls.push(det.take_stall_ticks());
            }
            let log = det.schedule().expect("schedule attached").log().to_vec();
            (preds, stalls, log, det.injected(), det.stalled())
        };
        // Same seed + schedule ⇒ identical corruption/stall sequence on a
        // second run…
        let first = with_exec(ExecConfig::serial(), run);
        let second = with_exec(ExecConfig::serial(), run);
        assert_eq!(first, second, "schedule must replay identically");
        // …and across worker counts (the in-process analogue of
        // PELICAN_THREADS=1 vs =4; scripts/check.sh also runs the whole
        // suite under both env settings).
        let pooled = with_workers(4, run);
        assert_eq!(first, pooled, "schedule must not depend on workers");
        assert!(
            first.3 > 0 && first.4 > 0,
            "the chosen rates must actually inject faults and stalls"
        );
    }
}
