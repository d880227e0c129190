//! The supervised streaming detection pipeline — the one way a detector
//! is served.
//!
//! A NIDS that crashes is worse than a NIDS that misses: the monitored
//! link keeps carrying traffic whether or not the model is healthy. So
//! every window's verdict is validated, and a malformed one (wrong
//! length, out-of-range classes), a panic, or an oversized window degrades
//! that window to a fallback detector instead of taking the deployment
//! down. Around that per-window contract sits the serving loop the
//! deployment diagram needs:
//!
//! * a **bounded ingest queue** of [`PipelineConfig::queue_capacity`]
//!   windows with an explicit [`ShedPolicy`] — block the producer, shed
//!   the oldest window, or route overflow straight to the fallback tier;
//! * a **deterministic deadline budget** per window, measured on the
//!   pipeline's virtual clock in cost-model ticks, not wall time, so the
//!   same run sheds and degrades identically at every `PELICAN_THREADS`
//!   setting;
//! * a **circuit breaker** around the primary — closed → open after K
//!   consecutive failures or a failure fraction over a sliding window,
//!   half-open probing with exponential backoff before re-admitting it;
//! * a **health surface** ([`PipelineHealth`]) counting
//!   every enqueue, shed, degrade, deadline miss, and breaker transition,
//!   exported through [`SimReport`](crate::SimReport).
//!
//! [`PipelineConfig::pass_through`] switches the queue, deadline and
//! breaker off, leaving only the per-window validation: the plain
//! "classify every window, fall back on a bad verdict" deployment.
//!
//! The pipeline is a single-server queueing model: windows arrive
//! [`CostModel::arrival_ticks`] apart, each costs the configured ticks
//! per flow on the chosen tier (plus any stall the detector reports via
//! [`Detector::take_stall_ticks`]), and a window's verdict is late when
//! it completes after `arrival + deadline_ticks`. Everything is integer
//! arithmetic over the virtual clock — bit-reproducible by construction.

use crate::detector::Detector;
use crate::traffic::Flow;
use pelican_observe as observe;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What the pipeline tolerates from the primary, per window.
///
/// # Boundary semantics
///
/// Both bounds are **inclusive on the accepting side**:
///
/// * a window with exactly `flow_budget` flows is still served by the
///   primary (`len > flow_budget` degrades);
/// * a prediction of exactly `class_bound - 1` is still valid
///   (`class >= class_bound` degrades).
///
/// Degenerate configurations are well-defined rather than rejected:
/// `class_bound == 0` means *no* prediction is valid, so every non-empty
/// window degrades to the fallback (an empty window vacuously passes
/// validation); `flow_budget == 0` sends every non-empty window straight
/// to the fallback without invoking the primary. Both are useful as a
/// "force fallback" switch in drills.
#[derive(Debug, Clone, Copy)]
pub struct ResilienceConfig {
    /// Predictions must be `< class_bound`; anything larger is treated as
    /// corrupted output and degrades the window. `0` degrades every
    /// non-empty window.
    pub class_bound: usize,
    /// Largest window (inclusive) the primary detector is asked to
    /// classify. Bigger windows go straight to the fallback — overload
    /// protection for a model with a fixed inference budget. `0` routes
    /// every non-empty window to the fallback.
    pub flow_budget: usize,
    /// Catch panics from the primary (a poisoned network deep in a
    /// tensor op) and degrade instead of unwinding through the pipeline.
    pub catch_panics: bool,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            class_bound: 64,
            flow_budget: 10_000,
            catch_panics: true,
        }
    }
}

/// The structural validity check on a primary verdict: exactly one class
/// per flow and every class `< class_bound`. An empty verdict over an
/// empty window is valid (vacuously — there is nothing to get wrong).
fn verdict_is_valid(preds: &[usize], window_len: usize, class_bound: usize) -> bool {
    preds.len() == window_len && preds.iter().all(|&c| c < class_bound)
}

/// How ingest resolves a full queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Backpressure: stall the producer until the server frees a slot.
    /// Nothing is dropped; arrival times (and therefore deadlines) of
    /// later windows slip instead.
    Block,
    /// Drop the oldest queued window. Freshness wins: a stale window's
    /// verdict is operationally useless by the time it would be served.
    ShedOldest,
    /// Route the overflowing window straight to the fallback tier,
    /// bypassing the queue and the primary entirely.
    DegradeToFallback,
}

/// Circuit-breaker thresholds and backoff shape.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Open after this many consecutive primary failures.
    pub consecutive_failures: usize,
    /// Sliding window of recent primary outcomes to watch (0 disables
    /// fraction-based opening).
    pub outcome_window: usize,
    /// Open when at least this fraction of the full outcome window
    /// failed.
    pub failure_fraction: f32,
    /// Base open duration in virtual ticks; each reopen doubles it.
    pub open_ticks: u64,
    /// Cap on the exponential backoff.
    pub max_open_ticks: u64,
    /// Consecutive half-open probe successes required to close.
    pub half_open_probes: usize,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            consecutive_failures: 3,
            outcome_window: 8,
            failure_fraction: 0.5,
            open_ticks: 64,
            max_open_ticks: 1024,
            half_open_probes: 2,
        }
    }
}

/// The breaker's externally visible state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Primary in service; outcomes are being watched.
    Closed,
    /// Primary out of service until the backoff expires.
    Open,
    /// Backoff expired; a limited number of probe windows test the
    /// primary before it is re-admitted.
    HalfOpen,
}

/// A circuit breaker over primary-detector outcomes, driven entirely by
/// virtual-clock ticks.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive: usize,
    recent: VecDeque<bool>,
    open_until: u64,
    reopen_count: u32,
    probe_successes: usize,
    transitions: Vec<(u64, BreakerState)>,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub fn new(config: BreakerConfig) -> Self {
        Self {
            config,
            state: BreakerState::Closed,
            consecutive: 0,
            recent: VecDeque::new(),
            open_until: 0,
            reopen_count: 0,
            probe_successes: 0,
            transitions: Vec::new(),
        }
    }

    /// Current state (as of the last [`admits`](CircuitBreaker::admits) or
    /// [`record`](CircuitBreaker::record) call).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Every state transition as `(tick, entered state)`, in order.
    pub fn transitions(&self) -> &[(u64, BreakerState)] {
        &self.transitions
    }

    /// Times the breaker has opened.
    pub fn opens(&self) -> usize {
        self.transitions
            .iter()
            .filter(|(_, s)| *s == BreakerState::Open)
            .count()
    }

    fn transition(&mut self, now: u64, state: BreakerState) {
        self.state = state;
        self.transitions.push((now, state));
        observe::event(
            "pipeline.breaker",
            &[
                ("at", now.into()),
                (
                    "state",
                    match state {
                        BreakerState::Closed => "closed",
                        BreakerState::Open => "open",
                        BreakerState::HalfOpen => "half_open",
                    }
                    .into(),
                ),
            ],
        );
    }

    /// Whether a window starting at `now` may be sent to the primary.
    /// An open breaker whose backoff has expired moves to half-open here.
    pub fn admits(&mut self, now: u64) -> bool {
        if self.state == BreakerState::Open && now >= self.open_until {
            self.probe_successes = 0;
            self.transition(now, BreakerState::HalfOpen);
        }
        self.state != BreakerState::Open
    }

    /// Whether the current admission is a half-open probe.
    pub fn probing(&self) -> bool {
        self.state == BreakerState::HalfOpen
    }

    fn backoff(&self) -> u64 {
        let doublings = self.reopen_count.min(32);
        self.config
            .open_ticks
            .saturating_mul(1u64 << doublings.min(63))
            .min(self.config.max_open_ticks.max(self.config.open_ticks))
    }

    fn trip(&mut self, now: u64) {
        self.open_until = now.saturating_add(self.backoff());
        self.reopen_count = self.reopen_count.saturating_add(1);
        self.consecutive = 0;
        self.recent.clear();
        self.transition(now, BreakerState::Open);
    }

    /// Records the outcome of a primary invocation that started at `now`.
    pub fn record(&mut self, now: u64, ok: bool) {
        match self.state {
            BreakerState::Open => {
                // A straggler outcome from before the trip; ignore.
            }
            BreakerState::HalfOpen => {
                if ok {
                    self.probe_successes += 1;
                    if self.probe_successes >= self.config.half_open_probes.max(1) {
                        self.reopen_count = 0;
                        self.transition(now, BreakerState::Closed);
                    }
                } else {
                    // A failed probe re-opens with a longer backoff.
                    self.trip(now);
                }
            }
            BreakerState::Closed => {
                self.consecutive = if ok { 0 } else { self.consecutive + 1 };
                if self.config.outcome_window > 0 {
                    self.recent.push_back(ok);
                    while self.recent.len() > self.config.outcome_window {
                        self.recent.pop_front();
                    }
                }
                let consecutive_trip = self.consecutive >= self.config.consecutive_failures.max(1);
                let fraction_trip = self.config.outcome_window > 0
                    && self.recent.len() == self.config.outcome_window
                    && {
                        let failures = self.recent.iter().filter(|&&r| !r).count();
                        failures as f32
                            >= self.config.failure_fraction * self.config.outcome_window as f32
                    };
                if consecutive_trip || fraction_trip {
                    self.trip(now);
                }
            }
        }
    }
}

/// Virtual-clock costs of the two serving tiers.
///
/// The defaults model the Residual-41 primary as ~10× the per-flow cost
/// of the plain fallback tier (LuNet-style blocks without the residual
/// stack), which is what makes "degrade to fallback under deadline
/// pressure" a meaningful trade.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Clock advance per arriving window (inter-window gap).
    pub arrival_ticks: u64,
    /// Fixed primary cost per window.
    pub primary_base: u64,
    /// Primary cost per flow in the window.
    pub primary_per_flow: u64,
    /// Fixed fallback cost per window.
    pub fallback_base: u64,
    /// Fallback cost per flow in the window.
    pub fallback_per_flow: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            arrival_ticks: 100,
            primary_base: 10,
            primary_per_flow: 1,
            fallback_base: 1,
            fallback_per_flow: 0,
        }
    }
}

impl CostModel {
    fn primary_cost(&self, flows: usize) -> u64 {
        self.primary_base
            .saturating_add(self.primary_per_flow.saturating_mul(flows as u64))
    }

    fn fallback_cost(&self, flows: usize) -> u64 {
        self.fallback_base
            .saturating_add(self.fallback_per_flow.saturating_mul(flows as u64))
    }
}

/// Everything the pipeline needs to know about its shape and policies.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Ingest queue capacity in windows.
    pub queue_capacity: usize,
    /// Overflow policy when the queue is full.
    pub shed: ShedPolicy,
    /// Deadline budget per window, in ticks from its arrival.
    pub deadline_ticks: u64,
    /// Tier costs and inter-arrival gap.
    pub cost: CostModel,
    /// Breaker thresholds.
    pub breaker: BreakerConfig,
    /// Verdict validation and panic containment.
    pub resilience: ResilienceConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 4,
            shed: ShedPolicy::DegradeToFallback,
            deadline_ticks: 400,
            cost: CostModel::default(),
            breaker: BreakerConfig::default(),
            resilience: ResilienceConfig::default(),
        }
    }
}

impl PipelineConfig {
    /// A pipeline that serves every window with the primary unless its
    /// verdict is invalid: the producer blocks on a deep queue, no
    /// deadline applies, and the breaker never trips, so only
    /// [`ResilienceConfig`] can send a window to the fallback.
    pub fn pass_through() -> Self {
        Self {
            queue_capacity: 1024,
            shed: ShedPolicy::Block,
            deadline_ticks: u64::MAX,
            cost: CostModel::default(),
            breaker: BreakerConfig {
                consecutive_failures: usize::MAX,
                outcome_window: 0,
                ..BreakerConfig::default()
            },
            resilience: ResilienceConfig::default(),
        }
    }
}

/// Which tier (if any) produced a window's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// The primary detector, verdict validated.
    Primary,
    /// The fallback tier (breaker open, deadline pressure, primary fault,
    /// or overflow under [`ShedPolicy::DegradeToFallback`]).
    Fallback,
    /// Never served: dropped by [`ShedPolicy::ShedOldest`]. `preds` is
    /// empty.
    Shed,
}

/// One window's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowVerdict {
    /// Ingest sequence number (0-based, in arrival order).
    pub id: usize,
    /// One predicted class per flow (empty for shed windows).
    pub preds: Vec<usize>,
    /// Which tier served the window.
    pub served_by: ServedBy,
    /// Whether the verdict completed after the window's deadline.
    pub deadline_missed: bool,
    /// Virtual tick the verdict completed at (shed windows: the tick they
    /// were dropped).
    pub completed_at: u64,
}

/// Per-stage health counters of a [`StreamingPipeline`].
///
/// The pipeline (ingest queue → circuit-broken primary → fallback tier)
/// increments these as it serves windows; they surface in
/// [`SimReport`](crate::SimReport) so a run's overload and failure
/// behaviour is as measurable as its detection rate. All counters are
/// window-granular.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineHealth {
    /// Windows accepted into the ingest queue.
    pub enqueued: usize,
    /// Windows fully served (by either tier).
    pub processed: usize,
    /// Windows dropped by the shed-oldest overflow policy (never served).
    pub shed: usize,
    /// Windows served by the fallback tier for any reason (breaker open,
    /// deadline pressure, primary fault, queue overflow under
    /// degrade-to-fallback).
    pub degraded: usize,
    /// Primary invocations that failed outright (invalid verdict or
    /// panic) — the events that feed the circuit breaker.
    pub primary_faults: usize,
    /// Windows whose verdict arrived after their deadline, plus windows
    /// preemptively degraded because the primary could not have met it.
    pub deadline_misses: usize,
    /// Closed/half-open → open breaker transitions.
    pub breaker_opens: usize,
    /// Windows short-circuited straight to the fallback while the breaker
    /// was open.
    pub breaker_fast_fails: usize,
    /// Half-open probe windows sent to the primary.
    pub breaker_probes: usize,
    /// Times the block overflow policy stalled ingest until the server
    /// freed a queue slot (cooperative backpressure engagements).
    pub backpressure_stalls: usize,
}

struct PendingWindow {
    id: usize,
    arrival: u64,
    /// Absolute tick the verdict must complete by; completing exactly at
    /// it is on time.
    deadline: u64,
    flows: Vec<Flow>,
}

/// The supervised streaming pipeline: bounded ingest, deadline-aware
/// two-tier serving, circuit breaking, health counters.
///
/// Drive it with [`ingest`](StreamingPipeline::ingest) per arriving
/// window and collect the tail with [`finish`](StreamingPipeline::finish);
/// or let [`Simulation::run_streaming`](crate::Simulation::run_streaming)
/// do both and fold the health counters into a
/// [`SimReport`](crate::SimReport).
pub struct StreamingPipeline<P: Detector, F: Detector> {
    primary: P,
    fallback: F,
    config: PipelineConfig,
    /// The virtual clock: only moves forward, and saturates at `u64::MAX`.
    now: u64,
    /// FIFO ingest queue, never longer than `queue_capacity.max(1)`.
    queue: VecDeque<PendingWindow>,
    breaker: CircuitBreaker,
    /// Tick the single server is busy until.
    busy_until: u64,
    health: PipelineHealth,
    next_id: usize,
}

impl<P: Detector, F: Detector> StreamingPipeline<P, F> {
    /// A pipeline serving `primary` with `fallback` as the cheap tier.
    pub fn new(primary: P, fallback: F, config: PipelineConfig) -> Self {
        Self {
            primary,
            fallback,
            now: 0,
            queue: VecDeque::new(),
            breaker: CircuitBreaker::new(config.breaker),
            busy_until: 0,
            health: PipelineHealth::default(),
            next_id: 0,
            config,
        }
    }

    /// Health counters so far.
    pub fn health(&self) -> &PipelineHealth {
        &self.health
    }

    /// The breaker, for inspecting state and transitions.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// The virtual clock's current tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The wrapped primary, e.g. to read a chaos log after a run.
    pub fn primary(&self) -> &P {
        &self.primary
    }

    /// Publishes the ingest queue depth; the gauge's max is the run's
    /// high-water mark. Called after every enqueue and dequeue.
    fn note_queue_depth(&self) {
        observe::gauge("pipeline.queue_depth", self.queue.len() as f64);
    }

    /// Counts a window whose verdict was (or would have been) late.
    fn miss_deadline(&mut self, id: usize, completed_at: u64) {
        self.health.deadline_misses += 1;
        observe::event(
            "pipeline.deadline_miss",
            &[("id", id.into()), ("completed_at", completed_at.into())],
        );
    }

    /// Serves one queued window starting at `start` and returns its
    /// verdict. Advances `busy_until` past the work done.
    fn serve(&mut self, window: PendingWindow, start: u64) -> WindowVerdict {
        let flows = window.flows;
        let n = flows.len();
        let cfg = &self.config;
        let primary_cost = cfg.cost.primary_cost(n);
        let over_budget = n > cfg.resilience.flow_budget;
        let predicted_miss = start.saturating_add(primary_cost) > window.deadline;

        let mut served_by = ServedBy::Fallback;
        let mut cost;
        let mut preds = None;

        let admitted = !over_budget && !predicted_miss && self.breaker.admits(start);
        if admitted {
            if self.breaker.probing() {
                self.health.breaker_probes += 1;
            }
            let primary = &mut self.primary;
            let verdict = if cfg.resilience.catch_panics {
                catch_unwind(AssertUnwindSafe(|| primary.classify(&flows))).ok()
            } else {
                Some(primary.classify(&flows))
            };
            let stall = self.primary.take_stall_ticks();
            cost = primary_cost.saturating_add(stall);
            let structurally_ok = matches!(
                &verdict,
                Some(p) if verdict_is_valid(p, n, cfg.resilience.class_bound)
            );
            // A verdict that arrives after the deadline is a failure even
            // when its contents are valid: persistent stalls must open
            // the breaker just like persistent corruption.
            let on_time = start.saturating_add(cost) <= window.deadline;
            self.breaker.record(start, structurally_ok && on_time);
            self.health.breaker_opens = self.breaker.opens();
            if structurally_ok {
                served_by = ServedBy::Primary;
                preds = verdict;
            } else {
                self.health.primary_faults += 1;
            }
        } else {
            cost = 0;
            if !over_budget && !predicted_miss {
                // Rejected by the open breaker: fast-fail to the fallback.
                self.health.breaker_fast_fails += 1;
            }
        }

        let preds = match preds {
            Some(p) => p,
            None => {
                // Fallback tier serves the window (its cost is added on
                // top of whatever the failed primary attempt burned).
                self.health.degraded += 1;
                let reason = if over_budget {
                    "flow_budget"
                } else if predicted_miss {
                    "predicted_miss"
                } else if !admitted {
                    "breaker_open"
                } else {
                    "primary_fault"
                };
                observe::event(
                    "pipeline.degrade",
                    &[("id", window.id.into()), ("reason", reason.into())],
                );
                cost = cost.saturating_add(cfg.cost.fallback_cost(n));
                self.fallback.classify(&flows)
            }
        };

        let completed_at = start.saturating_add(cost);
        self.busy_until = completed_at;
        let deadline_missed = completed_at > window.deadline;
        // A predicted miss never reaches the primary, so it is counted
        // here even though the fallback itself finished in time.
        if deadline_missed || predicted_miss {
            self.miss_deadline(window.id, completed_at);
        }
        self.health.processed += 1;
        WindowVerdict {
            id: window.id,
            preds,
            served_by,
            deadline_missed,
            completed_at,
        }
    }

    /// Serves every queued window whose service can start at or before
    /// the current tick.
    fn service_ready(&mut self, out: &mut Vec<WindowVerdict>) {
        while let Some(front) = self.queue.front() {
            let start = self.busy_until.max(front.arrival);
            if start > self.now {
                break;
            }
            let window = self.queue.pop_front().expect("front exists");
            self.note_queue_depth();
            let verdict = self.serve(window, start);
            out.push(verdict);
        }
    }

    /// Advances the clock to the tick the oldest queued window's service
    /// starts (if that is later) and serves what is ready by then, which
    /// includes that window.
    fn wait_for_front(&mut self, out: &mut Vec<WindowVerdict>) {
        if let Some(front) = self.queue.front() {
            self.now = self.now.max(self.busy_until.max(front.arrival));
            observe::set_tick(self.now);
            self.service_ready(out);
        }
    }

    /// Accepts the next window from the monitored link, advancing the
    /// virtual clock by the inter-arrival gap, and returns the verdicts
    /// of every window whose service completed by the new current tick
    /// (possibly none, possibly several).
    pub fn ingest(&mut self, flows: Vec<Flow>) -> Vec<WindowVerdict> {
        self.now = self.now.saturating_add(self.config.cost.arrival_ticks);
        let now = self.now;
        // Events and gauges from here on are stamped with the virtual
        // tick, so a recorded run exports identically at every thread
        // count.
        observe::set_tick(now);
        let mut out = Vec::new();
        self.service_ready(&mut out);

        let id = self.next_id;
        self.next_id += 1;
        let window = PendingWindow {
            id,
            arrival: now,
            deadline: now.saturating_add(self.config.deadline_ticks),
            flows,
        };
        if self.queue.len() >= self.config.queue_capacity.max(1) {
            match self.config.shed {
                ShedPolicy::Block => {
                    // Cooperative backpressure: the producer waits until
                    // the server starts (and thus dequeues) the oldest
                    // window, which frees a slot. The clock advances to
                    // that start tick — later arrivals slip.
                    self.health.backpressure_stalls += 1;
                    observe::event("pipeline.backpressure", &[("id", id.into())]);
                    self.wait_for_front(&mut out);
                }
                ShedPolicy::ShedOldest => {
                    let dropped = self.queue.pop_front().expect("a full queue is non-empty");
                    self.health.shed += 1;
                    observe::event("pipeline.shed", &[("id", dropped.id.into())]);
                    out.push(WindowVerdict {
                        id: dropped.id,
                        preds: Vec::new(),
                        served_by: ServedBy::Shed,
                        deadline_missed: true,
                        completed_at: now,
                    });
                }
                ShedPolicy::DegradeToFallback => {
                    // The fallback tier has its own capacity: overflow is
                    // served immediately at `now` without occupying the
                    // primary server.
                    self.health.degraded += 1;
                    self.health.processed += 1;
                    observe::event(
                        "pipeline.degrade",
                        &[("id", id.into()), ("reason", "overflow".into())],
                    );
                    let cost = self.config.cost.fallback_cost(window.flows.len());
                    let completed_at = now.saturating_add(cost);
                    let deadline_missed = completed_at > window.deadline;
                    if deadline_missed {
                        self.miss_deadline(id, completed_at);
                    }
                    out.push(WindowVerdict {
                        id,
                        preds: self.fallback.classify(&window.flows),
                        served_by: ServedBy::Fallback,
                        deadline_missed,
                        completed_at,
                    });
                    return out;
                }
            }
        }
        self.queue.push_back(window);
        self.health.enqueued += 1;
        self.note_queue_depth();
        out
    }

    /// Drains every remaining queued window (the producer has stopped;
    /// virtual time runs forward as far as the backlog needs) and returns
    /// their verdicts.
    pub fn finish(&mut self) -> Vec<WindowVerdict> {
        let mut out = Vec::new();
        while !self.queue.is_empty() {
            self.wait_for_front(&mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{AllNormalFallback, OracleDetector};
    use crate::traffic::TrafficStream;

    fn windows(n: usize, size: usize) -> Vec<Vec<Flow>> {
        let mut stream = TrafficStream::nslkdd(0.3, 5);
        (0..n).map(|_| stream.next_window(size)).collect()
    }

    fn run_all<P: Detector, F: Detector>(
        pipe: &mut StreamingPipeline<P, F>,
        windows: Vec<Vec<Flow>>,
    ) -> Vec<WindowVerdict> {
        let mut verdicts = Vec::new();
        for w in windows {
            verdicts.extend(pipe.ingest(w));
        }
        verdicts.extend(pipe.finish());
        verdicts.sort_by_key(|v| v.id);
        verdicts
    }

    #[test]
    fn healthy_pipeline_serves_everything_from_primary() {
        let mut pipe = StreamingPipeline::new(
            OracleDetector::new(1.0, 0.0, 1),
            AllNormalFallback,
            PipelineConfig::default(),
        );
        let ws = windows(10, 20);
        let lens: Vec<usize> = ws.iter().map(Vec::len).collect();
        let verdicts = run_all(&mut pipe, ws);
        assert_eq!(verdicts.len(), 10);
        for (v, len) in verdicts.iter().zip(lens) {
            assert_eq!(v.served_by, ServedBy::Primary);
            assert_eq!(v.preds.len(), len);
            assert!(!v.deadline_missed);
        }
        let h = pipe.health();
        assert_eq!(h.enqueued, 10);
        assert_eq!(h.processed, 10);
        assert_eq!(h.shed + h.degraded + h.deadline_misses + h.breaker_opens, 0);
        assert_eq!(pipe.breaker().state(), BreakerState::Closed);
    }

    #[test]
    fn healthy_primary_passes_through() {
        let w = windows(1, 50).remove(0);
        let mut pipe = StreamingPipeline::new(
            OracleDetector::new(1.0, 0.0, 1),
            AllNormalFallback,
            PipelineConfig::pass_through(),
        );
        let verdicts = run_all(&mut pipe, vec![w.clone()]);
        assert_eq!(verdicts[0].served_by, ServedBy::Primary);
        assert_eq!(pipe.health().degraded, 0);
        assert_eq!(verdicts[0].preds.len(), w.len());
        for (p, f) in verdicts[0].preds.iter().zip(&w) {
            assert_eq!(*p != 0, f.true_class != 0, "oracle verdict altered");
        }
    }

    #[test]
    fn oversized_window_hits_the_flow_budget() {
        let w = windows(1, 40).remove(0);
        let mut pipe = StreamingPipeline::new(
            OracleDetector::new(1.0, 0.0, 1),
            AllNormalFallback,
            PipelineConfig {
                resilience: ResilienceConfig {
                    flow_budget: 10,
                    ..Default::default()
                },
                ..PipelineConfig::pass_through()
            },
        );
        let verdicts = run_all(&mut pipe, vec![w.clone()]);
        assert_eq!(verdicts[0].served_by, ServedBy::Fallback);
        assert_eq!(pipe.health().degraded, 1, "budget breach must degrade");
        assert_eq!(pipe.health().primary_faults, 0, "the primary never ran");
        assert_eq!(verdicts[0].preds.len(), w.len());
        assert!(
            verdicts[0].preds.iter().all(|&p| p == 0),
            "fallback is all-normal"
        );
    }

    /// A primary that always returns garbage, to drive the breaker.
    struct AlwaysBroken;
    impl Detector for AlwaysBroken {
        fn classify(&mut self, window: &[Flow]) -> Vec<usize> {
            vec![usize::MAX; window.len()]
        }
        fn name(&self) -> &'static str {
            "always-broken"
        }
    }

    #[test]
    fn breaker_opens_on_consecutive_failures_and_fast_fails() {
        let mut pipe = StreamingPipeline::new(
            AlwaysBroken,
            AllNormalFallback,
            PipelineConfig {
                breaker: BreakerConfig {
                    consecutive_failures: 3,
                    outcome_window: 0,
                    open_ticks: 1_000_000, // never half-opens in this run
                    max_open_ticks: 1_000_000,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let verdicts = run_all(&mut pipe, windows(10, 10));
        assert_eq!(verdicts.len(), 10);
        assert!(verdicts.iter().all(|v| v.served_by == ServedBy::Fallback));
        let h = *pipe.health();
        assert_eq!(h.primary_faults, 3, "breaker opened after exactly K faults");
        assert_eq!(h.breaker_fast_fails, 7, "remaining windows fast-failed");
        assert_eq!(pipe.breaker().opens(), 1);
        assert_eq!(pipe.breaker().state(), BreakerState::Open);
        assert_eq!(h.degraded, 10);
    }

    #[test]
    fn breaker_recovers_through_half_open_probes() {
        // Primary fails 3 times then recovers; short backoff so the
        // breaker half-opens within the run.
        struct Flaky(usize);
        impl Detector for Flaky {
            fn classify(&mut self, window: &[Flow]) -> Vec<usize> {
                self.0 += 1;
                if self.0 <= 3 {
                    Vec::new()
                } else {
                    vec![0; window.len()]
                }
            }
            fn name(&self) -> &'static str {
                "flaky"
            }
        }
        let mut pipe = StreamingPipeline::new(
            Flaky(0),
            AllNormalFallback,
            PipelineConfig {
                breaker: BreakerConfig {
                    consecutive_failures: 3,
                    outcome_window: 0,
                    open_ticks: 150, // ~1.5 arrival gaps
                    max_open_ticks: 600,
                    half_open_probes: 2,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let verdicts = run_all(&mut pipe, windows(12, 10));
        let states: Vec<BreakerState> = pipe
            .breaker()
            .transitions()
            .iter()
            .map(|(_, s)| *s)
            .collect();
        assert_eq!(
            states,
            vec![
                BreakerState::Open,
                BreakerState::HalfOpen,
                BreakerState::Closed
            ],
            "full open → half-open → closed cycle"
        );
        assert_eq!(pipe.health().breaker_probes, 2);
        // Once closed, the recovered primary serves the tail.
        assert!(verdicts.last().unwrap().served_by == ServedBy::Primary);
    }

    #[test]
    fn deadline_pressure_degrades_to_fallback() {
        // Primary cost per window far exceeds the deadline budget.
        let mut pipe = StreamingPipeline::new(
            OracleDetector::new(1.0, 0.0, 1),
            AllNormalFallback,
            PipelineConfig {
                deadline_ticks: 5,
                cost: CostModel {
                    arrival_ticks: 100,
                    primary_base: 50,
                    primary_per_flow: 1,
                    fallback_base: 1,
                    fallback_per_flow: 0,
                },
                ..Default::default()
            },
        );
        let verdicts = run_all(&mut pipe, windows(5, 10));
        assert!(verdicts.iter().all(|v| v.served_by == ServedBy::Fallback));
        let h = pipe.health();
        assert_eq!(h.deadline_misses, 5);
        assert_eq!(h.degraded, 5);
        assert_eq!(
            h.primary_faults, 0,
            "predicted misses do not feed the breaker"
        );
        assert_eq!(pipe.breaker().state(), BreakerState::Closed);
    }

    #[test]
    fn shed_oldest_drops_exactly_the_overflow() {
        // Service is much slower than arrival: queue capacity 2, every
        // window takes 10 arrival gaps to serve.
        let cfg = PipelineConfig {
            queue_capacity: 2,
            shed: ShedPolicy::ShedOldest,
            deadline_ticks: u64::MAX, // isolate shedding from deadlines
            cost: CostModel {
                arrival_ticks: 10,
                primary_base: 100,
                primary_per_flow: 0,
                fallback_base: 1,
                fallback_per_flow: 0,
            },
            ..Default::default()
        };
        let mut pipe =
            StreamingPipeline::new(OracleDetector::new(1.0, 0.0, 1), AllNormalFallback, cfg);
        let verdicts = run_all(&mut pipe, windows(8, 5));
        assert_eq!(verdicts.len(), 8, "every window gets a verdict record");
        let shed: Vec<usize> = verdicts
            .iter()
            .filter(|v| v.served_by == ServedBy::Shed)
            .map(|v| v.id)
            .collect();
        assert_eq!(pipe.health().shed, shed.len());
        assert!(!shed.is_empty(), "overload must shed");
        assert!(
            shed.iter().all(|&id| id < 7),
            "the newest window is never the one shed"
        );
        for v in &verdicts {
            if v.served_by == ServedBy::Shed {
                assert!(v.preds.is_empty());
            }
        }
    }

    #[test]
    fn block_policy_drops_nothing_and_stalls_ingest() {
        let cfg = PipelineConfig {
            queue_capacity: 2,
            shed: ShedPolicy::Block,
            deadline_ticks: u64::MAX,
            cost: CostModel {
                arrival_ticks: 10,
                primary_base: 100,
                primary_per_flow: 0,
                fallback_base: 1,
                fallback_per_flow: 0,
            },
            ..Default::default()
        };
        let mut pipe =
            StreamingPipeline::new(OracleDetector::new(1.0, 0.0, 1), AllNormalFallback, cfg);
        let verdicts = run_all(&mut pipe, windows(8, 5));
        assert_eq!(verdicts.len(), 8);
        assert!(verdicts.iter().all(|v| v.served_by == ServedBy::Primary));
        let h = pipe.health();
        assert_eq!(h.shed, 0);
        assert_eq!(h.enqueued, 8);
        assert!(
            h.backpressure_stalls > 0,
            "overload must engage backpressure"
        );
    }

    #[test]
    fn degrade_policy_routes_overflow_to_fallback() {
        let cfg = PipelineConfig {
            queue_capacity: 2,
            shed: ShedPolicy::DegradeToFallback,
            deadline_ticks: u64::MAX,
            cost: CostModel {
                arrival_ticks: 10,
                primary_base: 100,
                primary_per_flow: 0,
                fallback_base: 1,
                fallback_per_flow: 0,
            },
            ..Default::default()
        };
        let mut pipe =
            StreamingPipeline::new(OracleDetector::new(1.0, 0.0, 1), AllNormalFallback, cfg);
        let verdicts = run_all(&mut pipe, windows(8, 5));
        assert_eq!(verdicts.len(), 8);
        let degraded = verdicts
            .iter()
            .filter(|v| v.served_by == ServedBy::Fallback)
            .count();
        assert!(degraded > 0, "overflow must reach the fallback tier");
        assert_eq!(pipe.health().shed, 0, "nothing is dropped");
        // Every flow of every window still got a verdict.
        assert!(verdicts.iter().all(|v| !v.preds.is_empty()));
    }

    #[test]
    fn verdict_ids_cover_every_window_once() {
        for policy in [
            ShedPolicy::Block,
            ShedPolicy::ShedOldest,
            ShedPolicy::DegradeToFallback,
        ] {
            let cfg = PipelineConfig {
                queue_capacity: 2,
                shed: policy,
                cost: CostModel {
                    arrival_ticks: 10,
                    primary_base: 35,
                    primary_per_flow: 0,
                    fallback_base: 1,
                    fallback_per_flow: 0,
                },
                ..Default::default()
            };
            let mut pipe =
                StreamingPipeline::new(OracleDetector::new(1.0, 0.0, 1), AllNormalFallback, cfg);
            let verdicts = run_all(&mut pipe, windows(12, 5));
            let ids: Vec<usize> = verdicts.iter().map(|v| v.id).collect();
            assert_eq!(ids, (0..12).collect::<Vec<_>>(), "{policy:?}");
        }
    }

    /// One window whose primary cost is a flat `primary_base` ticks,
    /// against a budget of `deadline_ticks`.
    fn single_window_at_budget(deadline_ticks: u64) -> (WindowVerdict, PipelineHealth) {
        let mut pipe = StreamingPipeline::new(
            OracleDetector::new(1.0, 0.0, 1),
            AllNormalFallback,
            PipelineConfig {
                deadline_ticks,
                cost: CostModel {
                    arrival_ticks: 100,
                    primary_base: 20,
                    primary_per_flow: 0,
                    fallback_base: 1,
                    fallback_per_flow: 0,
                },
                ..Default::default()
            },
        );
        let mut verdicts = run_all(&mut pipe, windows(1, 10));
        (verdicts.remove(0), *pipe.health())
    }

    #[test]
    fn primary_cost_exactly_at_the_deadline_is_on_time() {
        let (v, h) = single_window_at_budget(20);
        assert_eq!(v.served_by, ServedBy::Primary);
        assert!(!v.deadline_missed, "finishing exactly on time meets it");
        assert_eq!(v.completed_at, 120, "arrival 100 + cost 20");
        assert_eq!((h.deadline_misses, h.degraded), (0, 0));
    }

    #[test]
    fn primary_cost_one_tick_over_the_deadline_degrades_ahead_of_time() {
        let (v, h) = single_window_at_budget(19);
        assert_eq!(v.served_by, ServedBy::Fallback);
        assert!(!v.deadline_missed, "the fallback itself is on time");
        assert_eq!(v.completed_at, 101, "arrival 100 + fallback cost 1");
        assert_eq!((h.deadline_misses, h.degraded), (1, 1));
        assert_eq!(h.primary_faults, 0, "the primary never ran");
    }

    #[test]
    fn huge_arrival_gap_saturates_the_clock() {
        let mut pipe = StreamingPipeline::new(
            OracleDetector::new(1.0, 0.0, 1),
            AllNormalFallback,
            PipelineConfig {
                cost: CostModel {
                    arrival_ticks: u64::MAX,
                    ..CostModel::default()
                },
                ..Default::default()
            },
        );
        let verdicts = run_all(&mut pipe, windows(3, 5));
        assert_eq!(pipe.now(), u64::MAX);
        assert_eq!(verdicts.len(), 3);
        assert!(verdicts.iter().all(|v| v.completed_at == u64::MAX));
        assert!(verdicts.iter().all(|v| v.served_by == ServedBy::Primary));
    }

    #[test]
    fn zero_queue_capacity_behaves_as_one() {
        for shed in [
            ShedPolicy::Block,
            ShedPolicy::ShedOldest,
            ShedPolicy::DegradeToFallback,
        ] {
            let run = |queue_capacity: usize| {
                let cfg = PipelineConfig {
                    queue_capacity,
                    shed,
                    cost: CostModel {
                        arrival_ticks: 10,
                        primary_base: 35,
                        primary_per_flow: 0,
                        fallback_base: 1,
                        fallback_per_flow: 0,
                    },
                    ..Default::default()
                };
                let mut pipe = StreamingPipeline::new(
                    OracleDetector::new(1.0, 0.0, 1),
                    AllNormalFallback,
                    cfg,
                );
                let verdicts = run_all(&mut pipe, windows(8, 5));
                (verdicts, *pipe.health(), pipe.now())
            };
            let zero = run(0);
            assert_eq!(zero, run(1), "{shed:?}");
            let h = zero.1;
            assert!(
                h.backpressure_stalls + h.shed + h.degraded > 0,
                "{shed:?}: a one-slot queue must overflow"
            );
        }
    }
}
