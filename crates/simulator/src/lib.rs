//! The paper's Fig. 1 deployment, as a discrete-event simulation.
//!
//! "NIDS sits within the network, continuously monitors in-out network
//! traffic, and reports any suspicious behaviours to the security team for
//! further attack identification and containment" — and crucially, high
//! false-alarm rates are "inevitably adding unnecessary workload to the
//! security team and may delay the counter-attack responses" (Sections I
//! and VI).
//!
//! This crate makes that argument quantitative:
//!
//! * [`TrafficStream`] replays timestamped flows with background traffic
//!   and injected attack *campaigns* (bursts of one attack class);
//! * a [`Detector`] (any classifier over encoded flows; [`ModelDetector`]
//!   for a trained network) inspects each window and raises [`Alert`]s;
//! * [`StreamingPipeline`] is the serving loop every detector runs in:
//!   it validates each verdict and degrades a faulting window to a
//!   fallback detector instead of crashing the deployment, behind a
//!   bounded ingest queue with explicit [`ShedPolicy`] backpressure /
//!   load-shedding, per-window virtual-clock deadlines, a
//!   [`CircuitBreaker`] around the primary, and a [`PipelineHealth`]
//!   counter surface ([`PipelineConfig::pass_through`] switches the
//!   queue, deadline and breaker off);
//! * [`FaultyDetector`] and [`ChaosSchedule`] are the matching seeded
//!   fault sources (corrupt verdicts, panics, stalls, error bursts,
//!   hard-down periods);
//! * an [`Analyst`] pool triages alerts at finite throughput, so false
//!   alarms consume real capacity and delay the triage of true alerts;
//! * [`Simulation`] drives the pieces and reports detection latency,
//!   backlog and wasted triage effort.
//!
//! # Example
//!
//! ```
//! use pelican_simulator::{
//!     AllNormalFallback, Analyst, OracleDetector, PipelineConfig, SimConfig, Simulation,
//!     StreamingPipeline, TrafficStream,
//! };
//!
//! let stream = TrafficStream::nslkdd(0.2, 7);
//! // An oracle with a 5% false-alarm rate, for illustration.
//! let detector = OracleDetector::new(1.0, 0.05, 3);
//! let mut pipeline =
//!     StreamingPipeline::new(detector, AllNormalFallback, PipelineConfig::pass_through());
//! let report = Simulation::new(SimConfig::default())
//!     .run_streaming(stream, &mut pipeline, Analyst::new(2, 300.0));
//! assert!(report.detection_rate >= 0.9);
//! assert_eq!(report.pipeline.degraded, 0);
//! ```

mod alerts;
mod chaos;
mod detector;
mod pipeline;
mod sim;
mod traffic;

pub use alerts::{Alert, Analyst, TriageOutcome, TriageStats};
pub use chaos::{ChaosConfig, ChaosEvent, ChaosSchedule, FaultyDetector};
pub use detector::{
    AllNormalFallback, Detector, ModelDetector, OracleDetector, ThresholdNoiseDetector,
};
pub use pelican_core::PipelineHealth;
pub use pipeline::{
    BreakerConfig, BreakerState, CircuitBreaker, CostModel, PipelineConfig, ResilienceConfig,
    ServedBy, ShedPolicy, StreamingPipeline, WindowVerdict,
};
pub use sim::{SimConfig, SimReport, Simulation};
pub use traffic::{Campaign, Flow, TrafficConfig, TrafficStream};
