//! Pipeline-level chaos integration: a seeded fault schedule drives the
//! streaming pipeline through breaker trips, load shedding, deadline
//! misses and hard-down periods — and the whole run must be bit-identical
//! at every worker count.
//!
//! `scripts/check.sh` runs this suite under both `PELICAN_THREADS=1` and
//! `PELICAN_THREADS=4`; the in-process worker-count sweeps below cover
//! the same contract without restarting the process.

use pelican::runtime::{with_exec, with_workers, ExecConfig};
use pelican::simulator::{
    AllNormalFallback, Analyst, BreakerConfig, BreakerState, ChaosConfig, ChaosSchedule, CostModel,
    Detector, FaultyDetector, OracleDetector, PipelineConfig, PipelineHealth, ServedBy, ShedPolicy,
    SimConfig, SimReport, Simulation, StreamingPipeline, TrafficStream,
};

/// Every float in the report via `to_bits`, plus every counter — equality
/// on fingerprints is bitwise equality on reports.
fn fingerprint(r: &SimReport) -> (Vec<u64>, Vec<usize>, PipelineHealth) {
    (
        vec![
            r.detection_rate.to_bits(),
            r.false_alarm_rate.to_bits(),
            r.mean_time_to_detection.unwrap_or(-1.0).to_bits(),
            r.triage.wasted_seconds.to_bits(),
            r.triage.useful_seconds.to_bits(),
            r.triage.mean_queue_delay.to_bits(),
            r.triage.max_queue_delay.to_bits(),
        ],
        vec![
            r.flows,
            r.alerts,
            r.campaigns_detected,
            r.campaigns_total,
            r.pipeline.degraded,
            r.pipeline.shed,
            r.triage.triaged,
            r.triage.backlog,
        ],
        r.pipeline,
    )
}

/// The chaos mix used by the headline test: stalls long enough to blow
/// the deadline, corruption bursts, and hard-down periods long enough to
/// trip the breaker's consecutive-failure threshold.
fn chaos() -> ChaosConfig {
    ChaosConfig {
        stall_rate: 0.25,
        stall_ticks: (500, 900), // deadline budget is 400: an admitted stall is always late
        burst_rate: 0.1,
        burst_len: (1, 3),
        down_rate: 0.1,
        down_len: (3, 6),
    }
}

fn chaos_pipeline(
    seed: u64,
    shed: ShedPolicy,
) -> StreamingPipeline<FaultyDetector<OracleDetector>, AllNormalFallback> {
    let primary = FaultyDetector::new(OracleDetector::new(1.0, 0.0, seed), seed, 0.0)
        .with_panics(true) // hard-down windows panic; the pipeline must absorb them
        .with_schedule(ChaosSchedule::new(chaos(), seed));
    StreamingPipeline::new(
        primary,
        AllNormalFallback,
        PipelineConfig {
            shed,
            breaker: BreakerConfig {
                consecutive_failures: 3,
                outcome_window: 8,
                failure_fraction: 0.5,
                open_ticks: 150,
                max_open_ticks: 1200,
                half_open_probes: 2,
            },
            ..Default::default()
        },
    )
}

fn chaos_report(seed: u64) -> (SimReport, Vec<BreakerState>, PipelineHealth) {
    let stream = TrafficStream::nslkdd(0.3, seed);
    let mut pipeline = chaos_pipeline(seed, ShedPolicy::DegradeToFallback);
    let report = Simulation::new(SimConfig {
        windows: 60,
        flows_per_window: 30,
    })
    .run_streaming(stream, &mut pipeline, Analyst::new(2, 30.0));
    let states = pipeline
        .breaker()
        .transitions()
        .iter()
        .map(|(_, s)| *s)
        .collect();
    (report, states, *pipeline.health())
}

/// The acceptance scenario: a seeded schedule opens the breaker, probes
/// recover it, no panic escapes, and the report is bitwise identical at
/// one and four workers.
#[test]
fn chaos_run_cycles_the_breaker_and_replays_bit_identically() {
    // Injected hard-down windows panic; silence the default hook's
    // backtrace spam for the duration of this test.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let serial = with_exec(ExecConfig::serial(), || chaos_report(17));
    let again = with_exec(ExecConfig::serial(), || chaos_report(17));
    let pooled = with_workers(4, || chaos_report(17));
    std::panic::set_hook(prev);

    let (report, states, health) = &serial;

    // Breaker: at least one full open → half-open → closed cycle.
    let open_at = states
        .iter()
        .position(|s| *s == BreakerState::Open)
        .expect("chaos must open the breaker");
    let half_at = states
        .iter()
        .skip(open_at)
        .position(|s| *s == BreakerState::HalfOpen)
        .expect("backoff expiry must half-open");
    let closed_after = states
        .iter()
        .skip(open_at + half_at)
        .any(|s| *s == BreakerState::Closed);
    assert!(closed_after, "successful probes must re-close: {states:?}");

    // Zero panics escaped (the run completed) and the faults were real.
    assert!(health.primary_faults > 0, "chaos must fault the primary");
    assert!(health.degraded > 0);
    assert!(health.breaker_opens > 0);
    assert!(health.breaker_probes > 0);
    assert!(
        health.deadline_misses > 0,
        "stall-heavy chaos must miss deadlines: {health:?}"
    );
    assert_eq!(health.processed, 60, "every window got a verdict");
    assert_eq!(report.pipeline, *health);

    // Bit-identical replay: same seed ⇒ same report; worker count ⇒ no
    // effect at all.
    assert_eq!(
        fingerprint(&serial.0),
        fingerprint(&again.0),
        "replay drifted"
    );
    assert_eq!(serial.1, again.1);
    assert_eq!(
        fingerprint(&serial.0),
        fingerprint(&pooled.0),
        "worker count leaked into the report"
    );
    assert_eq!(serial.1, pooled.1, "breaker timeline depends on workers");
    assert_eq!(serial.2, pooled.2);
}

/// An overload scenario (service 10× slower than arrival) under each shed
/// policy: block drops nothing and stalls ingest, shed-oldest drops
/// exactly the oldest windows, degrade-to-fallback serves overflow on the
/// cheap tier — and every policy accounts for every window.
#[test]
fn each_shed_policy_sheds_the_expected_windows() {
    let overload = |shed: ShedPolicy| PipelineConfig {
        queue_capacity: 2,
        shed,
        deadline_ticks: u64::MAX, // isolate shedding from deadline effects
        cost: CostModel {
            arrival_ticks: 10,
            primary_base: 100,
            primary_per_flow: 0,
            fallback_base: 1,
            fallback_per_flow: 0,
        },
        ..Default::default()
    };
    let drive = |shed: ShedPolicy| {
        let mut pipeline = StreamingPipeline::new(
            OracleDetector::new(1.0, 0.0, 3),
            AllNormalFallback,
            overload(shed),
        );
        let mut stream = TrafficStream::nslkdd(0.0, 3);
        let mut verdicts = Vec::new();
        for w in stream.next_windows(12, 8) {
            verdicts.extend(pipeline.ingest(w));
        }
        verdicts.extend(pipeline.finish());
        verdicts.sort_by_key(|v| v.id);
        (verdicts, *pipeline.health())
    };

    // Block: cooperative backpressure, nothing dropped, nothing degraded.
    let (verdicts, health) = drive(ShedPolicy::Block);
    assert_eq!(verdicts.len(), 12);
    assert!(verdicts.iter().all(|v| v.served_by == ServedBy::Primary));
    assert_eq!(health.shed, 0);
    assert!(health.backpressure_stalls > 0);
    assert_eq!(health.processed, 12);

    // ShedOldest: with arrival 10, service 100, and a 2-deep queue, the
    // timeline is fully determined: window 0 is served at t=20 (server
    // busy until 110), windows 1–7 age out of the queue one ingest at a
    // time, window 8 is the queue's front when the server frees at t=110
    // and gets served, window 9 ages out, and 10–11 drain at the end.
    let (verdicts, health) = drive(ShedPolicy::ShedOldest);
    assert_eq!(verdicts.len(), 12);
    let shed_ids: Vec<usize> = verdicts
        .iter()
        .filter(|v| v.served_by == ServedBy::Shed)
        .map(|v| v.id)
        .collect();
    assert_eq!(health.shed, shed_ids.len());
    assert_eq!(
        shed_ids,
        vec![1, 2, 3, 4, 5, 6, 7, 9],
        "expected windows shed"
    );
    assert_eq!(health.processed + health.shed, 12, "every window accounted");
    let served: Vec<usize> = verdicts
        .iter()
        .filter(|v| v.served_by == ServedBy::Primary)
        .map(|v| v.id)
        .collect();
    assert_eq!(served, vec![0, 8, 10, 11], "survivors served in order");

    // DegradeToFallback: overflow served immediately by the cheap tier.
    let (verdicts, health) = drive(ShedPolicy::DegradeToFallback);
    assert_eq!(verdicts.len(), 12);
    assert_eq!(health.shed, 0);
    let degraded = verdicts
        .iter()
        .filter(|v| v.served_by == ServedBy::Fallback)
        .count();
    assert_eq!(degraded, health.degraded);
    assert!(degraded > 0, "overflow must reach the fallback tier");
    assert!(
        verdicts.iter().all(|v| !v.preds.is_empty()),
        "no window unserved"
    );
    assert_eq!(health.processed, 12);
}

/// The same chaos seed must produce the same fault schedule, verdict
/// stream, and health counters across runs and worker counts — the
/// FaultyDetector determinism contract at pipeline level.
#[test]
fn chaos_schedule_is_identical_across_runs_and_worker_counts() {
    let run = || {
        let mut pipeline = chaos_pipeline(23, ShedPolicy::ShedOldest);
        let mut stream = TrafficStream::nslkdd(0.2, 23);
        let mut verdicts = Vec::new();
        for w in stream.next_windows(40, 20) {
            verdicts.extend(pipeline.ingest(w));
        }
        verdicts.extend(pipeline.finish());
        verdicts.sort_by_key(|v| v.id);
        let log = pipeline
            .primary()
            .schedule()
            .expect("schedule attached")
            .log()
            .to_vec();
        (verdicts, log, *pipeline.health())
    };
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let a = with_exec(ExecConfig::serial(), run);
    let b = with_exec(ExecConfig::serial(), run);
    let c = with_workers(4, run);
    std::panic::set_hook(prev);
    assert_eq!(a.1, b.1, "fault schedule must replay identically");
    assert_eq!(a.0, b.0, "verdicts must replay identically");
    assert_eq!(a.2, b.2);
    assert_eq!(a.1, c.1, "fault schedule must not depend on worker count");
    assert_eq!(a.0, c.0, "verdicts must not depend on worker count");
    assert_eq!(a.2, c.2);
    assert!(!a.1.is_empty());
}

/// A pathological primary that panics on every window: the breaker plus
/// panic containment keep the pipeline serving fallback verdicts with
/// zero escapes, and the report stays coherent.
#[test]
fn permanently_down_primary_never_takes_the_pipeline_down() {
    struct Dead;
    impl Detector for Dead {
        fn classify(&mut self, _: &[pelican::simulator::Flow]) -> Vec<usize> {
            panic!("dead primary")
        }
        fn name(&self) -> &'static str {
            "dead"
        }
    }
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let stream = TrafficStream::nslkdd(0.3, 7);
    let mut pipeline = StreamingPipeline::new(Dead, AllNormalFallback, PipelineConfig::default());
    let report = Simulation::new(SimConfig {
        windows: 25,
        flows_per_window: 20,
    })
    .run_streaming(stream, &mut pipeline, Analyst::new(1, 30.0));
    std::panic::set_hook(prev);
    let health = report.pipeline;
    assert_eq!(health.processed, 25);
    assert_eq!(health.degraded, 25, "every window fell back");
    assert!(
        health.breaker_opens > 0,
        "a dead primary must trip the breaker"
    );
    assert!(
        health.breaker_fast_fails > 0,
        "open breaker must stop hammering the dead primary"
    );
    assert!(
        health.primary_faults < 25,
        "the breaker must shield the primary from most windows"
    );
    assert_eq!(report.alerts, 0, "all-normal fallback raises no alerts");
}
