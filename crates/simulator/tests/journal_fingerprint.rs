//! Pins the streaming pipeline's event journal byte for byte.
//!
//! The pipeline suites elsewhere count events per name; this one fixes
//! their exact order, fields and tick stamps, together with the gauges
//! and counters of the same export. Each scenario records its run under a
//! fresh [`InMemoryRecorder`] and compares the byte length and an FNV-1a
//! 64 hash of `Snapshot::to_jsonl()` against values recorded from an
//! earlier implementation of the pipeline, so a refactor of the queue,
//! clock or deadline bookkeeping that shifts one event fails here.

use std::sync::Arc;

use pelican_observe::{with_recorder, InMemoryRecorder, Recorder};
use pelican_simulator::{
    AllNormalFallback, ChaosConfig, ChaosSchedule, CostModel, Detector, FaultyDetector,
    OracleDetector, PipelineConfig, PipelineHealth, ShedPolicy, StreamingPipeline, TrafficStream,
};

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Streams `windows` windows of `background` flows through a pipeline
/// built from `primary` and `config`, and returns the deterministic JSONL
/// export and the health counters.
fn journal<P: Detector>(
    primary: P,
    config: PipelineConfig,
    windows: usize,
    background: usize,
) -> (String, PipelineHealth) {
    let rec = Arc::new(InMemoryRecorder::new());
    let health = with_recorder(rec.clone(), || {
        let mut pipeline = StreamingPipeline::new(primary, AllNormalFallback, config);
        let mut stream = TrafficStream::nslkdd(0.3, 5);
        for w in stream.next_windows(windows, background) {
            pipeline.ingest(w);
        }
        pipeline.finish();
        *pipeline.health()
    });
    let jsonl = rec.snapshot().expect("in-memory recorder").to_jsonl();
    (jsonl, health)
}

/// Service ten times slower than arrival into a queue of two: the
/// overflow policy decides every window after the first few.
fn overload(shed: ShedPolicy) -> PipelineConfig {
    PipelineConfig {
        queue_capacity: 2,
        shed,
        deadline_ticks: 250,
        cost: CostModel {
            arrival_ticks: 10,
            primary_base: 100,
            primary_per_flow: 0,
            fallback_base: 1,
            fallback_per_flow: 0,
        },
        ..Default::default()
    }
}

fn assert_fingerprint(label: &str, jsonl: &str, expect: (usize, u64)) {
    let got = (jsonl.len(), fnv1a64(jsonl.as_bytes()));
    assert_eq!(got, expect, "{label}: journal changed (len, fnv1a64)");
}

#[test]
fn overload_journals_are_pinned_per_shed_policy() {
    let recorded = [
        (ShedPolicy::Block, (1701, 0xab56_fbee_30b1_aeac)),
        (ShedPolicy::ShedOldest, (885, 0xe400_fe7a_0477_5ffd)),
        (ShedPolicy::DegradeToFallback, (1067, 0x2686_bc02_d94a_485a)),
    ];
    for (shed, expect) in recorded {
        let (jsonl, health) = journal(OracleDetector::new(1.0, 0.0, 3), overload(shed), 12, 8);
        match shed {
            ShedPolicy::Block => assert!(health.backpressure_stalls > 0),
            ShedPolicy::ShedOldest => assert!(health.shed > 0),
            ShedPolicy::DegradeToFallback => assert!(health.degraded > 0),
        }
        assert!(
            health.deadline_misses > 0,
            "{shed:?}: the deadline must bind"
        );
        assert_fingerprint(&format!("{shed:?}"), &jsonl, expect);
    }
}

#[test]
fn deadline_pressure_journal_is_pinned() {
    // Windows of ~20-40 flows against a 60-tick budget at one tick per
    // flow: some fit, some are degraded ahead of time, and seeded stalls
    // make admitted verdicts late, which in turn trips the breaker. The
    // one-slot queue overflows to a fallback tier that is itself too slow
    // for the larger windows.
    let chaos = ChaosConfig {
        stall_rate: 0.3,
        stall_ticks: (20, 80),
        burst_rate: 0.0,
        burst_len: (1, 1),
        down_rate: 0.0,
        down_len: (1, 1),
    };
    let primary = FaultyDetector::new(OracleDetector::new(1.0, 0.0, 9), 9, 0.0)
        .with_schedule(ChaosSchedule::new(chaos, 9));
    let config = PipelineConfig {
        queue_capacity: 1,
        shed: ShedPolicy::DegradeToFallback,
        deadline_ticks: 60,
        cost: CostModel {
            arrival_ticks: 40,
            primary_base: 5,
            primary_per_flow: 1,
            fallback_base: 1,
            fallback_per_flow: 2,
        },
        ..Default::default()
    };
    let (jsonl, health) = journal(primary, config, 40, 20);
    assert!(health.deadline_misses > 0);
    assert!(
        health.breaker_opens > 0,
        "late verdicts must trip the breaker"
    );
    assert!(jsonl.contains("predicted_miss"));
    assert!(jsonl.contains("overflow"));
    assert_fingerprint("deadline pressure", &jsonl, (4583, 0xbd65_3fcf_fb5d_65bd));
}
