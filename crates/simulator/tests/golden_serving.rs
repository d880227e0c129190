//! Golden equivalence for the serving path.
//!
//! The fingerprints below were recorded from the simulator's earlier
//! direct-serving loop, which classified every window with the bare
//! detector (a faulting one behind a per-window validate-or-fall-back
//! wrapper) without a queue, deadline or breaker. A pass-through
//! [`PipelineConfig`] must reproduce each of those reports bit for bit:
//! every float via `to_bits` and every counter, with the old count of
//! fallback-served windows compared against `pipeline.degraded`.

use pelican_simulator::{
    AllNormalFallback, Analyst, Detector, FaultyDetector, OracleDetector, PipelineConfig,
    SimConfig, SimReport, Simulation, StreamingPipeline, ThresholdNoiseDetector, TrafficConfig,
    TrafficStream,
};

/// One recorded report. Floats, as bits: detection rate, false-alarm
/// rate, mean time to detection (`-1.0` when none), wasted and useful
/// triage seconds, mean and max queue delay. Counters: flows, alerts,
/// campaigns detected, campaigns total, degraded windows, alerts triaged,
/// backlog.
type Fingerprint = ([u64; 7], [usize; 7]);

#[rustfmt::skip]
const RECORDED: [(&str, Fingerprint); 18] = [
    ("oracle(1, 0)", ([0x3ff0000000000000, 0x0000000000000000, 0x3fb9999999999c60, 0x0000000000000000, 0x4094a00000000000, 0x4062fbe72c97a0e4, 0x40725e09bd96cfc3], [435, 44, 4, 4, 0, 44, 0])),
    ("oracle(0.9, 0.1)", ([0x3fed1745d1745d17, 0x3fc105e48053ce3e, 0x3fc0000000000230, 0x4098600000000000, 0x4092c00000000000, 0x407ef7e0099c7753, 0x408eebdaa79bc4b1], [435, 92, 4, 4, 0, 92, 0])),
    ("oracle(0.95, 0.3)", ([0x3fef45d1745d1746, 0x3fd66caf77d0dbfd, 0x3fc0000000000230, 0x40b00e0000000000, 0x4094280000000000, 0x4091e4eb49c529d5, 0x40a2092775fc3332], [435, 180, 4, 4, 0, 180, 0])),
    ("oracle(0.95, 0.01)", ([0x3fef45d1745d1746, 0x3f7f6d57144bf2e8, 0x3fc0000000000230, 0x4056800000000000, 0x4094280000000000, 0x40648b9df245fd9a, 0x40743c7023fd3629], [435, 46, 4, 4, 0, 46, 0])),
    ("noise(0.2)", ([0x3fc45d1745d1745d, 0x3fcfc12551d7681a, 0x3fcccccccccccf90, 0x40a6bc0000000000, 0x406a400000000000, 0x4081d924b93a28b0, 0x40924493ea9574c4], [435, 104, 4, 4, 0, 104, 0])),
    ("noise(0.0)", ([0x0000000000000000, 0x0000000000000000, 0xbff0000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000], [1057, 0, 0, 6, 0, 0, 0])),
    ("faulty(0.5, panics=false)", ([0x3fe1f1a515885fb3, 0x0000000000000000, 0x3fb9999999999eeb, 0x0000000000000000, 0x409c200000000000, 0x405d017e409ec9bb, 0x407488419ab8c3d0], [891, 60, 6, 10, 9, 60, 0])),
    ("faulty(0.5, panics=true)", ([0x3fd9b8396ba9de81, 0x0000000000000000, 0x3fb9999999999eb3, 0x0000000000000000, 0x4094280000000000, 0x40519b9f135fb344, 0x406d906a64556418], [891, 43, 5, 10, 11, 43, 0])),
    ("oracle(1, 0) 20x40", ([0x3ff0000000000000, 0x0000000000000000, 0x3fb9999999999e8d, 0x0000000000000000, 0x40a9140000000000, 0x4079ace53c002ef8, 0x408c3cc6888c2bf1], [891, 107, 10, 10, 0, 107, 0])),
    ("table5 AdaBoost", ([0x3fecf3cf3cf3cf3d, 0x3fcb5ed19f55b204, 0x3fbddddddddd4aab, 0x40f6260000000000, 0x40d7610000000000, 0x407d6d912df5b0df, 0x40a0d12da1a4cbe0], [2504, 637, 12, 12, 0, 637, 0])),
    ("table5 SVM (RBF)", ([0x3feafe422d4766c0, 0x3fb59d2999409fe1, 0x3fb9999999992000, 0x40e17d8000000000, 0x40d5cc0000000000, 0x4063914428dbbd64, 0x4093a9fffffffe80], [2504, 323, 12, 12, 0, 323, 0])),
    ("table5 HAST-IDS", ([0x3fee422d4766bf91, 0x3fb81cac7a14a2eb, 0x3fbbbbbbbbbb2000, 0x40e3830000000000, 0x40d86f0000000000, 0x40654e088a2262eb, 0x4092ab2cbf2311c0], [2504, 361, 12, 12, 0, 361, 0])),
    ("table5 CNN", ([0x3fecf3cf3cf3cf3d, 0x3fa4a2eb4146b4f3, 0x3fb9999999992000, 0x40d0b30000000000, 0x40d7610000000000, 0x406742b93b9d2a54, 0x4093aa6666666500], [2504, 228, 12, 12, 0, 228, 0])),
    ("table5 LSTM", ([0x3fedd2b899406f75, 0x3fa38cdedf865a95, 0x3fb9999999992000, 0x40cfa40000000000, 0x40d8150000000000, 0x4068be1a999db4fe, 0x4093aa6666666500], [2504, 227, 12, 12, 0, 227, 0])),
    ("table5 MLP", ([0x3fef58d0fac687d6, 0x3fa23f366a392158, 0x3fb9999999992000, 0x40cd880000000000, 0x40d9500000000000, 0x406cbe31fd528456, 0x4095a53242bbb140], [2504, 228, 12, 12, 0, 228, 0])),
    ("table5 RF", ([0x3fee422d4766bf91, 0x3fa0f18df4ebe81b, 0x3fb9999999992000, 0x40cb6c0000000000, 0x40d86f0000000000, 0x406c50ac3daf61e0, 0x4093e9767190fe80], [2504, 217, 12, 12, 0, 217, 0])),
    ("table5 LuNet", ([0x3fef58d0fac687d6, 0x3fa04ab9ba454b7c, 0x3fb9999999992000, 0x40ca5e0000000000, 0x40d9500000000000, 0x406a3ab2a1f60dd1, 0x4093e9767190fe80], [2504, 219, 12, 12, 0, 219, 0])),
    ("table5 Pelican", ([0x3fef908b51d9afe4, 0x3f7bce09c66f6fc3, 0x3fb9999999992000, 0x40a6800000000000, 0x40d97d0000000000, 0x40716c4d892d02ed, 0x4094af08deb80180], [2504, 161, 12, 12, 0, 161, 0])),
];

fn fingerprint(r: &SimReport) -> Fingerprint {
    (
        [
            r.detection_rate.to_bits(),
            r.false_alarm_rate.to_bits(),
            r.mean_time_to_detection.unwrap_or(-1.0).to_bits(),
            r.triage.wasted_seconds.to_bits(),
            r.triage.useful_seconds.to_bits(),
            r.triage.mean_queue_delay.to_bits(),
            r.triage.max_queue_delay.to_bits(),
        ],
        [
            r.flows,
            r.alerts,
            r.campaigns_detected,
            r.campaigns_total,
            r.pipeline.degraded,
            r.triage.triaged,
            r.triage.backlog,
        ],
    )
}

fn serve(
    windows: usize,
    flows_per_window: usize,
    stream: TrafficStream,
    detector: impl Detector,
    team: Analyst,
) -> SimReport {
    let mut pipeline =
        StreamingPipeline::new(detector, AllNormalFallback, PipelineConfig::pass_through());
    let report = Simulation::new(SimConfig {
        windows,
        flows_per_window,
    })
    .run_streaming(stream, &mut pipeline, team);
    assert_eq!(report.pipeline.processed, windows, "every window served");
    assert_eq!(report.pipeline.shed, 0);
    report
}

/// The recorded scenarios, in table order.
fn replay() -> Vec<SimReport> {
    let nsl = || TrafficStream::nslkdd(0.4, 11);
    let mut out = Vec::new();
    for (dr, far) in [(1.0, 0.0), (0.9, 0.1), (0.95, 0.3), (0.95, 0.01)] {
        let oracle = OracleDetector::new(dr, far, 5);
        out.push(serve(10, 40, nsl(), oracle, Analyst::new(2, 30.0)));
    }
    let noise = ThresholdNoiseDetector::new(0.2, 5);
    out.push(serve(10, 40, nsl(), noise, Analyst::new(2, 30.0)));
    let d = SimConfig::default();
    let blind = ThresholdNoiseDetector::new(0.0, 5);
    out.push(serve(
        d.windows,
        d.flows_per_window,
        nsl(),
        blind,
        Analyst::new(1, 30.0),
    ));
    for panics in [false, true] {
        let faulty =
            FaultyDetector::new(OracleDetector::new(1.0, 0.0, 5), 17, 0.5).with_panics(panics);
        out.push(serve(20, 40, nsl(), faulty, Analyst::new(2, 30.0)));
    }
    let oracle = OracleDetector::new(1.0, 0.0, 5);
    out.push(serve(20, 40, nsl(), oracle, Analyst::new(2, 30.0)));
    // The Table V operating points of the SOC-workload extension bench.
    let table5 = [
        (0.9113, 0.2211),
        (0.8371, 0.0773),
        (0.9365, 0.0960),
        (0.9228, 0.0384),
        (0.9276, 0.0363),
        (0.9674, 0.0366),
        (0.9224, 0.0301),
        (0.9743, 0.0289),
        (0.9775, 0.0130),
    ];
    for (i, (dr, far)) in table5.into_iter().enumerate() {
        let stream = TrafficStream::from_dataset(
            pelican_data::unswnb15::generate(4000, 99),
            TrafficConfig {
                mean_interarrival: 30.0,
                campaign_rate: 0.3,
                ..Default::default()
            },
            99,
        );
        let oracle = OracleDetector::new(dr, far, 1000 + i as u64);
        out.push(serve(40, 60, stream, oracle, Analyst::new(2, 180.0)));
    }
    out
}

#[test]
fn pass_through_pipeline_reproduces_recorded_reports() {
    // Two faulting scenarios panic inside the detector; the pipeline
    // contains the panics, so keep their messages out of the output.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let reports = replay();
    std::panic::set_hook(prev);

    assert_eq!(reports.len(), RECORDED.len());
    for (report, (name, fp)) in reports.iter().zip(&RECORDED) {
        assert_eq!(&fingerprint(report), fp, "{name}");
    }
    // The faulting scenarios did exercise the fallback.
    assert!(RECORDED[6].1 .1[4] > 0 && RECORDED[7].1 .1[4] > 0);
}
