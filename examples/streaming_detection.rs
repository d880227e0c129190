//! The paper's Fig. 1 deployment scenario: a trained NIDS sits on the
//! network path, classifies traffic as it arrives, and raises alerts to
//! the security team.
//!
//! Phase 1 trains a detector offline and replays a simulated live traffic
//! stream through it one batch at a time, printing an alert log and the
//! running detection/false-alarm rates.
//!
//! Phase 2 puts the same trained model behind the supervised streaming
//! pipeline — bounded ingest queue, per-window virtual-clock deadlines, a
//! circuit breaker over the primary with an all-normal fallback tier —
//! and unleashes a seeded chaos schedule (stalls, error bursts, hard-down
//! periods) on it, printing the health counters the pipeline exports.
//!
//! ```sh
//! cargo run --release --example streaming_detection
//! ```

use pelican::core::models::{build_network, NetConfig};
use pelican::nn::loss::SoftmaxCrossEntropy;
use pelican::nn::optim::RmsProp;
use pelican::nn::{predict, Trainer, TrainerConfig};
use pelican::prelude::*;
use pelican::simulator::{
    AllNormalFallback, Analyst, BreakerConfig, ChaosConfig, ChaosSchedule, FaultyDetector,
    ModelDetector, PipelineConfig, ShedPolicy, SimConfig, Simulation, StreamingPipeline,
    TrafficStream,
};

fn main() {
    // --- Offline: fit the detector on historical labelled traffic. -----
    let history = pelican::data::nslkdd::generate(1200, 11);
    let train_idx: Vec<usize> = (0..history.len()).collect();
    let encoder = OneHotEncoder::from_schema(history.schema());
    let x_train_raw = encoder.encode(&history).gather_rows(&train_idx);
    let scaler = Standardizer::fit(&x_train_raw);
    let x_train = scaler.transform(&x_train_raw);
    let y_train: Vec<usize> = history.labels().to_vec();

    let class_names: Vec<String> = history
        .schema()
        .classes
        .iter()
        .map(|c| c.name.clone())
        .collect();

    let mut nids = build_network(&NetConfig {
        in_features: x_train.shape()[1],
        classes: class_names.len(),
        blocks: 2,
        residual: true,
        kernel: 10,
        dropout: 0.6,
        seed: 3,
    });
    println!("training NIDS on {} historical flows …", history.len());
    Trainer::new(TrainerConfig {
        epochs: 4,
        batch_size: 128,
        shuffle_seed: 1,
        verbose: false,
        ..Default::default()
    })
    .fit(
        &mut nids,
        &SoftmaxCrossEntropy,
        &mut RmsProp::new(0.01),
        &x_train,
        &y_train,
        None,
    )
    .expect("NIDS training failed");

    // --- Online: monitor a live stream in windows of 50 flows. ---------
    println!("\nmonitoring live traffic …");
    let mut total = Confusion::default();
    let mut alerts = 0usize;
    for window in 0..6 {
        // Fresh, unseen traffic (different generator seed per window).
        let live = pelican::data::nslkdd::generate(50, 1000 + window);
        let x_live = scaler.transform(&encoder.encode(&live));
        let preds = predict(&mut nids, &x_live, 64);

        let window_conf = Confusion::from_predictions(&preds, live.labels(), 0);
        total.merge(&window_conf);

        // Alert on every flow classified as an attack class.
        for (flow, &p) in preds.iter().enumerate() {
            if p != 0 {
                alerts += 1;
                if alerts <= 8 {
                    let verdict = if live.labels()[flow] != 0 {
                        "TRUE "
                    } else {
                        "FALSE"
                    };
                    println!(
                        "  ALERT window {window} flow {flow:>2}: suspected {:<14} [{} alarm]",
                        class_names[p], verdict
                    );
                }
            }
        }
        println!(
            "  window {window}: {} flows, {} attacks present, {} alerts (DR so far {:.1}%, FAR so far {:.2}%)",
            live.len(),
            live.attack_labels().iter().sum::<usize>(),
            preds.iter().filter(|&&p| p != 0).count(),
            100.0 * total.detection_rate(),
            100.0 * total.false_alarm_rate()
        );
    }

    println!(
        "\nsession summary: {} flows inspected, {} alerts raised\n\
         DR {:.2}%  ACC {:.2}%  FAR {:.2}%\n\
         (the paper's argument: a low FAR keeps the security team's alert\n\
         queue actionable — every percent of false alarms is wasted triage)",
        total.total(),
        alerts,
        100.0 * total.detection_rate(),
        100.0 * total.accuracy(),
        100.0 * total.false_alarm_rate()
    );

    // --- Streaming pipeline under chaos: the same model behind the ------
    // --- supervised serving loop, with injected stalls/bursts/downtime. -
    println!("\nstreaming pipeline under a seeded chaos schedule …");
    let primary = ModelDetector::new(nids, encoder, scaler, history.schema().clone());
    // Stalls beyond the 400-tick deadline, short corruption bursts, and
    // multi-window hard-down periods — every event replayable from seed 9.
    let chaos = ChaosConfig {
        stall_rate: 0.08,
        stall_ticks: (450, 700),
        burst_rate: 0.05,
        burst_len: (1, 2),
        down_rate: 0.05,
        down_len: (3, 5),
    };
    let faulty = FaultyDetector::new(primary, 9, 0.0).with_schedule(ChaosSchedule::new(chaos, 9));
    let mut pipeline = StreamingPipeline::new(
        faulty,
        AllNormalFallback,
        PipelineConfig {
            queue_capacity: 4,
            shed: ShedPolicy::DegradeToFallback,
            breaker: BreakerConfig {
                consecutive_failures: 3,
                open_ticks: 150,
                max_open_ticks: 600,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let report = Simulation::new(SimConfig {
        windows: 40,
        flows_per_window: 50,
    })
    .run_streaming(
        TrafficStream::nslkdd(0.3, 42),
        &mut pipeline,
        Analyst::new(2, 30.0),
    );
    let health = report.pipeline;
    println!(
        "  {} windows: {} primary, {} degraded to fallback, {} shed",
        health.processed,
        health.processed - health.degraded,
        health.degraded,
        health.shed
    );
    println!(
        "  breaker: {} opens, {} fast-fails while open, {} half-open probes",
        health.breaker_opens, health.breaker_fast_fails, health.breaker_probes
    );
    println!(
        "  deadlines missed: {}   primary faults absorbed: {}",
        health.deadline_misses, health.primary_faults
    );
    println!(
        "  detection through the chaos: DR {:.1}%  FAR {:.2}%  campaigns {}/{}",
        100.0 * report.detection_rate,
        100.0 * report.false_alarm_rate,
        report.campaigns_detected,
        report.campaigns_total
    );
    println!(
        "\n(a NIDS that crashes is worse than a NIDS that misses: the\n\
         pipeline served every window — {} of {} in degraded mode — and\n\
         the deployment never went dark)",
        health.degraded, health.processed
    );
}
