//! The full Fig.-1 deployment with a *real* trained detector: a Pelican
//! network monitors a simulated traffic stream, raises alerts into a
//! finite security team, and the report quantifies what its false-alarm
//! rate costs in triage workload — the paper's core motivation.
//!
//! ```sh
//! cargo run --release --example soc_simulation
//! ```

use pelican::core::models::{build_network, NetConfig};
use pelican::nn::loss::SoftmaxCrossEntropy;
use pelican::nn::optim::RmsProp;
use pelican::nn::{Trainer, TrainerConfig};
use pelican::prelude::*;
use pelican_simulator::{
    AllNormalFallback, Analyst, Detector, ModelDetector, PipelineConfig, SimConfig, SimReport,
    Simulation, StreamingPipeline, ThresholdNoiseDetector, TrafficConfig, TrafficStream,
};

fn main() {
    // ---- Offline: train the NIDS on historical labelled traffic. ------
    let history = pelican::data::nslkdd::generate(1500, 21);
    let encoder = OneHotEncoder::from_schema(history.schema());
    let x_raw = encoder.encode(&history);
    let scaler = Standardizer::fit(&x_raw);
    let x = scaler.transform(&x_raw);
    let y = history.labels().to_vec();

    let mut net = build_network(&NetConfig {
        in_features: x.shape()[1],
        classes: history.schema().class_count(),
        blocks: 2,
        residual: true,
        kernel: 10,
        dropout: 0.6,
        seed: 5,
    });
    println!("training the NIDS on {} historical flows …", history.len());
    Trainer::new(TrainerConfig {
        epochs: 5,
        batch_size: 128,
        ..Default::default()
    })
    .fit(
        &mut net,
        &SoftmaxCrossEntropy,
        &mut RmsProp::new(0.01),
        &x,
        &y,
        None,
    )
    .expect("NIDS training failed");

    // Deploy through the pipeline: if the model ever emits a malformed
    // verdict (or panics), the window degrades to all-normal instead of
    // taking the monitoring loop down.
    let detector = ModelDetector::new(net, encoder, scaler, history.schema().clone());

    // ---- Online: simulate the monitored link + security team. ---------
    println!("\nreplaying the monitored link through the trained Pelican …");
    print_report(&replay(detector));

    // The contrast the paper draws: a noisy detector with the same team.
    println!("\n…and the same link through a noisy legacy detector (20% alert rate):");
    print_report(&replay(ThresholdNoiseDetector::new(0.2, 3)));

    println!(
        "\nThe paper's argument in numbers: the low-FAR detector leaves the\n\
         team's effort for real attacks; the noisy one drowns them in triage."
    );
}

/// Replays the same monitored link through `detector`, served by a
/// pass-through pipeline, into a two-analyst team.
fn replay(detector: impl Detector) -> SimReport {
    let stream = TrafficStream::from_dataset(
        pelican::data::nslkdd::generate(3000, 77),
        TrafficConfig {
            mean_interarrival: 30.0,
            campaign_rate: 0.3,
            ..Default::default()
        },
        77,
    );
    let mut pipeline =
        StreamingPipeline::new(detector, AllNormalFallback, PipelineConfig::pass_through());
    Simulation::new(SimConfig {
        windows: 30,
        flows_per_window: 50,
    })
    .run_streaming(stream, &mut pipeline, Analyst::new(2, 180.0))
}

fn print_report(r: &SimReport) {
    println!(
        "  [{}] {} flows, {} alerts | flow DR {:.1}% FAR {:.2}% | campaigns {}/{} detected{}",
        r.detector,
        r.flows,
        r.alerts,
        100.0 * r.detection_rate,
        100.0 * r.false_alarm_rate,
        r.campaigns_detected,
        r.campaigns_total,
        r.mean_time_to_detection
            .map_or(String::new(), |t| format!(" (mean TTD {t:.1}s)"))
    );
    println!(
        "  team: {} triaged, {} backlog | wasted {:.0}s ({:.1}% of effort) | mean queue delay {:.0}s",
        r.triage.triaged,
        r.triage.backlog,
        r.triage.wasted_seconds,
        100.0 * r.triage.wasted_fraction(),
        r.triage.mean_queue_delay
    );
    if r.pipeline.degraded > 0 {
        println!(
            "  resilience: {} window(s) served by the fallback detector",
            r.pipeline.degraded
        );
    }
}
