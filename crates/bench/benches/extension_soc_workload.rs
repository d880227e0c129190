//! Extension: the paper's motivation, quantified. "The high detection
//! rate achieved by a traditional ML-based detection method is often
//! accompanied by large false-alarms, which greatly affects its overall
//! performance … adding unnecessary workload to the security team and may
//! delay the counter-attack responses" (Sections I and VI).
//!
//! This bench replays the same traffic stream through detectors operating
//! at the (DR, FAR) points of Table V's models and reports what each FAR
//! costs a finite security team: wasted triage effort, queue delay, and
//! time-to-detection of attack campaigns.

use pelican_bench::{banner, render_table};
use pelican_simulator::{
    AllNormalFallback, Analyst, OracleDetector, PipelineConfig, SimConfig, Simulation,
    StreamingPipeline, TrafficConfig, TrafficStream,
};

fn main() {
    banner("Extension: security-team workload vs false-alarm rate (Fig. 1 scenario)");
    // (name, DR, FAR) — the paper's Table V operating points.
    let designs = [
        ("AdaBoost", 0.9113, 0.2211),
        ("SVM (RBF)", 0.8371, 0.0773),
        ("HAST-IDS", 0.9365, 0.0960),
        ("CNN", 0.9228, 0.0384),
        ("LSTM", 0.9276, 0.0363),
        ("MLP", 0.9674, 0.0366),
        ("RF", 0.9224, 0.0301),
        ("LuNet", 0.9743, 0.0289),
        ("Pelican", 0.9775, 0.0130),
    ];

    let mut rows = Vec::new();
    for (i, &(name, dr, far)) in designs.iter().enumerate() {
        // Same traffic for every detector: identical seed. One flow every
        // ~30 s (a small organisation's monitored link), ~98% normal.
        let stream = TrafficStream::from_dataset(
            pelican_data::unswnb15::generate(4000, 99),
            TrafficConfig {
                mean_interarrival: 30.0,
                campaign_rate: 0.3,
                ..Default::default()
            },
            99,
        );
        let detector = OracleDetector::new(dr, far, 1000 + i as u64);
        let mut pipeline =
            StreamingPipeline::new(detector, AllNormalFallback, PipelineConfig::pass_through());
        let team = Analyst::new(2, 180.0); // two analysts, 3 min per alert
        let report = Simulation::new(SimConfig {
            windows: 40,
            flows_per_window: 60,
        })
        .run_streaming(stream, &mut pipeline, team);
        rows.push(vec![
            name.to_string(),
            format!("{:.2}", 100.0 * far),
            format!("{}", report.alerts),
            format!("{:.0}", report.triage.wasted_seconds),
            format!("{:.1}", 100.0 * report.triage.wasted_fraction()),
            format!("{}", report.triage.backlog),
            format!("{:.0}", report.triage.mean_queue_delay),
            report
                .mean_time_to_detection
                .map_or("-".to_string(), |t| format!("{t:.1}")),
            format!("{}/{}", report.campaigns_detected, report.campaigns_total),
        ]);
    }
    print!(
        "{}",
        render_table(
            &[
                "Design",
                "FAR%",
                "alerts",
                "wasted s",
                "wasted %",
                "backlog",
                "mean delay s",
                "TTD s",
                "campaigns",
            ],
            &rows
        )
    );
    println!(
        "\nReading: at AdaBoost's 22% FAR the two-analyst team drowns — most\n\
         triage effort is wasted on false alarms and the queue backlog delays\n\
         every real investigation; at Pelican's 1.3% FAR nearly all effort\n\
         lands on true attacks and campaigns are triaged as they arrive.\n\
         This is the operational content of the paper's FAR column."
    );
}
