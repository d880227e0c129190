//! The simulation driver and its report.

use crate::alerts::{Alert, Analyst, TriageStats};
use crate::detector::Detector;
use crate::pipeline::{ServedBy, StreamingPipeline, WindowVerdict};
use crate::traffic::{Flow, TrafficStream};
use pelican_core::PipelineHealth;
use std::collections::HashMap;

/// Simulation length and window shape.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Number of monitoring windows to replay.
    pub windows: usize,
    /// Background flows per window.
    pub flows_per_window: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            windows: 20,
            flows_per_window: 50,
        }
    }
}

/// Everything measured from one simulated deployment.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Display name of the pipeline's primary detector.
    pub detector: &'static str,
    /// Flows inspected (shed windows' flows are not counted here or in
    /// the rate denominators).
    pub flows: usize,
    /// Alerts raised.
    pub alerts: usize,
    /// Fraction of attack flows flagged (flow-level DR).
    pub detection_rate: f64,
    /// Fraction of normal flows flagged (flow-level FAR).
    pub false_alarm_rate: f64,
    /// Campaigns with at least one alert, over campaigns seen.
    pub campaigns_detected: usize,
    /// Total campaigns injected during the run.
    pub campaigns_total: usize,
    /// Mean seconds from a campaign's first flow to its first alert
    /// (detected campaigns only; `None` when no campaign was detected).
    pub mean_time_to_detection: Option<f64>,
    /// The serving pipeline's health counters: among them the windows
    /// served by the fallback (`degraded`) and the windows dropped before
    /// any detector saw them (`shed`).
    pub pipeline: PipelineHealth,
    /// The security team's triage statistics.
    pub triage: TriageStats,
}

/// Drives a [`TrafficStream`] through a [`StreamingPipeline`] into an
/// [`Analyst`] pool. See the [crate docs](crate) for an example.
#[derive(Debug, Clone, Copy)]
pub struct Simulation {
    config: SimConfig,
}

impl Simulation {
    /// Creates a simulation with the given shape.
    pub fn new(config: SimConfig) -> Self {
        Self { config }
    }

    /// Runs the deployment to completion and reports: windows are
    /// ingested under the pipeline's backpressure/shedding policy, served
    /// by its two tiers under the circuit breaker and deadline budget,
    /// and their alerts triaged in arrival order. A pipeline built with
    /// [`PipelineConfig::pass_through`](crate::PipelineConfig::pass_through)
    /// serves every window with the primary unless its verdict is
    /// invalid.
    ///
    /// Shed windows never reach a detector; their flows are excluded from
    /// `flows` and from the detection/false-alarm denominators. The
    /// pipeline is taken by `&mut` so the caller can inspect its breaker
    /// transitions or chaos log after the run.
    pub fn run_streaming<P: Detector, F: Detector>(
        &self,
        mut stream: TrafficStream,
        pipeline: &mut StreamingPipeline<P, F>,
        mut team: Analyst,
    ) -> SimReport {
        let mut windows: Vec<Vec<Flow>> = Vec::with_capacity(self.config.windows);
        let mut verdicts: Vec<WindowVerdict> = Vec::new();
        for _ in 0..self.config.windows {
            let window = stream.next_window(self.config.flows_per_window);
            windows.push(window.clone());
            verdicts.extend(pipeline.ingest(window));
        }
        verdicts.extend(pipeline.finish());
        // Replay outcomes in arrival order regardless of service order.
        verdicts.sort_by_key(|v| v.id);

        let mut flows_total = 0usize;
        let mut alerts_total = 0usize;
        let mut attacks = 0usize;
        let mut attacks_flagged = 0usize;
        let mut normals = 0usize;
        let mut normals_flagged = 0usize;
        let mut first_alert: HashMap<usize, f64> = HashMap::new();
        let mut clock = 0.0f64;

        for verdict in &verdicts {
            if verdict.served_by == ServedBy::Shed {
                continue;
            }
            let window = &windows[verdict.id];
            debug_assert_eq!(verdict.preds.len(), window.len());
            for (flow, &pred) in window.iter().zip(&verdict.preds) {
                flows_total += 1;
                clock = clock.max(flow.time);
                let flagged = pred != 0;
                if flow.true_class != 0 {
                    attacks += 1;
                    attacks_flagged += usize::from(flagged);
                } else {
                    normals += 1;
                    normals_flagged += usize::from(flagged);
                }
                if flagged {
                    alerts_total += 1;
                    if let Some(campaign) = flow.campaign {
                        first_alert.entry(campaign).or_insert(flow.time);
                    }
                    team.receive(Alert {
                        time: flow.time,
                        suspected_class: pred,
                        is_true_positive: flow.true_class != 0,
                        campaign: flow.campaign,
                    });
                }
            }
            team.work_until(clock);
        }
        // Let the team drain whatever it can in one more triage horizon.
        team.work_until(clock + 1e9);

        let campaigns = stream.campaigns();
        let mut latency_sum = 0.0f64;
        let mut detected = 0usize;
        for campaign in campaigns {
            if let Some(&t) = first_alert.get(&campaign.id) {
                detected += 1;
                latency_sum += t - campaign.start;
            }
        }

        SimReport {
            detector: pipeline.primary().name(),
            flows: flows_total,
            alerts: alerts_total,
            detection_rate: if attacks == 0 {
                0.0
            } else {
                attacks_flagged as f64 / attacks as f64
            },
            false_alarm_rate: if normals == 0 {
                0.0
            } else {
                normals_flagged as f64 / normals as f64
            },
            campaigns_detected: detected,
            campaigns_total: campaigns.len(),
            mean_time_to_detection: if detected == 0 {
                None
            } else {
                Some(latency_sum / detected as f64)
            },
            pipeline: *pipeline.health(),
            triage: team.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::FaultyDetector;
    use crate::detector::{AllNormalFallback, OracleDetector, ThresholdNoiseDetector};
    use crate::pipeline::PipelineConfig;
    use crate::traffic::TrafficStream;

    /// A plain deployment: `detector` behind a pass-through pipeline.
    fn serve(cfg: SimConfig, detector: impl Detector, team: Analyst) -> SimReport {
        let mut pipeline =
            StreamingPipeline::new(detector, AllNormalFallback, PipelineConfig::pass_through());
        Simulation::new(cfg).run_streaming(TrafficStream::nslkdd(0.4, 11), &mut pipeline, team)
    }

    fn run_with(det_dr: f64, det_far: f64) -> SimReport {
        let cfg = SimConfig {
            windows: 10,
            flows_per_window: 40,
        };
        let detector = OracleDetector::new(det_dr, det_far, 5);
        serve(cfg, detector, Analyst::new(2, 30.0))
    }

    #[test]
    fn perfect_detector_catches_every_campaign() {
        let report = run_with(1.0, 0.0);
        assert_eq!(report.campaigns_detected, report.campaigns_total);
        assert_eq!(report.false_alarm_rate, 0.0);
        assert_eq!(report.triage.wasted_seconds, 0.0);
        assert!(report.mean_time_to_detection.unwrap_or(1e9) < 1.0);
    }

    #[test]
    fn blind_detector_catches_nothing() {
        let detector = ThresholdNoiseDetector::new(0.0, 5);
        let report = serve(SimConfig::default(), detector, Analyst::new(1, 30.0));
        assert_eq!(report.alerts, 0);
        assert_eq!(report.campaigns_detected, 0);
        assert_eq!(report.mean_time_to_detection, None);
        assert_eq!(report.detection_rate, 0.0);
    }

    #[test]
    fn higher_far_wastes_more_analyst_time() {
        let clean = run_with(0.95, 0.01);
        let noisy = run_with(0.95, 0.3);
        assert!(
            noisy.triage.wasted_seconds > clean.triage.wasted_seconds,
            "noisy {} vs clean {}",
            noisy.triage.wasted_seconds,
            clean.triage.wasted_seconds
        );
        // And the queue backs up (or at least delays grow).
        assert!(
            noisy.triage.mean_queue_delay >= clean.triage.mean_queue_delay,
            "delays should grow with the false-alarm flood"
        );
    }

    #[test]
    fn degraded_windows_surface_in_the_report() {
        let faulty = FaultyDetector::new(OracleDetector::new(1.0, 0.0, 5), 17, 0.5);
        let cfg = SimConfig {
            windows: 20,
            flows_per_window: 40,
        };
        let report = serve(cfg, faulty, Analyst::new(2, 30.0));
        assert!(report.pipeline.degraded > 0, "rate 0.5 over 20 windows");
        assert!(report.pipeline.degraded <= cfg.windows);
        assert_eq!(report.pipeline.degraded, report.pipeline.primary_faults);
        assert_eq!(report.detector, "faulty");
        // The run completed and produced a coherent report despite faults.
        assert!(report.flows >= cfg.windows * cfg.flows_per_window);
        assert!((0.0..=1.0).contains(&report.detection_rate));
        // A healthy detector degrades no window.
        let clean = serve(cfg, OracleDetector::new(1.0, 0.0, 5), Analyst::new(2, 30.0));
        assert_eq!(clean.pipeline.degraded, 0);
    }

    #[test]
    fn streaming_run_reports_pipeline_health() {
        let stream = TrafficStream::nslkdd(0.4, 11);
        let mut pipeline = StreamingPipeline::new(
            OracleDetector::new(1.0, 0.0, 5),
            AllNormalFallback,
            PipelineConfig::default(),
        );
        let cfg = SimConfig {
            windows: 10,
            flows_per_window: 40,
        };
        let report =
            Simulation::new(cfg).run_streaming(stream, &mut pipeline, Analyst::new(2, 30.0));
        assert_eq!(report.pipeline.enqueued, 10);
        assert_eq!(report.pipeline.processed, 10);
        assert_eq!(report.detector, "oracle");
        assert_eq!(report.pipeline.shed, 0);
        assert_eq!(report.pipeline.degraded, 0);
        // A healthy default pipeline matches the pass-through deployment.
        let plain = run_with(1.0, 0.0);
        assert_eq!(report.flows, plain.flows);
        assert_eq!(report.alerts, plain.alerts);
        assert_eq!(
            report.detection_rate.to_bits(),
            plain.detection_rate.to_bits(),
            "identical verdicts, identical rates"
        );
    }

    #[test]
    fn report_counts_are_consistent() {
        let report = run_with(0.9, 0.1);
        // Campaign flows come on top of the background windows.
        assert!(report.flows >= 10 * 40);
        assert_eq!(report.alerts, report.triage.triaged + report.triage.backlog);
        assert!(report.campaigns_detected <= report.campaigns_total);
        assert!((0.0..=1.0).contains(&report.detection_rate));
        assert!((0.0..=1.0).contains(&report.false_alarm_rate));
    }
}
