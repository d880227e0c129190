//! The detector interface, the trained-network detector, and reference
//! detectors.

use crate::traffic::Flow;
use pelican_data::{OneHotEncoder, RawDataset, Schema, Standardizer};
use pelican_nn::{predict, Sequential};
use pelican_tensor::SeededRng;

/// A network intrusion detector inspecting flows one window at a time.
///
/// The signature is deliberately minimal — a real model wraps its
/// preprocessing (one-hot + standardise) and its network behind this
/// trait, as [`ModelDetector`] does; the simulator neither knows nor
/// cares. Returns one predicted class per flow (0 = normal, anything else
/// raises an alert). Detectors are served through a
/// [`StreamingPipeline`](crate::StreamingPipeline), which validates every
/// verdict and serves the window from its fallback detector when the
/// verdict is malformed or `classify` panics.
pub trait Detector {
    /// Classifies every flow in the window.
    fn classify(&mut self, window: &[Flow]) -> Vec<usize>;

    /// Display name for reports.
    fn name(&self) -> &'static str;

    /// Extra virtual-clock ticks the last [`classify`](Detector::classify)
    /// call consumed beyond the pipeline's cost model, drained on read
    /// (a second call returns 0 until the next classify).
    ///
    /// The streaming pipeline charges these ticks against the window's
    /// deadline, so a detector that stalls — genuinely slow inference, or
    /// an injected chaos stall from
    /// [`FaultyDetector`](crate::FaultyDetector) — misses deadlines
    /// deterministically instead of nondeterministically via wall time.
    fn take_stall_ticks(&mut self) -> u64 {
        0
    }
}

/// A trained network behind its frozen preprocessing: each window's raw
/// records are one-hot encoded and standardised with the training
/// statistics, then classified by the network in eval mode.
///
/// A record that does not fit the schema (wrong arity, wrong value kind,
/// non-finite numeric, categorical index out of vocabulary) makes the
/// whole window's verdict empty instead of panicking in preprocessing;
/// the pipeline rejects the empty verdict as a primary fault and serves
/// the window from its fallback.
pub struct ModelDetector {
    net: Sequential,
    encoder: OneHotEncoder,
    scaler: Standardizer,
    schema: Schema,
}

impl ModelDetector {
    /// Rows per eval forward pass.
    const BATCH: usize = 256;

    /// Wraps `net`, trained on rows of `schema` encoded by `encoder` and
    /// standardised by `scaler`.
    pub fn new(
        net: Sequential,
        encoder: OneHotEncoder,
        scaler: Standardizer,
        schema: Schema,
    ) -> Self {
        Self {
            net,
            encoder,
            scaler,
            schema,
        }
    }
}

impl Detector for ModelDetector {
    fn classify(&mut self, window: &[Flow]) -> Vec<usize> {
        if window.is_empty() || !window.iter().all(|f| self.schema.admits(&f.record)) {
            return Vec::new();
        }
        let records = window.iter().map(|f| f.record.clone()).collect();
        // Labels are ignored by preprocessing.
        let raw = RawDataset::new(self.schema.clone(), records, vec![0; window.len()]);
        let x = self.scaler.transform(&self.encoder.encode(&raw));
        predict(&mut self.net, &x, Self::BATCH)
    }

    fn name(&self) -> &'static str {
        "pelican"
    }
}

/// A fallback that never alerts — fail-silent: the pipeline stays up and
/// the analysts stay undisturbed, at the cost of missing attacks in
/// degraded windows. The conservative default when no legacy detector is
/// available to fall back on.
#[derive(Debug, Default, Clone, Copy)]
pub struct AllNormalFallback;

impl Detector for AllNormalFallback {
    fn classify(&mut self, window: &[Flow]) -> Vec<usize> {
        vec![0; window.len()]
    }

    fn name(&self) -> &'static str {
        "all-normal"
    }
}

/// A ground-truth oracle degraded by configurable miss and false-alarm
/// probabilities — the reference detector for calibrating the workload
/// model and for tests.
///
/// With `detection_rate = 1 - miss` and `far` both configurable, the
/// simulator's workload curves can be swept without training anything.
#[derive(Debug)]
pub struct OracleDetector {
    detection_rate: f64,
    false_alarm_rate: f64,
    rng: SeededRng,
}

impl OracleDetector {
    /// Creates an oracle achieving the given DR and FAR in expectation.
    ///
    /// # Panics
    ///
    /// Panics unless both rates are within `[0, 1]`.
    pub fn new(detection_rate: f64, false_alarm_rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&detection_rate), "DR must be a rate");
        assert!(
            (0.0..=1.0).contains(&false_alarm_rate),
            "FAR must be a rate"
        );
        Self {
            detection_rate,
            false_alarm_rate,
            rng: SeededRng::new(seed),
        }
    }
}

impl Detector for OracleDetector {
    fn classify(&mut self, window: &[Flow]) -> Vec<usize> {
        window
            .iter()
            .map(|flow| {
                if flow.true_class != 0 {
                    if f64::from(self.rng.uniform()) < self.detection_rate {
                        flow.true_class
                    } else {
                        0
                    }
                } else if f64::from(self.rng.uniform()) < self.false_alarm_rate {
                    1 // flag as a generic attack
                } else {
                    0
                }
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "oracle"
    }
}

/// A detector that alerts uniformly at random — the floor any learned
/// model must beat, and a stress source for the analyst queue.
#[derive(Debug)]
pub struct ThresholdNoiseDetector {
    alert_probability: f64,
    rng: SeededRng,
}

impl ThresholdNoiseDetector {
    /// Alerts on any flow with the given probability.
    ///
    /// # Panics
    ///
    /// Panics unless the probability is within `[0, 1]`.
    pub fn new(alert_probability: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&alert_probability),
            "probability must be a rate"
        );
        Self {
            alert_probability,
            rng: SeededRng::new(seed),
        }
    }
}

impl Detector for ThresholdNoiseDetector {
    fn classify(&mut self, window: &[Flow]) -> Vec<usize> {
        window
            .iter()
            .map(|_| usize::from(f64::from(self.rng.uniform()) < self.alert_probability))
            .collect()
    }

    fn name(&self) -> &'static str {
        "noise"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficStream;
    use pelican_tensor::Tensor;

    fn window() -> Vec<Flow> {
        TrafficStream::nslkdd(0.5, 1).next_window(200)
    }

    #[test]
    fn perfect_oracle_is_exact() {
        let w = window();
        let mut oracle = OracleDetector::new(1.0, 0.0, 0);
        let preds = oracle.classify(&w);
        for (p, f) in preds.iter().zip(&w) {
            assert_eq!(*p != 0, f.true_class != 0);
        }
    }

    #[test]
    fn oracle_rates_are_approximately_respected() {
        let w = window();
        let mut oracle = OracleDetector::new(0.8, 0.2, 1);
        let preds = oracle.classify(&w);
        let (mut tp, mut attacks, mut fp, mut normals) = (0, 0, 0, 0);
        for (p, f) in preds.iter().zip(&w) {
            if f.true_class != 0 {
                attacks += 1;
                tp += usize::from(*p != 0);
            } else {
                normals += 1;
                fp += usize::from(*p != 0);
            }
        }
        if attacks > 20 {
            let dr = tp as f64 / attacks as f64;
            assert!((dr - 0.8).abs() < 0.2, "DR {dr}");
        }
        let far = fp as f64 / normals as f64;
        assert!((far - 0.2).abs() < 0.12, "FAR {far}");
    }

    #[test]
    fn noise_detector_ignores_ground_truth() {
        let w = window();
        let mut silent = ThresholdNoiseDetector::new(0.0, 2);
        assert!(silent.classify(&w).iter().all(|&p| p == 0));
        let mut screaming = ThresholdNoiseDetector::new(1.0, 2);
        assert!(screaming.classify(&w).iter().all(|&p| p == 1));
    }

    /// An untrained single-block network over NSL-KDD, its preprocessing
    /// fitted on `raw`, and `raw`'s rows as flows.
    fn model(raw: &RawDataset) -> (ModelDetector, Tensor, Vec<Flow>) {
        let encoder = OneHotEncoder::from_schema(raw.schema());
        let scaler = Standardizer::fit(&encoder.encode(raw));
        let x = scaler.transform(&encoder.encode(raw));
        let net = pelican_core::models::build_network(&pelican_core::models::NetConfig {
            in_features: x.shape()[1],
            classes: raw.schema().class_count(),
            blocks: 1,
            residual: true,
            kernel: 10,
            dropout: 0.6,
            seed: 5,
        });
        let flows = raw
            .records()
            .iter()
            .zip(raw.labels())
            .enumerate()
            .map(|(i, (record, &true_class))| Flow {
                time: i as f64,
                record: record.clone(),
                true_class,
                campaign: None,
            })
            .collect();
        let det = ModelDetector::new(net, encoder, scaler, raw.schema().clone());
        (det, x, flows)
    }

    #[test]
    fn model_verdict_equals_direct_predict() {
        let raw = pelican_data::nslkdd::generate(300, 3);
        let (mut det, x, flows) = model(&raw);
        let rows: Vec<usize> = (20..290).collect();
        let direct = predict(&mut det.net, &x.gather_rows(&rows), rows.len());
        assert_eq!(det.classify(&flows[20..290]), direct);
        assert!(det.classify(&[]).is_empty());
    }

    #[test]
    fn wrong_arity_record_is_served_by_the_fallback() {
        use crate::pipeline::{PipelineConfig, ResilienceConfig, ServedBy, StreamingPipeline};
        use pelican_data::Value;
        let raw = pelican_data::nslkdd::generate(90, 4);
        let (det, _, flows) = model(&raw);
        let mut bad = flows[..30].to_vec();
        bad[7].record.pop();
        // A NaN logit row would argmax to class 0 and pass as a verdict.
        let mut nan = flows[30..60].to_vec();
        let numeric = nan[3]
            .record
            .iter()
            .position(|v| matches!(v, Value::Num(_)))
            .unwrap();
        nan[3].record[numeric] = Value::Num(f32::NAN);
        // Panics are not caught, so a panic in preprocessing would fail
        // the test instead of being absorbed by the pipeline.
        let config = PipelineConfig {
            resilience: ResilienceConfig {
                catch_panics: false,
                ..Default::default()
            },
            ..PipelineConfig::pass_through()
        };
        let mut pipe = StreamingPipeline::new(det, AllNormalFallback, config);
        let mut verdicts = pipe.ingest(bad);
        verdicts.extend(pipe.ingest(nan));
        verdicts.extend(pipe.ingest(flows[60..].to_vec()));
        verdicts.extend(pipe.finish());
        verdicts.sort_by_key(|v| v.id);
        for v in &verdicts[..2] {
            assert_eq!(v.served_by, ServedBy::Fallback);
            assert_eq!(v.preds, vec![0; 30]);
        }
        assert_eq!(verdicts[2].served_by, ServedBy::Primary, "primary retried");
        assert_eq!(pipe.health().primary_faults, 2);
        assert_eq!(pipe.health().degraded, 2);
    }

    #[test]
    #[should_panic(expected = "must be a rate")]
    fn bad_rate_rejected() {
        OracleDetector::new(1.5, 0.0, 0);
    }
}
