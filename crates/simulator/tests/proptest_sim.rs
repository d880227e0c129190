//! Property-based tests for the deployment simulator.

use pelican_core::models::{build_network, NetConfig};
use pelican_data::{FeatureKind, OneHotEncoder, RawDataset, Schema, Standardizer, Value};
use pelican_simulator::{
    Alert, AllNormalFallback, Analyst, Detector, Flow, ModelDetector, OracleDetector,
    PipelineConfig, PipelineHealth, ResilienceConfig, ServedBy, SimConfig, Simulation,
    StreamingPipeline, TrafficConfig, TrafficStream, WindowVerdict,
};
use proptest::prelude::*;

/// Rows of the NSL-KDD sample the model-detector property draws from.
const POOL: usize = 40;

/// Reshapes `record` by mangling rule `how` (`param` picks the field and
/// the variant) and returns whether the result still fits `schema`:
/// 0 keeps it, 1 makes every numeric a huge finite value, 2 drops the last
/// value, 3 appends one, 4 sets a numeric to NaN or ±inf, 5 pushes a
/// categorical index past its vocabulary, 6 swaps a value's kind.
fn mangle(record: &mut Vec<Value>, schema: &Schema, how: usize, param: usize) -> bool {
    let nth = |numeric: bool| {
        let fields: Vec<usize> = (0..record.len())
            .filter(|&i| matches!(record[i], Value::Num(_)) == numeric)
            .collect();
        fields[param % fields.len()]
    };
    match how {
        0 => return true,
        1 => {
            let huge = if param.is_multiple_of(2) { 1e30 } else { -1e30 };
            for v in record.iter_mut() {
                if let Value::Num(x) = v {
                    *x = huge;
                }
            }
            return true;
        }
        2 => {
            record.pop();
        }
        3 => record.push(Value::Num(0.0)),
        4 => {
            let i = nth(true);
            record[i] = Value::Num([f32::NAN, f32::INFINITY, f32::NEG_INFINITY][param % 3]);
        }
        5 => {
            let i = nth(false);
            let FeatureKind::Categorical(vocab) = &schema.features[i].kind else {
                unreachable!("categorical value in a numeric field")
            };
            record[i] = Value::Cat(vocab.len() + param);
        }
        _ => {
            let i = param % record.len();
            record[i] = match record[i] {
                Value::Num(_) => Value::Cat(0),
                Value::Cat(_) => Value::Num(0.0),
            };
        }
    }
    false
}

/// Serves one window through a pass-through pipeline with the given
/// validation settings.
fn serve_one(
    primary: impl Detector,
    resilience: ResilienceConfig,
    window: Vec<Flow>,
) -> (WindowVerdict, PipelineHealth) {
    let config = PipelineConfig {
        resilience,
        ..PipelineConfig::pass_through()
    };
    let mut pipe = StreamingPipeline::new(primary, AllNormalFallback, config);
    let mut verdicts = pipe.ingest(window);
    verdicts.extend(pipe.finish());
    assert_eq!(verdicts.len(), 1);
    (verdicts.remove(0), *pipe.health())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The analyst queue conserves alerts: received = triaged + backlog.
    #[test]
    fn alert_conservation(n_alerts in 0usize..50, analysts in 1usize..4, horizon in 0.0f64..500.0) {
        let mut team = Analyst::new(analysts, 10.0);
        for i in 0..n_alerts {
            team.receive(Alert {
                time: i as f64,
                suspected_class: 1,
                is_true_positive: i % 2 == 0,
                campaign: None,
            });
        }
        team.work_until(horizon);
        prop_assert_eq!(team.outcomes().len() + team.backlog(), n_alerts);
        // Outcomes complete in non-decreasing start order per analyst and
        // never before their alert arrived.
        for o in team.outcomes() {
            prop_assert!(o.queue_delay >= 0.0);
            prop_assert!(o.completed_at >= 10.0);
        }
    }

    /// More analysts never increase the backlog for the same alert load.
    #[test]
    fn more_analysts_never_hurt(n_alerts in 1usize..40, horizon in 10.0f64..200.0) {
        let run = |count: usize| {
            let mut team = Analyst::new(count, 15.0);
            for i in 0..n_alerts {
                team.receive(Alert {
                    time: (i as f64) * 0.5,
                    suspected_class: 1,
                    is_true_positive: true,
                    campaign: None,
                });
            }
            team.work_until(horizon);
            team.backlog()
        };
        prop_assert!(run(3) <= run(1));
    }

    /// Simulation reports stay internally consistent for arbitrary
    /// detector operating points.
    #[test]
    fn report_invariants(dr in 0.0f64..1.0, far in 0.0f64..1.0, seed in 0u64..100) {
        let stream = TrafficStream::from_dataset(
            pelican_data::nslkdd::generate(300, seed),
            TrafficConfig::default(),
            seed,
        );
        let mut pipeline = StreamingPipeline::new(
            OracleDetector::new(dr, far, seed),
            AllNormalFallback,
            PipelineConfig::pass_through(),
        );
        let report = Simulation::new(SimConfig { windows: 4, flows_per_window: 25 })
            .run_streaming(stream, &mut pipeline, Analyst::new(2, 20.0));
        prop_assert_eq!(report.pipeline.processed, 4);
        prop_assert_eq!(report.pipeline.degraded, 0);
        prop_assert!((0.0..=1.0).contains(&report.detection_rate));
        prop_assert!((0.0..=1.0).contains(&report.false_alarm_rate));
        prop_assert!(report.campaigns_detected <= report.campaigns_total);
        prop_assert_eq!(report.alerts, report.triage.triaged + report.triage.backlog);
        prop_assert!(report.triage.wasted_fraction() >= 0.0);
        prop_assert!(report.triage.wasted_fraction() <= 1.0);
        if report.alerts == 0 {
            prop_assert_eq!(report.campaigns_detected, 0);
        }
    }

    /// The flow-budget boundary is inclusive: a window of exactly
    /// `flow_budget` flows is served by the primary; one flow more
    /// degrades to the fallback. Holds for every budget, including 0.
    #[test]
    fn flow_budget_boundary_is_inclusive(budget in 0usize..30, extra in 0usize..10, seed in 0u64..50) {
        let mut stream = TrafficStream::nslkdd(0.0, seed);
        let window = stream.next_window((budget + extra).max(1));
        let window = window[..(budget + extra).min(window.len())].to_vec();
        let len = window.len();
        let config = ResilienceConfig { flow_budget: budget, ..Default::default() };
        let (verdict, health) = serve_one(OracleDetector::new(1.0, 0.0, seed), config, window);
        prop_assert_eq!(verdict.preds.len(), len, "fallback or primary must cover the window");
        let should_degrade = len > budget;
        let expected = if should_degrade { ServedBy::Fallback } else { ServedBy::Primary };
        prop_assert_eq!(
            verdict.served_by,
            expected,
            "len {} vs budget {}: exactly-at-budget stays on the primary",
            len,
            budget
        );
        prop_assert_eq!(health.degraded, usize::from(should_degrade));
    }

    /// `class_bound == 0` makes every non-empty verdict invalid: the
    /// window always degrades to the fallback, and an empty window passes
    /// vacuously — the run never panics either way.
    #[test]
    fn zero_class_bound_always_degrades(len in 0usize..25, seed in 0u64..50) {
        let window: Vec<Flow> = if len == 0 {
            Vec::new()
        } else {
            TrafficStream::nslkdd(0.0, seed).next_window(len)
        };
        let n = window.len();
        let config = ResilienceConfig { class_bound: 0, ..Default::default() };
        let (verdict, health) = serve_one(OracleDetector::new(1.0, 0.0, seed), config, window);
        prop_assert_eq!(verdict.preds.len(), n);
        if n == 0 {
            prop_assert_eq!(verdict.served_by, ServedBy::Primary);
            prop_assert_eq!(health.degraded, 0, "empty verdicts are vacuously valid");
        } else {
            prop_assert_eq!(verdict.served_by, ServedBy::Fallback);
            prop_assert_eq!(health.degraded, 1);
            prop_assert!(verdict.preds.iter().all(|&p| p == 0), "fallback serves the window");
        }
    }

    /// `flow_budget == 0` routes every non-empty window to the fallback
    /// without ever invoking the primary.
    #[test]
    fn zero_flow_budget_never_invokes_primary(len in 1usize..25, seed in 0u64..50) {
        struct MustNotRun;
        impl Detector for MustNotRun {
            fn classify(&mut self, _: &[Flow]) -> Vec<usize> {
                panic!("primary must not be invoked with a zero flow budget")
            }
            fn name(&self) -> &'static str { "must-not-run" }
        }
        let window = TrafficStream::nslkdd(0.0, seed).next_window(len);
        let n = window.len();
        let config = ResilienceConfig {
            flow_budget: 0,
            catch_panics: false, // a primary invocation would abort the test
            ..Default::default()
        };
        let (verdict, health) = serve_one(MustNotRun, config, window);
        prop_assert_eq!(verdict.preds.len(), n);
        prop_assert_eq!(verdict.served_by, ServedBy::Fallback);
        prop_assert_eq!(health.degraded, 1);
        prop_assert_eq!(health.primary_faults, 0);
    }

    /// Traffic windows always deliver at least the background count and
    /// flows carry valid classes.
    #[test]
    fn window_shape(background in 1usize..40, rate in 0.0f64..1.0, seed in 0u64..100) {
        let mut stream = TrafficStream::nslkdd(rate, seed);
        let window = stream.next_window(background);
        prop_assert!(window.len() >= background);
        let classes = stream.source().schema().class_count();
        for flow in &window {
            prop_assert!(flow.true_class < classes);
            prop_assert!(flow.time.is_finite() && flow.time >= 0.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Arbitrary windows never panic the model detector. It returns an
    /// empty verdict exactly when some record does not fit the schema;
    /// otherwise one in-range class per flow, equal to a direct `predict`
    /// on the same rows. Each window applies one mangling rule (`how`) to
    /// the flows it marks `hit`, so every kind of misfit is met on its own.
    #[test]
    fn model_detector_survives_arbitrary_windows(
        how in 0usize..7,
        picks in prop::collection::vec((0usize..POOL, 0usize..2, 0usize..4), 0..10),
    ) {
        let raw = pelican_data::nslkdd::generate(POOL, 21);
        let schema = raw.schema().clone();
        let encoder = OneHotEncoder::from_schema(&schema);
        let scaler = Standardizer::fit(&encoder.encode(&raw));
        let net = || build_network(&NetConfig {
            in_features: encoder.width(),
            classes: schema.class_count(),
            blocks: 1,
            residual: true,
            kernel: 10,
            dropout: 0.6,
            seed: 3,
        });
        let mut admitted = true;
        let window: Vec<Flow> = picks
            .iter()
            .enumerate()
            .map(|(i, &(row, hit, param))| {
                let mut record = raw.records()[row].clone();
                if hit == 1 {
                    admitted &= mangle(&mut record, &schema, how, param);
                }
                Flow { time: i as f64, record, true_class: 0, campaign: None }
            })
            .collect();
        let mut det = ModelDetector::new(net(), encoder.clone(), scaler.clone(), schema.clone());
        let verdict = det.classify(&window);
        if !admitted {
            prop_assert!(verdict.is_empty(), "a misfit record must empty the verdict");
        } else {
            prop_assert_eq!(verdict.len(), window.len());
            prop_assert!(verdict.iter().all(|&c| c < schema.class_count()));
            if !window.is_empty() {
                let records = window.iter().map(|f| f.record.clone()).collect();
                let rows = RawDataset::new(schema.clone(), records, vec![0; window.len()]);
                let x = scaler.transform(&encoder.encode(&rows));
                prop_assert_eq!(verdict, pelican_nn::predict(&mut net(), &x, 256));
            }
        }
    }
}
