//! The serve workload, and the serving path the training workloads' traced
//! runs score their held-out rows through.

use crate::stats::{median, quantile, Digest};
use crate::trace::{
    self, nominal_fwd_flops, span, timed, traced_network, TimedLoss, TimedOptim, LAYER_KINDS,
};
use crate::train::{self, net_config, StepClock};
use crate::{peak_rss_mib, Report};
use pelican_core::experiment::DatasetKind;
use pelican_core::models::{build_network, NetConfig};
use pelican_data::{OneHotEncoder, RawDataset, Schema, Standardizer};
use pelican_nn::loss::{Loss, SoftmaxCrossEntropy};
use pelican_nn::optim::{Optimizer, RmsProp};
use pelican_nn::{predict, Layer, Sequential, Trainer, TrainerConfig};
use pelican_observe::{InMemoryRecorder, ScopedRecorder};
use pelican_simulator::{
    AllNormalFallback, BreakerConfig, CostModel, Detector, Flow, PipelineConfig, ResilienceConfig,
    ServedBy, ShedPolicy, StreamingPipeline, TrafficStream, WindowVerdict,
};
use pelican_tensor::Tensor;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Labelled records the detector is pre-trained on during set-up; as many
/// as the NSL-KDD training workload generates, so two epochs train it as
/// reliably.
const HISTORY_ROWS: usize = 3000;
const PRETRAIN_EPOCHS: usize = 2;
const PRETRAIN_BATCH: usize = 250;
const LEARNING_RATE: f32 = 0.01;
/// Windows generated during set-up; the closed loop cycles over them.
const WINDOWS: usize = 200;
const BACKGROUND_FLOWS: usize = 50;
/// Per-window chance of an attack burst (the stream's default).
const CAMPAIGN_RATE: f64 = 0.15;
/// Every this many windows of the first pass are re-scored directly.
const CHECK_EVERY: usize = 20;
/// Share of first-pass flows the pre-trained detector must classify
/// correctly.
const ACC_FLOOR: f32 = 0.9;
/// Set-ups per untraced run; `setup_s` is their median. Each pre-trains,
/// so fewer than the training workloads repeat theirs.
const SERVE_SETUP_REPEATS: usize = 3;
/// Share of first-pass attack flows it must flag as any attack. Low on
/// purpose: the campaign classes a seed draws move the rate (0.60 to 1.0
/// over 20 seeds); the floor rejects a detector that calls everything
/// normal, which the accuracy floor alone would pass.
const DETECTION_FLOOR: f32 = 0.4;

/// The frozen preprocessing of a trained detector: one-hot encoding and
/// standardisation with training statistics.
pub struct Preprocess {
    encoder: OneHotEncoder,
    scaler: Standardizer,
    schema: Schema,
}

impl Preprocess {
    /// Fits the scaler on `rows` of `raw`, as `train_test_split` does.
    pub fn fit(raw: &RawDataset, rows: &[usize]) -> Self {
        let encoder = OneHotEncoder::from_schema(raw.schema());
        let scaler = Standardizer::fit(&encoder.encode(raw).gather_rows(rows));
        Self {
            encoder,
            scaler,
            schema: raw.schema().clone(),
        }
    }

    fn apply(&self, raw: &RawDataset) -> Tensor {
        self.scaler.transform(&self.encoder.encode(raw))
    }

    pub fn encode_flows(&self, flows: &[Flow]) -> Tensor {
        let records = flows.iter().map(|f| f.record.clone()).collect();
        let raw = RawDataset::new(self.schema.clone(), records, vec![0; flows.len()]);
        self.apply(&raw)
    }
}

/// The primary detector: encode → standardise → `predict`, with a span
/// around each part (recorded only while tracing is on).
struct ModelDetector {
    net: Rc<RefCell<Sequential>>,
    prep: Rc<Preprocess>,
}

impl Detector for ModelDetector {
    fn classify(&mut self, window: &[Flow]) -> Vec<usize> {
        timed("detector.classify", || {
            let x = timed("data.encode", || self.prep.encode_flows(window));
            let mut net = self.net.borrow_mut();
            timed("nn.eval_forward", || predict(&mut *net, &x, window.len()))
        })
    }

    fn name(&self) -> &'static str {
        "residual-41"
    }
}

/// A pipeline that serves every window with the primary: producer
/// blocking on a deep queue, no effective deadline, a breaker that never
/// trips.
fn pass_through() -> PipelineConfig {
    PipelineConfig {
        queue_capacity: 1024,
        shed: ShedPolicy::Block,
        deadline_ticks: u64::MAX,
        cost: CostModel::default(),
        breaker: BreakerConfig {
            consecutive_failures: usize::MAX,
            outcome_window: 0,
            ..BreakerConfig::default()
        },
        resilience: ResilienceConfig::default(),
    }
}

/// Checks every verdict as it arrives: served by the primary, repeats of
/// a window equal to its first verdict, and (when `sample` is set) every
/// `CHECK_EVERY`-th first-pass window equal to a direct `predict` on the
/// same encoded rows.
struct Checker<'a> {
    windows: &'a [Vec<Flow>],
    net: Rc<RefCell<Sequential>>,
    prep: Rc<Preprocess>,
    sample: bool,
    first: Vec<Option<Vec<usize>>>,
    verdicts: u64,
    not_primary: u64,
    rows: usize,
    sampled: usize,
    problems: Vec<String>,
}

impl<'a> Checker<'a> {
    fn new(
        windows: &'a [Vec<Flow>],
        net: &Rc<RefCell<Sequential>>,
        prep: &Rc<Preprocess>,
        sample: bool,
    ) -> Self {
        Self {
            windows,
            net: net.clone(),
            prep: prep.clone(),
            sample,
            first: vec![None; windows.len()],
            verdicts: 0,
            not_primary: 0,
            rows: 0,
            sampled: 0,
            problems: Vec::new(),
        }
    }

    fn see(&mut self, v: &WindowVerdict) {
        self.verdicts += 1;
        self.rows += v.preds.len();
        if v.served_by != ServedBy::Primary {
            self.not_primary += 1;
            self.problems
                .push(format!("window {} served by {:?}", v.id, v.served_by));
            return;
        }
        let slot = v.id % self.windows.len();
        match &self.first[slot] {
            Some(first) if *first != v.preds => self.problems.push(format!(
                "window {} verdict differs from its first pass",
                v.id
            )),
            Some(_) => {}
            None => {
                if self.sample && slot.is_multiple_of(CHECK_EVERY) {
                    let x = self.prep.encode_flows(&self.windows[slot]);
                    let direct = predict(&mut *self.net.borrow_mut(), &x, x.shape()[0]);
                    self.sampled += 1;
                    if direct != v.preds {
                        self.problems
                            .push(format!("window {} verdict differs from predict", v.id));
                    }
                }
                self.first[slot] = Some(v.preds.clone());
            }
        }
    }

    /// Moves the problems into the report; returns the first-pass verdicts.
    fn finish(self, report: &mut Report) -> Vec<Option<Vec<usize>>> {
        report.attempted += self.verdicts;
        report.failed += self.not_primary;
        report.problems.extend(self.problems);
        self.first
    }
}

#[derive(Default)]
struct Driven {
    /// Wall time of each `ingest` that returned verdicts.
    ingest_s: Vec<f64>,
    /// Flows classified by those calls.
    flows: usize,
}

/// One caller in a closed loop: each window is ingested once the previous
/// call has returned, cycling over `windows` for at least `min_ingests`
/// calls and `seconds`, then the tail is drained.
fn drive(
    pipeline: &mut StreamingPipeline<ModelDetector, AllNormalFallback>,
    windows: &[Vec<Flow>],
    min_ingests: usize,
    seconds: f64,
    checker: &mut Checker,
) -> Driven {
    let mut d = Driven::default();
    let start = Instant::now();
    let mut i = 0;
    while i < min_ingests || start.elapsed().as_secs_f64() < seconds {
        let flows = windows[i % windows.len()].clone();
        let t = Instant::now();
        let verdicts = timed("simulator.ingest", || pipeline.ingest(flows));
        let secs = t.elapsed().as_secs_f64();
        if !verdicts.is_empty() {
            d.ingest_s.push(secs);
            d.flows += verdicts.iter().map(|v| v.preds.len()).sum::<usize>();
        }
        for v in &verdicts {
            checker.see(v);
        }
        i += 1;
    }
    for v in &timed("simulator.ingest", || pipeline.finish()) {
        checker.see(v);
    }
    d
}

fn pipeline(
    net: &Rc<RefCell<Sequential>>,
    prep: &Rc<Preprocess>,
) -> StreamingPipeline<ModelDetector, AllNormalFallback> {
    let detector = ModelDetector {
        net: net.clone(),
        prep: prep.clone(),
    };
    StreamingPipeline::new(detector, AllNormalFallback, pass_through())
}

/// The held-out rows of a training workload as windows of
/// `BACKGROUND_FLOWS` flows, in held-out order.
pub fn held_out_windows(raw: &RawDataset, test_idx: &[usize]) -> Vec<Vec<Flow>> {
    let flows: Vec<Flow> = test_idx
        .iter()
        .map(|&i| Flow {
            time: i as f64,
            record: raw.records()[i].clone(),
            true_class: raw.labels()[i],
            campaign: None,
        })
        .collect();
    flows
        .chunks(BACKGROUND_FLOWS)
        .map(<[Flow]>::to_vec)
        .collect()
}

/// Scores `windows` through the pipeline with tracing on and reports the
/// per-window table. Returns the median `ingest` time.
#[allow(clippy::too_many_arguments)]
pub fn traced_window_phase(
    report: &mut Report,
    net: &Rc<RefCell<Sequential>>,
    prep: &Rc<Preprocess>,
    windows: &[Vec<Flow>],
    min_ingests: usize,
    seconds: f64,
    rec: &Arc<InMemoryRecorder>,
    ncfg: &NetConfig,
) -> f64 {
    let mut pipe = pipeline(net, prep);
    let mut checker = Checker::new(windows, net, prep, false);
    let recording = ScopedRecorder::install(rec.clone());
    let before = trace::read_counters(rec);
    trace::take_stats();
    trace::set_enabled(true);
    let d = drive(&mut pipe, windows, min_ingests, seconds, &mut checker);
    trace::set_enabled(false);
    let spans = trace::take_stats();
    let after = trace::read_counters(rec);
    drop(recording);
    let rows = checker.rows as f64;
    checker.finish(report);

    let classify = span(&spans, "detector.classify");
    let per = classify.count as f64;
    let ms = |ns: u64| ns as f64 / 1e6 / per;
    let mut attributed_ns = 0;
    for kind in LAYER_KINDS {
        let self_ns = span(&spans, &format!("nn.{kind}.fwd")).self_ns;
        attributed_ns += self_ns;
        report.metric(format!("window.nn.{kind}.fwd_ms"), ms(self_ns), "ms");
    }
    let residual_ns = span(&spans, "nn.residual.fwd").self_ns;
    let encode_ns = span(&spans, "data.encode").total_ns;
    let ingest_ns = span(&spans, "simulator.ingest").total_ns;
    let pipeline_ns = ingest_ns - classify.total_ns;
    attributed_ns += residual_ns + encode_ns + pipeline_ns;
    report.metric("window.nn.residual.self_ms", ms(residual_ns), "ms");
    report.metric("window.data.encode_ms", ms(encode_ns), "ms");
    report.metric(
        "window.nn.eval_forward_ms",
        ms(span(&spans, "nn.eval_forward").total_ns),
        "ms",
    );
    report.metric(
        "window.simulator.pipeline_overhead_ms",
        ms(pipeline_ns),
        "ms",
    );
    let total_ms = ms(ingest_ns);
    let unattributed_ms = total_ms - ms(attributed_ns);
    report.metric("window.total_ms", total_ms, "ms");
    report.metric("window.unattributed_ms", unattributed_ms, "ms");
    report.check(unattributed_ms <= 0.1 * total_ms, || {
        format!("per-window spans leave {unattributed_ms:.3} of {total_ms:.3} ms unattributed")
    });
    report.notes.push(format!(
        "traced windows {per}: {unattributed_ms:.3} of {total_ms:.3} ms per window unattributed ({:.2}%)",
        100.0 * unattributed_ms / total_ms
    ));
    for (kind, fwd_flops) in nominal_fwd_flops(ncfg, rows / per) {
        let busy_ns = span(&spans, &format!("nn.{kind}.fwd")).self_ns as f64 / per;
        report.metric(
            format!("window.nn.{kind}.gflops_achieved"),
            fwd_flops / busy_ns,
            "GFLOP/s",
        );
    }
    let counters: [u64; 4] = std::array::from_fn(|i| after[i] - before[i]);
    trace::counter_metrics(report, "window", &counters, per);
    median(&d.ingest_s)
}

struct ServeData {
    history: RawDataset,
    windows: Vec<Vec<Flow>>,
}

/// Historical records to pre-train on, and the live windows: 50
/// background flows each, plus any campaign burst, from an unseen stream.
fn generate(seed: u64) -> ServeData {
    let history = DatasetKind::NslKdd.generate(HISTORY_ROWS, seed ^ 0x4157_0000);
    let mut stream = TrafficStream::nslkdd(CAMPAIGN_RATE, seed);
    let windows = stream.next_windows(WINDOWS, BACKGROUND_FLOWS);
    ServeData { history, windows }
}

fn encode(history: &RawDataset) -> (Preprocess, Tensor, Vec<usize>) {
    let rows: Vec<usize> = (0..history.len()).collect();
    let prep = Preprocess::fit(history, &rows);
    let x = prep.apply(history);
    (prep, x, history.labels().to_vec())
}

struct ServeSetup {
    data: ServeData,
    prep: Preprocess,
    net: Sequential,
    losses: Vec<f32>,
}

/// Pre-trains the detector through `Trainer::fit`; returns each epoch's
/// training loss.
fn pretrain(
    net: &mut dyn Layer,
    loss: &dyn Loss,
    opt: &mut dyn Optimizer,
    x: &Tensor,
    y: &[usize],
    seed: u64,
) -> Result<Vec<f32>, String> {
    let history = Trainer::new(TrainerConfig {
        epochs: PRETRAIN_EPOCHS,
        batch_size: PRETRAIN_BATCH,
        shuffle_seed: seed ^ 0x5F5F,
        ..Default::default()
    })
    .fit(net, loss, opt, x, y, None)
    .map_err(|e| format!("pre-training failed: {e}"))?;
    Ok(history.epochs.iter().map(|e| e.train_loss).collect())
}

/// Generates the data and pre-trains Residual-41.
fn setup(seed: u64) -> Result<ServeSetup, String> {
    let data = generate(seed);
    let (prep, x, y) = encode(&data.history);
    let mut net = build_network(&net_config(DatasetKind::NslKdd, seed));
    let losses = pretrain(
        &mut net,
        &SoftmaxCrossEntropy,
        &mut RmsProp::new(LEARNING_RATE),
        &x,
        &y,
        seed,
    )?;
    Ok(ServeSetup {
        data,
        prep,
        net,
        losses,
    })
}

/// The untraced run: one caller ingests the windows through the
/// pass-through pipeline until the time is up.
pub fn untraced(seed: u64, seconds: f64) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SERVE_SETUP_REPEATS {
        let start = Instant::now();
        built = Some(setup(seed)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let s = built.expect("set-up ran");
    let windows = &s.data.windows;
    let net = Rc::new(RefCell::new(s.net));
    let prep = Rc::new(s.prep);

    let mut report = Report::default();
    let mut pipe = pipeline(&net, &prep);
    let mut checker = Checker::new(windows, &net, &prep, true);
    let d = drive(&mut pipe, windows, windows.len(), seconds, &mut checker);
    let sampled = checker.sampled;
    let first = checker.finish(&mut report);

    let mut digest = Digest::default();
    let (mut flows, mut hits, mut attacks, mut caught) = (0usize, 0usize, 0usize, 0usize);
    for (window, preds) in windows.iter().zip(&first) {
        let preds = preds.as_deref().unwrap_or_default();
        for (f, &p) in window.iter().zip(preds) {
            flows += 1;
            hits += usize::from(f.true_class == p);
            if f.true_class != 0 {
                attacks += 1;
                caught += usize::from(p != 0);
            }
            digest.add(p as u64);
        }
    }
    for &l in &s.losses {
        digest.add_f32(l);
    }
    let acc = hits as f32 / flows as f32;
    let detection = caught as f32 / attacks.max(1) as f32;
    report.check(acc >= ACC_FLOOR && detection >= DETECTION_FLOOR, || {
        format!("served accuracy {acc} / detection rate {detection} below {ACC_FLOOR} / {DETECTION_FLOOR}")
    });
    let final_loss = *s.losses.last().expect("pre-training ran");
    report.check(final_loss.is_finite(), || {
        format!("pre-training loss {final_loss}")
    });
    if d.ingest_s.is_empty() {
        return Err("no window was served".into());
    }

    let ms: Vec<f64> = d.ingest_s.iter().map(|s| s * 1e3).collect();
    report.metric(
        "rows_per_s",
        d.flows as f64 / d.ingest_s.iter().sum::<f64>(),
        "1/s",
    );
    report.metric("op_ms_p50", median(&ms), "ms");
    report.metric("setup_s", median(&setup_s), "s");
    report.metric("peak_rss_mib", peak_rss_mib()?, "MiB");
    report.notes.push(format!(
        "{} ingest calls timed, {} flows, window p90 {:.3} ms, p99 {:.3} ms; first-pass accuracy {acc:.4}, detection rate {detection:.4} of {attacks} attacks; \
         {sampled} windows re-scored directly",
        ms.len(),
        d.flows,
        quantile(&ms, 0.9),
        quantile(&ms, 0.99)
    ));
    report
        .notes
        .push(format!("final_train_loss {final_loss} after pre-training"));
    report.notes.push(format!(
        "failed_share {}/{}",
        report.failed, report.attempted
    ));
    report.notes.push(format!("digest {}", digest.hex()));
    Ok(report)
}

/// The traced run: set-up timed piece by piece, the same-program check,
/// traced pre-training, then an untraced and a traced stretch of serving.
pub fn traced(seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let ncfg = net_config(DatasetKind::NslKdd, seed);
    let t = Instant::now();
    let data = generate(seed);
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (prep, x, y) = encode(&data.history);
    let encode_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut reference = build_network(&ncfg);
    let build_s = t.elapsed().as_secs_f64();

    let mut net = traced_network(&ncfg);
    train::same_program_check(
        &mut reference,
        &mut net,
        &x,
        &y,
        PRETRAIN_BATCH,
        &mut report,
    );
    drop(reference);
    let rec = Arc::new(InMemoryRecorder::new());
    let mut model = StepClock::new(net);
    let phase = train::traced_fit(&mut model, &rec, |m| {
        pretrain(
            m,
            &TimedLoss(SoftmaxCrossEntropy),
            &mut TimedOptim(RmsProp::new(LEARNING_RATE)),
            &x,
            &y,
            seed,
        )
        .map(drop)
    })?;
    train::step_metrics(&mut report, &phase, &ncfg);

    let windows = &data.windows;
    let net = Rc::new(RefCell::new(model.inner));
    let prep = Rc::new(prep);
    let mut pipe = pipeline(&net, &prep);
    let mut checker = Checker::new(windows, &net, &prep, true);
    let untraced = drive(&mut pipe, windows, 1, 0.3 * seconds, &mut checker);
    checker.finish(&mut report);
    let traced_p50 = traced_window_phase(
        &mut report,
        &net,
        &prep,
        windows,
        1,
        0.7 * seconds,
        &rec,
        &ncfg,
    );
    let untraced_p50 = median(&untraced.ingest_s);
    report.metric(
        "trace.overhead_pct",
        100.0 * (traced_p50 - untraced_p50) / untraced_p50,
        "%",
    );
    report.metric("setup.data.generate_s", generate_s, "s");
    report.metric("setup.data.split_encode_s", encode_s, "s");
    report.metric("setup.core.build_network_s", build_s, "s");
    Ok(report)
}
