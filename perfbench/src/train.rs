//! The training workloads, and the traced stretch of `Trainer::fit` the
//! serve workload also uses for its pre-training.

use crate::serve::{self, Preprocess};
use crate::stats::{median, quantile, Digest};
use crate::trace::{
    self, nominal_fwd_flops, span, timed, traced_network, SpanStat, TimedLoss, TimedOptim,
    LAYER_KINDS,
};
use crate::{peak_rss_mib, Report};
use pelican_core::experiment::{prepare_split, DatasetKind, ExpConfig};
use pelican_core::models::{build_network, NetConfig};
use pelican_data::{holdout_indices, train_test_split, EncodedSplit};
use pelican_nn::loss::{Loss, SoftmaxCrossEntropy};
use pelican_nn::optim::{Optimizer, RmsProp};
use pelican_nn::{predict, Layer, Mode, Param, Sequential, Trainer, TrainerConfig};
use pelican_observe::{with_recorder, InMemoryRecorder, NoopRecorder};
use pelican_runtime::stream_seed;
use pelican_tensor::Tensor;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median. Set-up is
/// sub-second here, so many repeats are cheap and steady the median.
const TRAIN_SETUP_REPEATS: usize = 15;

/// One training workload: Residual-41 on a synthetic dataset.
pub struct TrainSpec {
    pub dataset: DatasetKind,
    /// Records generated; 10% are held out.
    pub samples: usize,
    pub batch: usize,
    /// Epochs whose losses and held-out predictions are deterministic and
    /// go into the digest; the run keeps training until its time is up.
    pub fixed_epochs: usize,
    /// Held-out accuracy the network must reach after `fixed_epochs`.
    pub acc_floor: f32,
}

impl TrainSpec {
    /// Table I settings at the workload's scale, independent of the
    /// `PELICAN_*` environment knobs.
    fn exp_config(&self, seed: u64) -> ExpConfig {
        ExpConfig {
            dataset: self.dataset,
            samples: self.samples,
            epochs: self.fixed_epochs,
            batch_size: self.batch,
            learning_rate: 0.01,
            kernel: 10,
            dropout: 0.6,
            test_fraction: 0.1,
            seed,
        }
    }
}

pub fn net_config(dataset: DatasetKind, seed: u64) -> NetConfig {
    NetConfig {
        in_features: dataset.encoded_width(),
        classes: dataset.classes(),
        blocks: 10,
        residual: true,
        kernel: 10,
        dropout: 0.6,
        seed,
    }
}

/// Wraps the network handed to `Trainer::fit` and takes the time between
/// the starts of consecutive forward calls: one training step from a
/// training-mode forward to the next forward of any kind.
///
/// When `traced` is set, training-mode passes run inside `nn.forward` and
/// `nn.backward` spans with tracing on, so their self time is
/// `Sequential`'s own. Evaluation passes turn tracing off, so the trainer's
/// per-epoch evaluation is charged to its overhead, not to the layers, and
/// record no counters, so the counters are the training steps' own.
pub struct StepClock<L> {
    pub inner: L,
    pub traced: bool,
    pending: Option<Instant>,
    pub steps: Vec<f64>,
    /// Rows of all training-mode forwards.
    pub rows: usize,
}

impl<L: Layer> StepClock<L> {
    pub fn new(inner: L) -> Self {
        Self {
            inner,
            traced: false,
            pending: None,
            steps: Vec::new(),
            rows: 0,
        }
    }
}

impl<L: Layer> Layer for StepClock<L> {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let now = Instant::now();
        if let Some(start) = self.pending.take() {
            self.steps.push((now - start).as_secs_f64());
        }
        if mode != Mode::Train {
            trace::set_enabled(false);
            if !self.traced {
                return self.inner.forward(input, mode);
            }
            // Keeps the evaluation out of the program's counters as well.
            let inner = &mut self.inner;
            return with_recorder(Arc::new(NoopRecorder), || inner.forward(input, mode));
        }
        self.pending = Some(now);
        self.rows += input.shape()[0];
        trace::set_enabled(self.traced);
        let inner = &mut self.inner;
        timed("nn.forward", || inner.forward(input, mode))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let inner = &mut self.inner;
        timed("nn.backward", || inner.backward(grad_out))
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.inner.params_mut()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn param_layer_count(&self) -> usize {
        self.inner.param_layer_count()
    }

    fn zero_grad(&mut self) {
        self.inner.zero_grad()
    }
}

/// One epoch through `Trainer::fit` with a held-out evaluation, as
/// `run_network` trains; returns the history and the call's wall time.
fn fit_epoch(
    model: &mut dyn Layer,
    loss: &dyn Loss,
    opt: &mut dyn Optimizer,
    split: &EncodedSplit,
    batch: usize,
    seed: u64,
    epoch: usize,
) -> Result<(pelican_nn::EpochStats, f64), String> {
    let trainer = Trainer::new(TrainerConfig {
        epochs: 1,
        batch_size: batch,
        shuffle_seed: stream_seed(seed ^ 0x5F5F, epoch as u64),
        ..Default::default()
    });
    let start = Instant::now();
    let history = trainer
        .fit(
            model,
            loss,
            opt,
            &split.x_train,
            &split.y_train,
            Some((&split.x_test, &split.y_test)),
        )
        .map_err(|e| format!("epoch {epoch}: training failed: {e}"))?;
    Ok((history.epochs[0], start.elapsed().as_secs_f64()))
}

/// Checks the network's held-out predictions against the floor and adds
/// them to the digest.
fn held_out_check(
    model: &mut dyn Layer,
    split: &EncodedSplit,
    spec: &TrainSpec,
    report: &mut Report,
    digest: &mut Digest,
) {
    let preds = predict(model, &split.x_test, spec.batch);
    let hits = preds
        .iter()
        .zip(&split.y_test)
        .filter(|(p, t)| p == t)
        .count();
    let acc = hits as f32 / preds.len() as f32;
    report.check(acc >= spec.acc_floor, || {
        format!("held-out accuracy {acc} below floor {}", spec.acc_floor)
    });
    report.notes.push(format!(
        "held-out accuracy after {} epochs: {acc:.4}",
        spec.fixed_epochs
    ));
    for p in preds {
        digest.add(p as u64);
    }
}

/// The untraced run: the public training path, timed from outside.
pub fn untraced(spec: &TrainSpec, seed: u64, seconds: f64) -> Result<Report, String> {
    let cfg = spec.exp_config(seed);
    let ncfg = net_config(spec.dataset, seed);
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..TRAIN_SETUP_REPEATS {
        let start = Instant::now();
        let split = prepare_split(&cfg);
        let net = build_network(&ncfg);
        setup_s.push(start.elapsed().as_secs_f64());
        built = Some((split, net));
    }
    let (split, net) = built.expect("set-up ran");

    let mut report = Report::default();
    let mut model = StepClock::new(net);
    let mut opt = RmsProp::new(cfg.learning_rate);
    let rows = split.y_train.len() as f64;
    let mut rates = Vec::new();
    let mut digest = Digest::default();
    let mut final_loss = f32::NAN;
    let start = Instant::now();
    let mut epoch = 0;
    while epoch < spec.fixed_epochs || start.elapsed().as_secs_f64() < seconds {
        epoch += 1;
        report.attempted += 1;
        let fitted = fit_epoch(
            &mut model,
            &SoftmaxCrossEntropy,
            &mut opt,
            &split,
            spec.batch,
            seed,
            epoch,
        );
        let (stats, secs) = match fitted {
            Ok(r) => r,
            Err(e) => {
                report.failed += 1;
                report.check(false, || e);
                break;
            }
        };
        rates.push(rows / secs);
        report.check(stats.train_loss.is_finite(), || {
            format!("epoch {epoch}: training loss {}", stats.train_loss)
        });
        if epoch <= spec.fixed_epochs {
            digest.add_f32(stats.train_loss);
            final_loss = stats.train_loss;
            if epoch == spec.fixed_epochs {
                held_out_check(&mut model, &split, spec, &mut report, &mut digest);
            }
        }
    }
    if rates.is_empty() || model.steps.len() < 2 {
        return Err(format!("no training step completed: {:?}", report.problems));
    }
    // The first step fills the kernels' workspaces; later steps reuse them.
    let ms: Vec<f64> = model.steps.iter().skip(1).map(|s| s * 1e3).collect();
    report.metric("rows_per_s", median(&rates), "1/s");
    report.metric("op_ms_p50", median(&ms), "ms");
    report.metric("setup_s", median(&setup_s), "s");
    report.metric("peak_rss_mib", peak_rss_mib()?, "MiB");
    report.notes.push(format!(
        "{} fit calls ({} rows each), {} steps timed, step p90 {:.3} ms, p99 {:.3} ms",
        rates.len(),
        rows,
        ms.len(),
        quantile(&ms, 0.9),
        quantile(&ms, 0.99)
    ));
    report.notes.push(format!(
        "final_train_loss {final_loss} after {} epochs",
        spec.fixed_epochs
    ));
    report.notes.push(format!(
        "failed_share {}/{}",
        report.failed, report.attempted
    ));
    report.notes.push(format!("digest {}", digest.hex()));
    Ok(report)
}

/// Compares the first training-mode batch through the program's
/// `build_network` and through the traced assembly: logits and loss must
/// agree bit for bit, or the traced figures describe another program.
pub fn same_program_check(
    reference: &mut Sequential,
    traced: &mut Sequential,
    x: &Tensor,
    y: &[usize],
    batch: usize,
    report: &mut Report,
) {
    let rows: Vec<usize> = (0..batch.min(y.len())).collect();
    let xb = x.gather_rows(&rows);
    let yb: Vec<usize> = rows.iter().map(|&i| y[i]).collect();
    let a = reference.forward(&xb, Mode::Train);
    let b = traced.forward(&xb, Mode::Train);
    let (la, _) = SoftmaxCrossEntropy.loss(&a, &yb);
    let (lb, _) = SoftmaxCrossEntropy.loss(&b, &yb);
    let same_logits = a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(p, q)| p.to_bits() == q.to_bits());
    report.check(same_logits && la.to_bits() == lb.to_bits(), || {
        format!("same-program check: traced network differs from build_network (loss {la} vs {lb})")
    });
}

/// What a traced stretch of `Trainer::fit` measured.
pub struct StepPhase {
    /// Training steps: training-mode forwards.
    pub steps: usize,
    pub rows: usize,
    /// Wall time of the `fit` calls, per-epoch evaluation included.
    pub fit_s: f64,
    /// Each step's time as `StepClock` takes it.
    pub step_s: Vec<f64>,
    pub counters: [u64; 4],
    pub spans: BTreeMap<&'static str, SpanStat>,
}

/// Runs `fit` (one or more `Trainer::fit` calls on `model`) with tracing
/// on and the program's counters recorded into `rec`.
pub fn traced_fit(
    model: &mut StepClock<Sequential>,
    rec: &Arc<InMemoryRecorder>,
    fit: impl FnOnce(&mut StepClock<Sequential>) -> Result<(), String>,
) -> Result<StepPhase, String> {
    let recording = pelican_observe::ScopedRecorder::install(rec.clone());
    trace::take_stats();
    let before = trace::read_counters(rec);
    let (steps0, rows0) = (model.steps.len(), model.rows);
    model.traced = true;
    let start = Instant::now();
    let fitted = fit(model);
    let fit_s = start.elapsed().as_secs_f64();
    model.traced = false;
    trace::set_enabled(false);
    let spans = trace::take_stats();
    let after = trace::read_counters(rec);
    drop(recording);
    fitted?;
    Ok(StepPhase {
        steps: span(&spans, "nn.forward").count as usize,
        rows: model.rows - rows0,
        fit_s,
        step_s: model.steps[steps0..].to_vec(),
        counters: std::array::from_fn(|i| after[i] - before[i]),
        spans,
    })
}

/// The per-step table: layer self times, trainer phases, FLOPs and the
/// program's own counters, each a total over the traced stretch divided by
/// its steps.
pub fn step_metrics(report: &mut Report, phase: &StepPhase, ncfg: &NetConfig) {
    let per = phase.steps as f64;
    let ms = |ns: u64| ns as f64 / 1e6 / per;
    let s = &phase.spans;
    for kind in LAYER_KINDS {
        for dir in ["fwd", "bwd"] {
            let self_ns = span(s, &format!("nn.{kind}.{dir}")).self_ns;
            report.metric(format!("step.nn.{kind}.{dir}_ms"), ms(self_ns), "ms");
        }
    }
    let residual_ns = span(s, "nn.residual.fwd").self_ns + span(s, "nn.residual.bwd").self_ns;
    let (fwd, bwd) = (span(s, "nn.forward"), span(s, "nn.backward"));
    let loss_ns = span(s, "nn.loss").total_ns;
    let optim_ns = span(s, "nn.optim").total_ns;
    let fit_ns = (phase.fit_s * 1e9) as u64;
    // Everything `fit` does outside the four step phases: shuffles,
    // `gather_rows`, `zero_grad`, argmax and the per-epoch evaluation.
    let overhead_ns = fit_ns.saturating_sub(fwd.total_ns + bwd.total_ns + loss_ns + optim_ns);
    report.metric("step.nn.residual.self_ms", ms(residual_ns), "ms");
    report.metric("step.nn.loss_ms", ms(loss_ns), "ms");
    report.metric("step.nn.optim.step_ms", ms(optim_ns), "ms");
    report.metric("step.nn.trainer.overhead_ms", ms(overhead_ns), "ms");
    // What no layer span covers inside the outer forward and backward
    // spans: `Sequential`'s own time.
    let total_ms = ms(fit_ns);
    let unattributed_ms = ms(fwd.self_ns + bwd.self_ns);
    report.metric("step.total_ms", total_ms, "ms");
    report.metric("step.unattributed_ms", unattributed_ms, "ms");
    report.check(unattributed_ms <= 0.1 * total_ms, || {
        format!("per-step spans leave {unattributed_ms:.3} of {total_ms:.3} ms unattributed")
    });
    report.notes.push(format!(
        "traced steps {}: {:.3} of {total_ms:.3} ms per step unattributed ({:.2}%)",
        phase.steps,
        unattributed_ms,
        100.0 * unattributed_ms / total_ms
    ));

    let rows = phase.rows as f64 / per;
    for (kind, fwd_flops) in nominal_fwd_flops(ncfg, rows) {
        let busy_ns =
            span(s, &format!("nn.{kind}.fwd")).self_ns + span(s, &format!("nn.{kind}.bwd")).self_ns;
        let flops = 3.0 * fwd_flops;
        report.metric(
            format!("step.nn.{kind}.nominal_mflop"),
            flops / 1e6,
            "MFLOP",
        );
        report.metric(
            format!("step.nn.{kind}.gflops_achieved"),
            flops / (busy_ns as f64 / per),
            "GFLOP/s",
        );
        if kind == "conv1d" {
            report.metric("step.nn.conv1d.fwd_nominal_mflop", fwd_flops / 1e6, "MFLOP");
            // `tensor.conv_flops`, the third of `trace::COUNTERS`.
            let counted = phase.counters[2] as f64 / per;
            report.notes.push(format!(
                "tensor.conv_flops counts {:.1} MFLOP per step against {:.1} MFLOP of \
                 live-tap conv forward ({:.2}x); reported uncorrected",
                counted / 1e6,
                fwd_flops / 1e6,
                counted / fwd_flops
            ));
        }
    }
    trace::counter_metrics(report, "step", &phase.counters, per);
}

/// The traced run: set-up timed piece by piece, the same-program check,
/// an untraced then a traced stretch of training, then the held-out set
/// scored through the serving path with tracing on.
pub fn traced(spec: &TrainSpec, seed: u64, seconds: f64) -> Result<Report, String> {
    let cfg = spec.exp_config(seed);
    let ncfg = net_config(spec.dataset, seed);
    let mut report = Report::default();

    // `prepare_split` in its two parts, then checked against it whole.
    let t = Instant::now();
    let raw = cfg.dataset.generate(cfg.samples, cfg.seed);
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (train_idx, test_idx) = holdout_indices(raw.len(), cfg.test_fraction, cfg.seed ^ 0xF01D);
    let split = train_test_split(&raw, &train_idx, &test_idx);
    let split_s = t.elapsed().as_secs_f64();
    let whole = prepare_split(&cfg);
    report.check(
        whole.x_train == split.x_train && whole.y_test == split.y_test,
        || "timed set-up pieces differ from prepare_split".to_string(),
    );
    let t = Instant::now();
    let mut reference = build_network(&ncfg);
    let build_s = t.elapsed().as_secs_f64();

    let mut net = traced_network(&ncfg);
    same_program_check(
        &mut reference,
        &mut net,
        &split.x_train,
        &split.y_train,
        spec.batch,
        &mut report,
    );
    drop(reference);

    // Untraced stretch: the timed layers, loss and optimizer record
    // nothing while tracing is off, so this is the user path at full
    // speed, for the overhead. The traced stretch goes on training the
    // same network through the same `fit` calls.
    let loss = TimedLoss(SoftmaxCrossEntropy);
    let mut opt = TimedOptim(RmsProp::new(cfg.learning_rate));
    let mut model = StepClock::new(net);
    let mut epoch = 0;
    let mut train_for = |model: &mut StepClock<Sequential>, secs: f64| {
        let start = Instant::now();
        let steps = model.steps.len();
        while model.steps.len() < steps + 2 || start.elapsed().as_secs_f64() < secs {
            epoch += 1;
            fit_epoch(model, &loss, &mut opt, &split, spec.batch, seed, epoch)?;
        }
        Ok::<_, String>(())
    };
    train_for(&mut model, 0.3 * seconds)?;
    let untraced_p50 = median(&model.steps[1..]);

    let rec = Arc::new(InMemoryRecorder::new());
    let phase = traced_fit(&mut model, &rec, |m| train_for(m, 0.7 * seconds))?;
    report.attempted = phase.steps as u64;
    step_metrics(&mut report, &phase, &ncfg);
    let net = model.inner;

    let windows = serve::held_out_windows(&raw, &test_idx);
    let prep = Preprocess::fit(&raw, &train_idx);
    report.check(prep.encode_flows(&windows.concat()) == split.x_test, || {
        "serving-path encoding of the held-out rows differs from the split".to_string()
    });
    serve::traced_window_phase(
        &mut report,
        &Rc::new(RefCell::new(net)),
        &Rc::new(prep),
        &windows,
        windows.len(),
        0.0,
        &rec,
        &ncfg,
    );

    let traced_p50 = median(&phase.step_s);
    report.metric(
        "trace.overhead_pct",
        100.0 * (traced_p50 - untraced_p50) / untraced_p50,
        "%",
    );
    report.metric("setup.data.generate_s", generate_s, "s");
    report.metric("setup.data.split_encode_s", split_s, "s");
    report.metric("setup.core.build_network_s", build_s, "s");
    Ok(report)
}
