//! Minibatch training loop with per-epoch history and fault-tolerant
//! guardrails.
//!
//! The paper's training runs are long enough that single faults — a NaN
//! loss from one corrupted batch, an exploding gradient, a torn
//! checkpoint — should cost a retry, not the run. [`Trainer::fit`]
//! therefore layers three defences:
//!
//! * **detection** — a non-finite minibatch loss always aborts the epoch
//!   (it can only poison every parameter from there); an opt-in
//!   [`RecoveryPolicy`] extends detection to gradients, updated
//!   parameters and epoch-over-epoch loss spikes (a rise of more than
//!   10x);
//! * **rollback** — with a policy set, parameters, optimizer state and
//!   learning rate are snapshotted at every epoch boundary; a detected
//!   fault restores the snapshot, halves the learning rate and retries
//!   the epoch (with a freshly derived shuffle order) up to a bounded
//!   number of times;
//! * **durability** — with a checkpoint directory configured, a v2
//!   checkpoint (parameters + optimizer state + epoch + learning rate,
//!   CRC-protected, atomically written) is saved after every epoch, and
//!   `fit` resumes from the newest valid checkpoint it finds there, so a
//!   killed process repeats no completed work. Shuffle orders are derived
//!   per epoch from the configured seed, so a resumed run replays the
//!   exact batch sequence the uninterrupted run would have seen.
//!
//! All failures surface as typed [`TrainError`]s; geometry mistakes that
//! previously panicked now return [`TrainError::ShapeMismatch`].

use crate::io::{self, CheckpointMeta};
use crate::loss::Loss;
use crate::optim::Optimizer;
use crate::{Layer, Mode};
use pelican_observe as observe;
use pelican_tensor::{SeededRng, Tensor};
use std::error::Error;
use std::fmt;
use std::path::PathBuf;

/// Per-epoch measurements, mirroring what the paper plots in Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// 1-based epoch number.
    pub epoch: usize,
    /// Mean training loss over the epoch's minibatches.
    pub train_loss: f32,
    /// Training accuracy measured on the same minibatch outputs.
    pub train_acc: f32,
    /// Loss on the held-out set (if one was supplied).
    pub test_loss: Option<f32>,
    /// Accuracy on the held-out set (if one was supplied).
    pub test_acc: Option<f32>,
    /// Fault rollbacks it took to complete this epoch (0 on a clean pass).
    pub recoveries: usize,
}

/// The full training history of one run.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// One entry per epoch, in order.
    pub epochs: Vec<EpochStats>,
    /// Wall-clock seconds per completed epoch, aligned with
    /// [`epochs`](Self::epochs) (retries included in their epoch's time).
    /// Measured unconditionally — this is the run artifact the paper's
    /// Table VI training-time comparisons are reproduced from. Kept out of
    /// [`EpochStats`] so equality of stats stays a statement about the
    /// *trajectory*, which is bit-identical across thread counts; elapsed
    /// time never is.
    pub epoch_secs: Vec<f64>,
    /// Total fault rollbacks across all epochs.
    pub total_recoveries: usize,
    /// Epoch of the checkpoint this run resumed from, if any.
    pub resumed_from_epoch: Option<usize>,
}

impl History {
    /// Final epoch's training loss.
    pub fn final_train_loss(&self) -> Option<f32> {
        self.epochs.last().map(|e| e.train_loss)
    }

    /// Final epoch's test loss.
    pub fn final_test_loss(&self) -> Option<f32> {
        self.epochs.last().and_then(|e| e.test_loss)
    }

    /// Final epoch's test accuracy.
    pub fn final_test_acc(&self) -> Option<f32> {
        self.epochs.last().and_then(|e| e.test_acc)
    }

    /// Total wall-clock seconds across all completed epochs.
    pub fn total_train_secs(&self) -> f64 {
        self.epoch_secs.iter().sum()
    }
}

/// Why a training run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// Input/label geometry is wrong (wrong rank, mismatched counts,
    /// empty training set).
    ShapeMismatch(String),
    /// A non-finite loss/gradient/parameter was detected and no recovery
    /// policy was configured.
    NonFinite {
        /// Epoch in which the fault appeared.
        epoch: usize,
        /// What was detected.
        detail: String,
    },
    /// Faults kept recurring after exhausting the policy's retry budget.
    Unrecoverable {
        /// Epoch that could not be completed.
        epoch: usize,
        /// Rollbacks attempted for that epoch.
        retries: usize,
        /// The last fault observed.
        detail: String,
    },
    /// Saving or scanning checkpoints failed.
    Checkpoint(String),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::ShapeMismatch(m) => write!(f, "shape mismatch: {m}"),
            TrainError::NonFinite { epoch, detail } => {
                write!(f, "non-finite fault in epoch {epoch}: {detail}")
            }
            TrainError::Unrecoverable {
                epoch,
                retries,
                detail,
            } => write!(
                f,
                "epoch {epoch} unrecoverable after {retries} rollbacks: {detail}"
            ),
            TrainError::Checkpoint(m) => write!(f, "checkpoint failure: {m}"),
        }
    }
}

impl Error for TrainError {}

/// Rollback-and-retry policy for faults detected during training.
///
/// With a policy configured, [`Trainer::fit`] checks gradients and updated
/// parameters for non-finite values after every minibatch, treats an epoch
/// loss more than 10 times the previous epoch's as a fault, and snapshots
/// parameters, optimizer state and learning rate at every epoch boundary.
/// A fault restores the snapshot, halves the learning rate (compounding
/// per retry) and retries the epoch with a freshly derived shuffle order;
/// after
/// [`max_retries_per_epoch`](Self::max_retries_per_epoch) failed retries
/// the run aborts with [`TrainError::Unrecoverable`].
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Rollbacks allowed per epoch before giving up.
    pub max_retries_per_epoch: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            max_retries_per_epoch: 3,
        }
    }
}

/// Learning-rate multiplier applied on each rollback (compounding).
const LR_BACKOFF: f32 = 0.5;

/// A finite epoch loss more than this factor above the previous epoch's
/// counts as a fault under a [`RecoveryPolicy`].
const LOSS_SPIKE_FACTOR: f32 = 10.0;

/// Knobs for [`Trainer`]; defaults follow the paper's Table I where a value
/// is dataset-independent.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Minibatch size (the paper uses 4000).
    pub batch_size: usize,
    /// Base seed for the per-epoch shuffle orders (each epoch derives its
    /// own seed from this, the epoch number and the retry count).
    pub shuffle_seed: u64,
    /// Print one line per epoch to stderr.
    pub verbose: bool,
    /// Multiply the learning rate by this factor after every epoch
    /// (`None` keeps it constant, as the paper does).
    pub lr_decay: Option<f32>,
    /// Rollback-and-retry on detected faults (`None`: a non-finite loss
    /// aborts with [`TrainError::NonFinite`]).
    pub recovery: Option<RecoveryPolicy>,
    /// Directory for durable checkpoints. When set, `fit` resumes from
    /// the newest valid checkpoint found there and saves a new one after
    /// every epoch.
    pub checkpoint_dir: Option<PathBuf>,
    /// Worker threads for the tensor kernels driven by this run (`None`
    /// inherits the ambient [`pelican_runtime`] configuration, i.e. the
    /// `PELICAN_THREADS` environment knob). The engine partitions kernel
    /// *outputs*, never reduction order, so every thread count produces
    /// bit-identical training trajectories; `Some(1)` reproduces the serial
    /// path exactly.
    pub threads: Option<usize>,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            epochs: 10,
            batch_size: 128,
            shuffle_seed: 0,
            verbose: false,
            lr_decay: None,
            recovery: None,
            checkpoint_dir: None,
            threads: None,
        }
    }
}

/// Derives the shuffle seed for one epoch attempt. Mixing the epoch and
/// retry indices through a SplitMix64 finaliser gives every attempt an
/// independent order while keeping the whole schedule a pure function of
/// the base seed — the property kill-and-resume determinism rests on.
fn epoch_seed(base: u64, epoch: usize, retry: usize) -> u64 {
    let mut z = base
        ^ (epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (retry as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// In-memory copy of everything a rollback must restore.
struct Snapshot {
    values: Vec<Tensor>,
    states: Vec<Vec<Tensor>>,
    lr: f32,
}

impl Snapshot {
    fn capture(model: &mut dyn Layer, lr: f32) -> Self {
        let params = model.params_mut();
        Self {
            values: params.iter().map(|p| p.value.clone()).collect(),
            states: params.iter().map(|p| p.state.clone()).collect(),
            lr,
        }
    }

    fn restore(&self, model: &mut dyn Layer) {
        for (p, (v, s)) in model
            .params_mut()
            .into_iter()
            .zip(self.values.iter().zip(&self.states))
        {
            p.value = v.clone();
            p.state = s.clone();
            p.zero_grad();
        }
    }
}

/// Drives minibatch gradient descent over a model.
///
/// ```
/// use pelican_nn::{Dense, Sequential, Trainer, TrainerConfig};
/// use pelican_nn::loss::SoftmaxCrossEntropy;
/// use pelican_nn::optim::Sgd;
/// use pelican_tensor::{SeededRng, Tensor};
///
/// let mut rng = SeededRng::new(0);
/// let mut net = Sequential::new();
/// net.push(Dense::new(2, 2, &mut rng));
/// let x = Tensor::from_vec(vec![4, 2], vec![0., 0., 0., 1., 1., 0., 1., 1.]).unwrap();
/// let y = [0usize, 0, 1, 1];
/// let trainer = Trainer::new(TrainerConfig { epochs: 5, ..Default::default() });
/// let history = trainer
///     .fit(&mut net, &SoftmaxCrossEntropy, &mut Sgd::new(0.5), &x, &y, None)
///     .expect("training");
/// assert_eq!(history.epochs.len(), 5);
/// assert_eq!(history.total_recoveries, 0);
/// ```
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainerConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainerConfig) -> Self {
        Self { config }
    }

    /// Trains `model` on `(x, y)`, optionally evaluating `(x_test, y_test)`
    /// after every epoch, and returns the history.
    ///
    /// # Errors
    ///
    /// * [`TrainError::ShapeMismatch`] — `x` is not rank 2, `y.len()`
    ///   differs from the number of rows, or the training set is empty;
    /// * [`TrainError::NonFinite`] — a non-finite loss appeared and no
    ///   [`RecoveryPolicy`] is configured;
    /// * [`TrainError::Unrecoverable`] — faults persisted past the
    ///   policy's retry budget;
    /// * [`TrainError::Checkpoint`] — checkpoint saving/scanning failed.
    pub fn fit(
        &self,
        model: &mut dyn Layer,
        loss: &dyn Loss,
        optimizer: &mut dyn Optimizer,
        x: &Tensor,
        y: &[usize],
        eval: Option<(&Tensor, &[usize])>,
    ) -> Result<History, TrainError> {
        match self.config.threads {
            Some(t) => pelican_runtime::with_workers(t, || {
                self.fit_inner(model, loss, optimizer, x, y, eval)
            }),
            None => self.fit_inner(model, loss, optimizer, x, y, eval),
        }
    }

    fn fit_inner(
        &self,
        model: &mut dyn Layer,
        loss: &dyn Loss,
        optimizer: &mut dyn Optimizer,
        x: &Tensor,
        y: &[usize],
        eval: Option<(&Tensor, &[usize])>,
    ) -> Result<History, TrainError> {
        if x.rank() != 2 {
            return Err(TrainError::ShapeMismatch(format!(
                "training input must be [rows, features], got rank {}",
                x.rank()
            )));
        }
        let n = x.shape()[0];
        if y.len() != n {
            return Err(TrainError::ShapeMismatch(format!(
                "label count {} must equal row count {n}",
                y.len()
            )));
        }
        if n == 0 {
            return Err(TrainError::ShapeMismatch(
                "training set must be non-empty".into(),
            ));
        }

        let mut history = History::default();
        let bs = self.config.batch_size.max(1);
        let policy = self.config.recovery.as_ref();
        let _fit_span = observe::span("fit");

        let mut start_epoch = 1usize;
        if let Some(dir) = &self.config.checkpoint_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| TrainError::Checkpoint(format!("creating {dir:?}: {e}")))?;
            match io::resume_latest(model, dir) {
                Ok(Some((path, meta))) => {
                    optimizer.set_learning_rate(meta.learning_rate);
                    start_epoch = meta.epoch + 1;
                    history.resumed_from_epoch = Some(meta.epoch);
                    observe::event("trainer.resume", &[("epoch", meta.epoch.into())]);
                    if self.config.verbose {
                        eprintln!("resuming from {} (epoch {})", path.display(), meta.epoch);
                    }
                }
                Ok(None) => {}
                Err(e) => return Err(TrainError::Checkpoint(e.to_string())),
            }
        }

        let mut snapshot = policy.map(|_| Snapshot::capture(model, optimizer.learning_rate()));
        let mut prev_train_loss: Option<f32> = None;

        for epoch in start_epoch..=self.config.epochs {
            // The trainer's logical clock is the epoch number: events and
            // gauges recorded from here on are stamped with it, keeping the
            // export free of wall-clock values.
            observe::set_tick(epoch as u64);
            let epoch_timer = observe::span_timed("epoch");
            let mut retries = 0usize;
            let (train_loss, train_acc) = loop {
                let seed = epoch_seed(self.config.shuffle_seed, epoch, retries);
                let attempt =
                    Self::run_epoch(model, loss, optimizer, x, y, bs, seed, policy.is_some());
                let fault = match (attempt, prev_train_loss) {
                    (Ok((tl, _)), Some(prev))
                        if policy.is_some() && tl > prev * LOSS_SPIKE_FACTOR =>
                    {
                        format!("loss spike: {tl} > {LOSS_SPIKE_FACTOR} x previous {prev}")
                    }
                    (Ok(stats), _) => break stats,
                    (Err(detail), _) => detail,
                };

                let Some(policy) = policy else {
                    return Err(TrainError::NonFinite {
                        epoch,
                        detail: fault,
                    });
                };
                if retries >= policy.max_retries_per_epoch {
                    return Err(TrainError::Unrecoverable {
                        epoch,
                        retries,
                        detail: fault,
                    });
                }
                retries += 1;
                history.total_recoveries += 1;
                let snap = snapshot.as_ref().expect("snapshot exists with policy");
                snap.restore(model);
                let lr = snap.lr * LR_BACKOFF.powi(retries as i32);
                optimizer.set_learning_rate(lr);
                observe::event(
                    "trainer.rollback",
                    &[
                        ("epoch", epoch.into()),
                        ("retry", retries.into()),
                        ("lr", (lr as f64).into()),
                    ],
                );
                if self.config.verbose {
                    eprintln!(
                        "epoch {epoch}: fault ({fault}); rolled back, retry \
                         {retries}/{} at lr {lr:.6}",
                        policy.max_retries_per_epoch
                    );
                }
            };
            let epoch_elapsed = epoch_timer.finish();
            prev_train_loss = Some(train_loss);
            observe::gauge("train.loss", train_loss as f64);
            observe::gauge("train.acc", train_acc as f64);
            observe::gauge("train.lr", optimizer.learning_rate() as f64);

            let (test_loss, test_acc) = match eval {
                Some((xt, yt)) => {
                    let _span = observe::span("evaluate");
                    let (l, a) = evaluate(model, loss, xt, yt, bs);
                    (Some(l), Some(a))
                }
                None => (None, None),
            };

            if self.config.verbose {
                eprintln!(
                    "epoch {epoch:>3}: train_loss {train_loss:.4} train_acc {train_acc:.4}{}",
                    match (test_loss, test_acc) {
                        (Some(l), Some(a)) => format!(" test_loss {l:.4} test_acc {a:.4}"),
                        _ => String::new(),
                    }
                );
            }

            history.epochs.push(EpochStats {
                epoch,
                train_loss,
                train_acc,
                test_loss,
                test_acc,
                recoveries: retries,
            });
            history.epoch_secs.push(epoch_elapsed.as_secs_f64());

            if let Some(decay) = self.config.lr_decay {
                optimizer.set_learning_rate(optimizer.learning_rate() * decay);
            }
            if let Some(s) = snapshot.as_mut() {
                *s = Snapshot::capture(model, optimizer.learning_rate());
            }
            if let Some(dir) = &self.config.checkpoint_dir {
                let meta = CheckpointMeta {
                    epoch,
                    learning_rate: optimizer.learning_rate(),
                };
                io::save_checkpoint(model, meta, dir.join(io::checkpoint_filename(epoch)))
                    .map_err(|e| TrainError::Checkpoint(e.to_string()))?;
            }
        }
        Ok(history)
    }

    /// One pass over the shuffled training set. Returns the epoch's mean loss
    /// and accuracy, or a fault description the moment a non-finite loss
    /// (always checked) or non-finite gradient/parameter (with `check_grads`)
    /// appears.
    #[allow(clippy::too_many_arguments)]
    fn run_epoch(
        model: &mut dyn Layer,
        loss: &dyn Loss,
        optimizer: &mut dyn Optimizer,
        x: &Tensor,
        y: &[usize],
        bs: usize,
        seed: u64,
        check_grads: bool,
    ) -> Result<(f32, f32), String> {
        let n = x.shape()[0];
        let mut rng = SeededRng::new(seed);
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);

        let mut loss_sum = 0.0f64;
        let mut correct = 0usize;
        for batch in order.chunks(bs) {
            let xb = x.gather_rows(batch);
            let yb: Vec<usize> = batch.iter().map(|&i| y[i]).collect();

            model.zero_grad();
            let out = {
                let _span = observe::span("forward");
                model.forward(&xb, Mode::Train)
            };
            let (l, dout) = loss.loss(&out, &yb);
            if !l.is_finite() {
                return Err(format!("minibatch loss is {l}"));
            }
            {
                let _span = observe::span("backward");
                model.backward(&dout);
            }
            if check_grads {
                let bad: usize = model
                    .params_mut()
                    .iter()
                    .map(|p| p.grad.count_non_finite())
                    .sum();
                if bad > 0 {
                    return Err(format!("{bad} non-finite gradient values"));
                }
            }
            {
                let _span = observe::span("optimizer");
                optimizer.step(&mut model.params_mut());
            }
            if check_grads {
                let bad: usize = model
                    .params_mut()
                    .iter()
                    .map(|p| p.value.count_non_finite())
                    .sum();
                if bad > 0 {
                    return Err(format!("{bad} non-finite parameter values after update"));
                }
            }

            loss_sum += l as f64 * batch.len() as f64;
            let preds = out.argmax_rows().expect("output rank");
            correct += preds.iter().zip(&yb).filter(|(p, t)| p == t).count();
        }
        Ok(((loss_sum / n as f64) as f32, correct as f32 / n as f32))
    }
}

/// Evaluates mean loss and accuracy of `model` on `(x, y)` in inference
/// mode, batching to bound memory.
///
/// # Panics
///
/// Panics if `x` is not rank 2 or `y.len()` differs from the row count.
pub fn evaluate(
    model: &mut dyn Layer,
    loss: &dyn Loss,
    x: &Tensor,
    y: &[usize],
    batch_size: usize,
) -> (f32, f32) {
    assert_eq!(x.rank(), 2, "eval input must be [rows, features]");
    let n = x.shape()[0];
    assert_eq!(y.len(), n, "label count must equal row count");
    if n == 0 {
        return (0.0, 0.0);
    }
    let bs = batch_size.max(1);
    let indices: Vec<usize> = (0..n).collect();
    let mut loss_sum = 0.0f64;
    let mut correct = 0usize;
    for batch in indices.chunks(bs) {
        let xb = x.gather_rows(batch);
        let yb: Vec<usize> = batch.iter().map(|&i| y[i]).collect();
        let out = model.forward(&xb, Mode::Eval);
        let (l, _) = loss.loss(&out, &yb);
        loss_sum += l as f64 * batch.len() as f64;
        let preds = out.argmax_rows().expect("output rank");
        correct += preds.iter().zip(&yb).filter(|(p, t)| p == t).count();
    }
    ((loss_sum / n as f64) as f32, correct as f32 / n as f32)
}

/// Predicts class indices for every row of `x` in inference mode.
///
/// # Panics
///
/// Panics if `x` is not rank 2.
pub fn predict(model: &mut dyn Layer, x: &Tensor, batch_size: usize) -> Vec<usize> {
    assert_eq!(x.rank(), 2, "predict input must be [rows, features]");
    let n = x.shape()[0];
    let bs = batch_size.max(1);
    let indices: Vec<usize> = (0..n).collect();
    let mut preds = Vec::with_capacity(n);
    for batch in indices.chunks(bs) {
        let xb = x.gather_rows(batch);
        let out = model.forward(&xb, Mode::Eval);
        preds.extend(out.argmax_rows().expect("output rank"));
    }
    preds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultyLayer;
    use crate::loss::SoftmaxCrossEntropy;
    use crate::optim::{RmsProp, Sgd};
    use crate::{Activation, ActivationKind, Dense, Sequential};

    /// Two well-separated Gaussian blobs.
    fn blobs(n_per: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = SeededRng::new(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n_per * 2 {
            let class = i % 2;
            let centre = if class == 0 { -2.0 } else { 2.0 };
            rows.push(vec![
                rng.normal_with(centre, 0.5),
                rng.normal_with(-centre, 0.5),
            ]);
            labels.push(class);
        }
        (Tensor::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn linear_model_learns_blobs() {
        let (x, y) = blobs(50, 1);
        let mut rng = SeededRng::new(0);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 2, &mut rng));
        let trainer = Trainer::new(TrainerConfig {
            epochs: 30,
            batch_size: 16,
            ..Default::default()
        });
        let hist = trainer
            .fit(
                &mut net,
                &SoftmaxCrossEntropy,
                &mut Sgd::new(0.5),
                &x,
                &y,
                None,
            )
            .expect("training");
        assert!(hist.epochs.last().unwrap().train_acc > 0.95);
        // Loss decreases over training.
        assert!(hist.epochs.last().unwrap().train_loss < hist.epochs[0].train_loss);
        assert_eq!(hist.total_recoveries, 0);
        assert!(hist.resumed_from_epoch.is_none());
    }

    #[test]
    fn mlp_with_rmsprop_learns_xor() {
        // XOR needs the hidden layer: checks the full backprop chain.
        let x = Tensor::from_vec(vec![4, 2], vec![0., 0., 0., 1., 1., 0., 1., 1.]).unwrap();
        let y = vec![0usize, 1, 1, 0];
        let mut rng = SeededRng::new(3);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 8, &mut rng));
        net.push(Activation::new(ActivationKind::Tanh));
        net.push(Dense::new(8, 2, &mut rng));
        let trainer = Trainer::new(TrainerConfig {
            epochs: 300,
            batch_size: 4,
            ..Default::default()
        });
        let hist = trainer
            .fit(
                &mut net,
                &SoftmaxCrossEntropy,
                &mut RmsProp::new(0.01),
                &x,
                &y,
                None,
            )
            .expect("training");
        assert_eq!(
            hist.epochs.last().unwrap().train_acc,
            1.0,
            "XOR not learned"
        );
    }

    #[test]
    fn history_records_eval_metrics() {
        let (x, y) = blobs(20, 5);
        let (xt, yt) = blobs(10, 6);
        let mut rng = SeededRng::new(0);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 2, &mut rng));
        let trainer = Trainer::new(TrainerConfig {
            epochs: 3,
            ..Default::default()
        });
        let hist = trainer
            .fit(
                &mut net,
                &SoftmaxCrossEntropy,
                &mut Sgd::new(0.1),
                &x,
                &y,
                Some((&xt, &yt)),
            )
            .expect("training");
        assert!(hist.epochs.iter().all(|e| e.test_loss.is_some()));
        assert!(hist.final_test_acc().is_some());
        assert!(hist.final_test_loss().is_some());
        assert!(hist.final_train_loss().is_some());
    }

    #[test]
    fn predict_matches_evaluate_accuracy() {
        let (x, y) = blobs(30, 9);
        let mut rng = SeededRng::new(0);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 2, &mut rng));
        let trainer = Trainer::new(TrainerConfig {
            epochs: 20,
            ..Default::default()
        });
        trainer
            .fit(
                &mut net,
                &SoftmaxCrossEntropy,
                &mut Sgd::new(0.5),
                &x,
                &y,
                None,
            )
            .expect("training");
        let preds = predict(&mut net, &x, 7);
        let acc_pred = preds.iter().zip(&y).filter(|(p, t)| p == t).count() as f32 / y.len() as f32;
        let (_, acc_eval) = evaluate(&mut net, &SoftmaxCrossEntropy, &x, &y, 13);
        assert!((acc_pred - acc_eval).abs() < 1e-6);
    }

    #[test]
    fn empty_eval_set_is_zeroes() {
        let mut rng = SeededRng::new(0);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 2, &mut rng));
        let (l, a) = evaluate(
            &mut net,
            &SoftmaxCrossEntropy,
            &Tensor::zeros(vec![0, 2]),
            &[],
            8,
        );
        assert_eq!((l, a), (0.0, 0.0));
    }

    #[test]
    fn mismatched_labels_error() {
        let mut rng = SeededRng::new(0);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 2, &mut rng));
        let trainer = Trainer::new(TrainerConfig::default());
        let err = trainer
            .fit(
                &mut net,
                &SoftmaxCrossEntropy,
                &mut Sgd::new(0.1),
                &Tensor::zeros(vec![4, 2]),
                &[0, 1],
                None,
            )
            .unwrap_err();
        assert!(matches!(err, TrainError::ShapeMismatch(_)), "{err}");
        assert!(err.to_string().contains("label count"), "{err}");
    }

    #[test]
    fn lr_decay_shrinks_learning_rate() {
        let (x, y) = blobs(10, 15);
        let mut rng = SeededRng::new(0);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 2, &mut rng));
        let trainer = Trainer::new(TrainerConfig {
            epochs: 3,
            lr_decay: Some(0.5),
            ..Default::default()
        });
        let mut opt = Sgd::new(0.8);
        trainer
            .fit(&mut net, &SoftmaxCrossEntropy, &mut opt, &x, &y, None)
            .expect("training");
        assert!(
            (opt.learning_rate() - 0.1).abs() < 1e-6,
            "0.8 * 0.5^3 = 0.1"
        );
    }

    #[test]
    fn deterministic_given_same_seeds() {
        let (x, y) = blobs(20, 11);
        let run = || {
            let mut rng = SeededRng::new(42);
            let mut net = Sequential::new();
            net.push(Dense::new(2, 2, &mut rng));
            let trainer = Trainer::new(TrainerConfig {
                epochs: 5,
                shuffle_seed: 7,
                ..Default::default()
            });
            trainer
                .fit(
                    &mut net,
                    &SoftmaxCrossEntropy,
                    &mut Sgd::new(0.2),
                    &x,
                    &y,
                    None,
                )
                .expect("training")
                .final_train_loss()
                .unwrap()
        };
        assert_eq!(run(), run());
    }

    /// A loss that always reports NaN — the simplest persistent fault.
    struct NanLoss;
    impl Loss for NanLoss {
        fn loss(&self, output: &Tensor, _targets: &[usize]) -> (f32, Tensor) {
            (f32::NAN, Tensor::zeros(output.shape().to_vec()))
        }
    }

    #[test]
    fn nan_loss_without_recovery_is_a_typed_error() {
        let (x, y) = blobs(10, 30);
        let mut rng = SeededRng::new(0);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 2, &mut rng));
        let trainer = Trainer::new(TrainerConfig {
            epochs: 3,
            ..Default::default()
        });
        let err = trainer
            .fit(&mut net, &NanLoss, &mut Sgd::new(0.1), &x, &y, None)
            .unwrap_err();
        match err {
            TrainError::NonFinite { epoch, ref detail } => {
                assert_eq!(epoch, 1);
                assert!(detail.contains("loss"), "{detail}");
            }
            ref other => panic!("expected NonFinite, got {other}"),
        }
    }

    #[test]
    fn persistent_fault_exhausts_retries() {
        // A fault baked into the pipeline cannot be outrun by rollback:
        // the run must stop with a bounded, typed failure rather than spin.
        let (x, y) = blobs(10, 31);
        let mut rng = SeededRng::new(0);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 2, &mut rng));
        let trainer = Trainer::new(TrainerConfig {
            epochs: 3,
            recovery: Some(RecoveryPolicy {
                max_retries_per_epoch: 2,
            }),
            ..Default::default()
        });
        let err = trainer
            .fit(&mut net, &NanLoss, &mut Sgd::new(0.1), &x, &y, None)
            .unwrap_err();
        match err {
            TrainError::Unrecoverable { epoch, retries, .. } => {
                assert_eq!(epoch, 1);
                assert_eq!(retries, 2);
            }
            other => panic!("expected Unrecoverable, got {other}"),
        }
    }

    /// Identity on its input (the logits) with one parameter whose
    /// gradient every backward pass sets to `grad`.
    struct FixedGrad {
        p: crate::Param,
        grad: f32,
    }
    impl Layer for FixedGrad {
        fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
            input.clone()
        }
        fn backward(&mut self, grad_out: &Tensor) -> Tensor {
            self.p.grad = Tensor::from_vec(vec![1], vec![self.grad]).unwrap();
            grad_out.clone()
        }
        fn params_mut(&mut self) -> Vec<&mut crate::Param> {
            vec![&mut self.p]
        }
        fn name(&self) -> &'static str {
            "fixed_grad"
        }
        fn param_layer_count(&self) -> usize {
            1
        }
    }

    /// Reports loss 1.0 on its first call and 100.0 on every later one,
    /// with a zero gradient.
    struct SpikeLoss(std::cell::Cell<usize>);
    impl Loss for SpikeLoss {
        fn loss(&self, output: &Tensor, _targets: &[usize]) -> (f32, Tensor) {
            let calls = self.0.get();
            self.0.set(calls + 1);
            let l = if calls == 0 { 1.0 } else { 100.0 };
            (l, Tensor::zeros(output.shape().to_vec()))
        }
    }

    /// Fits `model` for 3 full-batch epochs under a one-retry policy and
    /// returns the fault detail of the resulting `Unrecoverable` error.
    fn unrecoverable_detail(model: &mut dyn Layer, loss: &dyn Loss, lr: f32) -> String {
        let (x, y) = blobs(5, 60);
        let err = Trainer::new(TrainerConfig {
            epochs: 3,
            batch_size: x.shape()[0],
            recovery: Some(RecoveryPolicy {
                max_retries_per_epoch: 1,
            }),
            ..Default::default()
        })
        .fit(model, loss, &mut Sgd::new(lr), &x, &y, None)
        .unwrap_err();
        match err {
            TrainError::Unrecoverable {
                retries, detail, ..
            } => {
                assert_eq!(retries, 1);
                detail
            }
            other => panic!("expected Unrecoverable, got {other}"),
        }
    }

    fn fixed_grad(grad: f32) -> FixedGrad {
        FixedGrad {
            p: crate::Param::new(Tensor::zeros(vec![1])),
            grad,
        }
    }

    #[test]
    fn loss_spike_is_detected() {
        let loss = SpikeLoss(std::cell::Cell::new(0));
        let detail = unrecoverable_detail(&mut fixed_grad(0.0), &loss, 0.1);
        assert!(detail.contains("loss spike"), "{detail}");
    }

    #[test]
    fn non_finite_gradient_is_detected() {
        let detail = unrecoverable_detail(&mut fixed_grad(f32::NAN), &SoftmaxCrossEntropy, 0.1);
        assert!(detail.contains("non-finite gradient"), "{detail}");
    }

    #[test]
    fn non_finite_parameter_is_detected() {
        // A finite gradient of f32::MAX times lr 4 (2 after the backoff)
        // overflows the parameter in one SGD step.
        let detail = unrecoverable_detail(&mut fixed_grad(f32::MAX), &SoftmaxCrossEntropy, 4.0);
        assert!(detail.contains("non-finite parameter"), "{detail}");
    }

    #[test]
    fn recovery_rolls_back_through_injected_faults() {
        let (x, y) = blobs(40, 33);
        let mut rng = SeededRng::new(0);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 2, &mut rng));
        // Corrupt ~10% of training forward passes; retried epochs draw
        // fresh injector decisions, so give the policy headroom for runs
        // of consecutive faulty attempts.
        let mut faulty = FaultyLayer::new(net, 77, 0.1, 0.2);
        let trainer = Trainer::new(TrainerConfig {
            epochs: 10,
            batch_size: 16,
            recovery: Some(RecoveryPolicy {
                max_retries_per_epoch: 12,
            }),
            ..Default::default()
        });
        let hist = trainer
            .fit(
                &mut faulty,
                &SoftmaxCrossEntropy,
                &mut Sgd::new(0.5),
                &x,
                &y,
                None,
            )
            .expect("training should recover");
        assert_eq!(hist.epochs.len(), 10, "all epochs completed");
        assert!(hist.total_recoveries > 0, "faults were actually injected");
        assert!(faulty.injections() > 0);
        assert_eq!(
            hist.total_recoveries,
            hist.epochs.iter().map(|e| e.recoveries).sum::<usize>()
        );
    }

    #[test]
    fn history_measures_epoch_times_and_records_observability() {
        use pelican_observe::Recorder as _;
        use std::sync::Arc;
        let (x, y) = blobs(10, 50);
        let rec = Arc::new(pelican_observe::InMemoryRecorder::new());
        let hist = pelican_observe::with_recorder(rec.clone(), || {
            let mut rng = SeededRng::new(0);
            let mut net = Sequential::new();
            net.push(Dense::new(2, 2, &mut rng));
            Trainer::new(TrainerConfig {
                epochs: 3,
                ..Default::default()
            })
            .fit(
                &mut net,
                &SoftmaxCrossEntropy,
                &mut Sgd::new(0.1),
                &x,
                &y,
                Some((&x, &y)),
            )
            .expect("training")
        });
        // Epoch times are measured whether or not a recorder is live.
        assert_eq!(hist.epoch_secs.len(), hist.epochs.len());
        assert!(hist.epoch_secs.iter().all(|&s| s >= 0.0));
        assert!(hist.total_train_secs() >= hist.epoch_secs[0]);
        let snap = rec.snapshot().unwrap();
        assert_eq!(snap.spans["fit/epoch"].count, 3);
        // Evaluation happens outside the epoch timer (training time only).
        assert_eq!(snap.spans["fit/evaluate"].count, 3);
        assert!(
            snap.spans.contains_key("fit/epoch/forward/dense"),
            "per-layer span missing: {:?}",
            snap.spans.keys().collect::<Vec<_>>()
        );
        assert_eq!(
            snap.gauges["train.loss"].stamp, 3,
            "gauge stamped with final epoch tick"
        );
    }

    #[test]
    fn rollbacks_emit_events() {
        use pelican_observe::Recorder as _;
        use std::sync::Arc;
        let (x, y) = blobs(10, 31);
        let rec = Arc::new(pelican_observe::InMemoryRecorder::new());
        let err = pelican_observe::with_recorder(rec.clone(), || {
            let mut rng = SeededRng::new(0);
            let mut net = Sequential::new();
            net.push(Dense::new(2, 2, &mut rng));
            Trainer::new(TrainerConfig {
                epochs: 3,
                recovery: Some(RecoveryPolicy {
                    max_retries_per_epoch: 2,
                }),
                ..Default::default()
            })
            .fit(&mut net, &NanLoss, &mut Sgd::new(0.1), &x, &y, None)
            .unwrap_err()
        });
        assert!(matches!(err, TrainError::Unrecoverable { .. }));
        let snap = rec.snapshot().unwrap();
        let rollbacks: Vec<_> = snap
            .events
            .iter()
            .filter(|e| e.name == "trainer.rollback")
            .collect();
        assert_eq!(rollbacks.len(), 2, "one event per retry");
        assert!(rollbacks.iter().all(|e| e.tick == 1), "stamped with epoch");
    }

    #[test]
    fn kill_and_resume_matches_uninterrupted_run() {
        use crate::io::params_to_bytes;
        let (x, y) = blobs(20, 40);
        let dir_a = std::env::temp_dir().join("pelican-trainer-resume-a");
        let dir_b = std::env::temp_dir().join("pelican-trainer-resume-b");
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();

        let fresh_net = || {
            let mut rng = SeededRng::new(9);
            let mut net = Sequential::new();
            net.push(Dense::new(2, 4, &mut rng));
            net.push(Activation::new(ActivationKind::Relu));
            net.push(Dense::new(4, 2, &mut rng));
            net
        };
        let config = |epochs: usize, dir: &std::path::Path| TrainerConfig {
            epochs,
            batch_size: 8,
            shuffle_seed: 5,
            lr_decay: Some(0.9),
            checkpoint_dir: Some(dir.to_path_buf()),
            ..Default::default()
        };

        // Uninterrupted 6-epoch run.
        let mut a = fresh_net();
        Trainer::new(config(6, &dir_a))
            .fit(
                &mut a,
                &SoftmaxCrossEntropy,
                &mut RmsProp::new(0.01),
                &x,
                &y,
                None,
            )
            .expect("run A");

        // "Killed" after 3 epochs, then resumed to 6 with a fresh model
        // and optimizer.
        let mut b = fresh_net();
        Trainer::new(config(3, &dir_b))
            .fit(
                &mut b,
                &SoftmaxCrossEntropy,
                &mut RmsProp::new(0.01),
                &x,
                &y,
                None,
            )
            .expect("run B part 1");
        let mut b2 = fresh_net();
        let hist = Trainer::new(config(6, &dir_b))
            .fit(
                &mut b2,
                &SoftmaxCrossEntropy,
                &mut RmsProp::new(0.01),
                &x,
                &y,
                None,
            )
            .expect("run B part 2");
        assert_eq!(hist.resumed_from_epoch, Some(3));
        assert_eq!(hist.epochs.first().map(|e| e.epoch), Some(4));
        assert_eq!(
            params_to_bytes(&mut a),
            params_to_bytes(&mut b2),
            "resumed run diverged from uninterrupted run"
        );
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }
}
