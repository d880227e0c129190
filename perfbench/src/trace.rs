//! Bench-side tracing: named spans with self time, timing decorators for
//! the program's layers, loss and optimizer, and the Residual-41 assembly
//! that uses them.
//!
//! A span's self time is its duration minus the time its child spans
//! cover. Spans live on a thread-local stack; layers call into the
//! program's worker pool from inside a span, so the pool's threads never
//! open spans of their own. While tracing is off, [`timed`] runs the
//! closure and records nothing.

use crate::Report;
use pelican_core::models::NetConfig;
use pelican_nn::loss::Loss;
use pelican_nn::optim::Optimizer;
use pelican_nn::{
    Activation, ActivationKind, BatchNorm, Conv1d, Dense, Dropout, GlobalAvgPool1d, Gru, Layer,
    MaxPool1d, Mode, Param, Reshape, Residual, Sequential,
};
use pelican_observe::InMemoryRecorder;
use pelican_tensor::{SeededRng, Tensor};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStat {
    pub total_ns: u64,
    pub self_ns: u64,
    pub count: u64,
}

struct Frame {
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct Tracer {
    on: bool,
    stack: Vec<Frame>,
    stats: BTreeMap<&'static str, SpanStat>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Turns span recording on or off for this thread.
pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().on = on);
}

/// Runs `f` inside a span named `name` when tracing is on.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let on = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.on {
            t.stack.push(Frame {
                start: Instant::now(),
                child_ns: 0,
            });
        }
        t.on
    });
    let out = f();
    if on {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let frame = t.stack.pop().expect("span stack underflow");
            let total = frame.start.elapsed().as_nanos() as u64;
            if let Some(parent) = t.stack.last_mut() {
                parent.child_ns += total;
            }
            let stat = t.stats.entry(name).or_default();
            stat.total_ns += total;
            stat.self_ns += total.saturating_sub(frame.child_ns);
            stat.count += 1;
        });
    }
    out
}

/// The recorded time of `name`, zero if it never ran.
pub fn span(spans: &BTreeMap<&'static str, SpanStat>, name: &str) -> SpanStat {
    spans.get(name).copied().unwrap_or_default()
}

/// Returns the spans recorded since the last call and clears them.
pub fn take_stats() -> BTreeMap<&'static str, SpanStat> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().stats))
}

/// Decorates a layer with forward and backward spans.
pub struct Timed<L> {
    inner: L,
    fwd: &'static str,
    bwd: &'static str,
}

/// Span names of the layer kinds Residual-41 is built from.
fn span_names(layer: &str) -> (&'static str, &'static str) {
    match layer {
        "gru" => ("nn.gru.fwd", "nn.gru.bwd"),
        "conv1d" => ("nn.conv1d.fwd", "nn.conv1d.bwd"),
        "batchnorm" => ("nn.batchnorm.fwd", "nn.batchnorm.bwd"),
        "dropout" => ("nn.dropout.fwd", "nn.dropout.bwd"),
        "maxpool1d" => ("nn.maxpool1d.fwd", "nn.maxpool1d.bwd"),
        "relu" => ("nn.relu.fwd", "nn.relu.bwd"),
        "reshape" => ("nn.reshape.fwd", "nn.reshape.bwd"),
        "dense" => ("nn.dense.fwd", "nn.dense.bwd"),
        "global_avg_pool1d" => ("nn.gap.fwd", "nn.gap.bwd"),
        "residual" => ("nn.residual.fwd", "nn.residual.bwd"),
        other => panic!("no span names for layer kind {other}"),
    }
}

/// The layer kinds whose self times make up the per-layer table.
pub const LAYER_KINDS: [&str; 9] = [
    "gru",
    "conv1d",
    "batchnorm",
    "dropout",
    "maxpool1d",
    "relu",
    "reshape",
    "dense",
    "gap",
];

pub fn timed_layer<L: Layer>(inner: L) -> Timed<L> {
    let (fwd, bwd) = span_names(inner.name());
    Timed { inner, fwd, bwd }
}

impl<L: Layer> Layer for Timed<L> {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let inner = &mut self.inner;
        timed(self.fwd, || inner.forward(input, mode))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let inner = &mut self.inner;
        timed(self.bwd, || inner.backward(grad_out))
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

/// Decorates a loss with an `nn.loss` span.
pub struct TimedLoss<L>(pub L);

impl<L: Loss> Loss for TimedLoss<L> {
    fn loss(&self, output: &Tensor, targets: &[usize]) -> (f32, Tensor) {
        timed("nn.loss", || self.0.loss(output, targets))
    }
}

/// Decorates an optimizer with an `nn.optim` span around each step.
pub struct TimedOptim<O>(pub O);

impl<O: Optimizer> Optimizer for TimedOptim<O> {
    fn step(&mut self, params: &mut [&mut Param]) {
        let inner = &mut self.0;
        timed("nn.optim", || inner.step(params))
    }

    fn learning_rate(&self) -> f32 {
        self.0.learning_rate()
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.0.set_learning_rate(lr)
    }
}

/// Residual-41 assembled from the program's own layer constructors with
/// every leaf layer and every residual block timed.
///
/// The construction order and seeds mirror `build_network` and `res_blk`
/// (a fresh generator from `cfg.seed` for the dense head, one from
/// `cfg.seed + 1 + b` per block, consumed by the convolution then the
/// GRU). The same-program check compares the two bit for bit before
/// anything is timed.
pub fn traced_network(cfg: &NetConfig) -> Sequential {
    assert!(cfg.residual, "the traced network is the residual stack");
    let f = cfg.in_features;
    let mut rng = SeededRng::new(cfg.seed);
    let mut net = Sequential::new();
    net.push(timed_layer(Reshape::new(vec![1, f])));
    for b in 0..cfg.blocks {
        let seed = cfg.seed.wrapping_add(1 + b as u64);
        let mut block_rng = SeededRng::new(seed);
        let mut tail = Sequential::new();
        tail.push(timed_layer(Conv1d::new(f, f, cfg.kernel, &mut block_rng)));
        tail.push(timed_layer(Activation::new(ActivationKind::Relu)));
        tail.push(timed_layer(MaxPool1d::new(1)));
        tail.push(timed_layer(BatchNorm::new(f)));
        tail.push(timed_layer(Gru::new(f, f, &mut block_rng)));
        tail.push(timed_layer(Reshape::new(vec![1, f])));
        tail.push(timed_layer(Dropout::new(
            cfg.dropout,
            seed.wrapping_add(0x5eed),
        )));
        let pre: Box<dyn Layer> = Box::new(timed_layer(BatchNorm::new(f)));
        net.push(timed_layer(Residual::new(Some(pre), tail)));
    }
    net.push(timed_layer(GlobalAvgPool1d::new()));
    net.push(timed_layer(Dense::new(f, cfg.classes, &mut rng)));
    net
}

/// Nominal forward FLOPs of one pass over `rows` rows, per layer kind,
/// from the layer shapes of Residual-41 at sequence length 1.
///
/// Only the convolution's centre tap meets data at sequence length 1, so
/// only it is counted. The GRU counts its input product and both
/// recurrent products, as the code computes them. Backward is counted as
/// twice the forward (one product for the input gradient, one for the
/// weight gradient).
pub fn nominal_fwd_flops(cfg: &NetConfig, rows: f64) -> [(&'static str, f64); 3] {
    let f = cfg.in_features as f64;
    let blocks = cfg.blocks as f64;
    [
        ("gru", blocks * 2.0 * rows * 3.0 * f * (f + f)),
        ("conv1d", blocks * 2.0 * rows * f * f),
        ("dense", 2.0 * rows * f * cfg.classes as f64),
    ]
}

/// The program's own counters read in traced runs: counter name, reported
/// name, scale and unit.
const COUNTERS: [(&str, &str, f64, &str); 4] = [
    ("tensor.matmul_flops", "tensor.matmul_mflop", 1e-6, "MFLOP"),
    ("tensor.matmul_calls", "tensor.matmul_calls", 1.0, "count"),
    ("tensor.conv_flops", "tensor.conv_mflop", 1e-6, "MFLOP"),
    ("pool.chunk_calls", "runtime.pool_chunk_calls", 1.0, "count"),
];

pub fn read_counters(rec: &InMemoryRecorder) -> [u64; 4] {
    COUNTERS.map(|(name, ..)| rec.counter(name))
}

/// Reports counter totals divided by `per` (steps or windows).
pub fn counter_metrics(report: &mut Report, prefix: &str, counters: &[u64; 4], per: f64) {
    for ((_, name, scale, unit), &count) in COUNTERS.iter().zip(counters) {
        report.metric(format!("{prefix}.{name}"), count as f64 * scale / per, unit);
    }
}
