//! Criterion micro-benchmarks and ablation timings for the substrate the
//! paper's networks run on: tensor products, the individual block layers,
//! and a full training step of a plain vs residual block (the design
//! choice DESIGN.md calls out — what the shortcut costs in compute).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pelican_core::blocks::{plain_block, res_blk, BlockConfig};
use pelican_nn::loss::{Loss, SoftmaxCrossEntropy};
use pelican_nn::optim::{Optimizer, RmsProp};
use pelican_nn::{Conv1d, Dense, GlobalAvgPool1d, Gru, Layer, Mode, Sequential};
use pelican_tensor::{SeededRng, Tensor};

const F: usize = 121; // NSL-KDD width
const B: usize = 64;

fn random_tensor(shape: Vec<usize>, seed: u64) -> Tensor {
    let mut rng = SeededRng::new(seed);
    let data = (0..shape.iter().product::<usize>())
        .map(|_| rng.normal())
        .collect();
    Tensor::from_vec(shape, data).expect("shape")
}

fn bench_matmul(c: &mut Criterion) {
    let a = random_tensor(vec![B, F], 1);
    let w = random_tensor(vec![F, F], 2);
    c.bench_function("matmul_64x121_121x121", |bench| {
        bench.iter(|| a.matmul(&w).expect("matmul"))
    });
    c.bench_function("matmul_at_64x121_64x121", |bench| {
        let dy = random_tensor(vec![B, F], 3);
        bench.iter(|| a.matmul_at(&dy).expect("matmul_at"))
    });
}

fn bench_layers(c: &mut Criterion) {
    let x = random_tensor(vec![B, 1, F], 4);
    let mut rng = SeededRng::new(5);

    let mut conv = Conv1d::new(F, F, 10, &mut rng);
    c.bench_function("conv1d_forward", |bench| {
        bench.iter(|| conv.forward(&x, Mode::Train))
    });
    let dy = conv.forward(&x, Mode::Train);
    c.bench_function("conv1d_backward", |bench| bench.iter(|| conv.backward(&dy)));

    let mut gru = Gru::new(F, F, &mut rng);
    c.bench_function("gru_forward_seq1", |bench| {
        bench.iter(|| gru.forward(&x, Mode::Train))
    });
    let gdy = gru.forward(&x, Mode::Train);
    c.bench_function("gru_backward_seq1", |bench| {
        bench.iter(|| gru.backward(&gdy))
    });
}

/// The kernels at a sequence length where the recurrence and the tap loop
/// actually iterate: the per-tap conv and per-gate GRU references that
/// run every t > 1.
fn bench_seq_kernels(c: &mut Criterion) {
    let seq = 8usize;
    let x = random_tensor(vec![B, seq, F], 9);
    let mut rng = SeededRng::new(10);

    let mut conv = Conv1d::new(F, F, 10, &mut rng);
    c.bench_function("conv1d_per_tap_forward_seq8", |bench| {
        bench.iter(|| conv.forward_reference(&x))
    });
    let cdy = conv.forward(&x, Mode::Train);
    c.bench_function("conv1d_per_tap_backward_seq8", |bench| {
        bench.iter(|| conv.backward_reference(&x, &cdy))
    });

    let mut gru = Gru::new(F, F, &mut rng);
    let gdy = gru.forward(&x, Mode::Train);
    c.bench_function("gru_reference_step_seq8", |bench| {
        bench.iter(|| gru.reference_fwd_bwd(&x, &gdy))
    });
}

/// One full forward+backward+update step of a single block with classifier
/// head — plain vs residual. The ablation: the shortcut's extra cost is one
/// elementwise add each way, so the two should be nearly identical; the
/// accuracy gap in Tables II-V is therefore architecture, not budget.
fn bench_block_step(c: &mut Criterion) {
    let x = random_tensor(vec![B, 1, F], 6);
    let y: Vec<usize> = (0..B).map(|i| i % 5).collect();
    let build = |residual: bool| {
        let bc = BlockConfig {
            features: F,
            kernel: 10,
            dropout: 0.6,
            seed: 7,
        };
        let mut net = Sequential::new();
        if residual {
            net.push(res_blk(&bc));
        } else {
            net.push(plain_block(&bc));
        }
        net.push(GlobalAvgPool1d::new());
        let mut rng = SeededRng::new(8);
        net.push(Dense::new(F, 5, &mut rng));
        net
    };
    for residual in [false, true] {
        let name = if residual {
            "train_step_residual_block"
        } else {
            "train_step_plain_block"
        };
        c.bench_function(name, |bench| {
            bench.iter_batched(
                || build(residual),
                |mut net| {
                    let mut opt = RmsProp::new(0.01);
                    net.zero_grad();
                    let out = net.forward(&x, Mode::Train);
                    let (_, dout) = SoftmaxCrossEntropy.loss(&out, &y);
                    net.backward(&dout);
                    opt.step(&mut net.params_mut());
                },
                BatchSize::LargeInput,
            )
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_matmul, bench_layers, bench_seq_kernels, bench_block_step
}
criterion_main!(benches);
