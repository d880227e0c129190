//! Adversarial bit-identity of the Conv1d's sequence-length-1 step against
//! the retained per-tap reference (`Conv1d::forward_reference` and
//! `Conv1d::backward_reference`).
//!
//! At t = 1 only the centre tap `(k − 1)/2` meets data, and the layer runs
//! the dense affine step over that tap's weight slab (DESIGN.md §11). The
//! reference instead accumulates into zeros, so what could tell the two
//! apart is the sign of a zero: `x` and `dy` are scaled by 0, 1, 30 and
//! 1e3, and `-0.0`/`+0.0` are planted in `x`, `dy`, the weight and the
//! bias. Kernels run over 1..=12, odd and even, so a wrong centre shows.
//! The gradients hold random values (signed zeros included) before the
//! backward: the centre rows must end as that value plus the reference's
//! gradient, and every other tap's rows must keep it bit for bit. Output,
//! `dx` and both gradients are compared through `f32::to_bits` at 1/2/3/7
//! workers with the pool forced on, so tiny shapes still run the parallel
//! kernels.

use pelican_nn::{Conv1d, Layer, Mode};
use pelican_runtime::{with_exec, ExecConfig};
use pelican_tensor::{SeededRng, Tensor};

const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 7];
const SCALES: [f32; 4] = [0.0, 1.0, 30.0, 1e3];
const CASES: u64 = 300;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Standard-normal draws times `scale`, with about one entry in four
/// replaced by `-0.0` or `+0.0`.
fn adversarial(shape: Vec<usize>, scale: f32, rng: &mut SeededRng) -> Tensor {
    let data = (0..shape.iter().product::<usize>())
        .map(|_| match rng.index(8) {
            0 => -0.0,
            1 => 0.0,
            _ => rng.normal() * scale,
        })
        .collect();
    Tensor::from_vec(shape, data).unwrap()
}

#[test]
fn seq1_step_bit_matches_reference() {
    for case in 0..CASES {
        let mut rng = SeededRng::new(case);
        let (b, c_in, c_out) = (1 + rng.index(11), 1 + rng.index(11), 1 + rng.index(11));
        let kernel = 1 + rng.index(12);
        let x_scale = SCALES[case as usize % SCALES.len()];
        let dy_scale = SCALES[(case as usize / SCALES.len()) % SCALES.len()];
        let x = adversarial(vec![b, 1, c_in], x_scale, &mut rng);
        let dy = adversarial(vec![b, 1, c_out], dy_scale, &mut rng);
        let mut conv = Conv1d::new(c_in, c_out, kernel, &mut rng);
        for p in conv.params_mut() {
            p.value = adversarial(p.value.shape().to_vec(), 1.0, &mut rng);
        }
        let w_prefill = adversarial(vec![kernel, c_in, c_out], 1.0, &mut rng);
        let b_prefill = adversarial(vec![c_out], 1.0, &mut rng);
        let want_y = conv.forward_reference(&x);
        let (want_dx, want_dw, want_db) = conv.backward_reference(&x, &dy);

        // Only the centre slab of the reference's weight gradient is live.
        let slab = c_in * c_out;
        let centre = (kernel - 1) / 2 * slab..((kernel - 1) / 2 + 1) * slab;
        let at = format!(
            "case {case} (b={b} c_in={c_in} c_out={c_out} k={kernel} x×{x_scale} dy×{dy_scale})"
        );
        for (i, &g) in want_dw.as_slice().iter().enumerate() {
            if !centre.contains(&i) {
                assert_eq!(g.to_bits(), 0, "reference dead-tap dW {i}, {at}");
            }
        }
        let mut want_w_grad = w_prefill.as_slice().to_vec();
        for i in centre {
            want_w_grad[i] += want_dw.as_slice()[i];
        }
        let want_b_grad: Vec<f32> = b_prefill
            .as_slice()
            .iter()
            .zip(want_db.as_slice())
            .map(|(&p, &g)| p + g)
            .collect();

        for workers in WORKER_COUNTS {
            let cfg = ExecConfig {
                workers,
                force_parallel: true,
            };
            with_exec(cfg, || {
                let y = conv.forward(&x, Mode::Train);
                assert_eq!(
                    bits(y.as_slice()),
                    bits(want_y.as_slice()),
                    "y, {at} @ {workers}"
                );
                {
                    let mut params = conv.params_mut();
                    params[0].grad = w_prefill.clone();
                    params[1].grad = b_prefill.clone();
                }
                let dx = conv.backward(&dy);
                assert_eq!(
                    bits(dx.as_slice()),
                    bits(want_dx.as_slice()),
                    "dx, {at} @ {workers}"
                );
                let params = conv.params_mut();
                assert_eq!(
                    bits(params[0].grad.as_slice()),
                    bits(&want_w_grad),
                    "weight grad, {at} @ {workers}"
                );
                assert_eq!(
                    bits(params[1].grad.as_slice()),
                    bits(&want_b_grad),
                    "bias grad, {at} @ {workers}"
                );
            });
        }
    }
}
