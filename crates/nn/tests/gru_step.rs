//! Adversarial bit-identity of the GRU's sequence-length-1 step against the
//! retained per-gate reference (`Gru::reference_fwd_bwd`).
//!
//! At t = 1 the layer leaves out every term that is `+0.0` at h₀ = +0
//! (DESIGN.md §11). Some of those terms only flip the sign of a zero that
//! no later sum can see, and one of them (`z·h₀` in the hidden update) is
//! what keeps a `-0.0` out of the output. So the inputs here aim at signed
//! zeros and saturation: `x` scaled by 0, 1, 30 and 1e3 (hardσ pinned at 0
//! and 1, tanh at ±1), and `-0.0`/`+0.0` planted in `x`, `dy` and every
//! parameter, the dead ones included. Output, `dx` and all nine gradients
//! are compared through `f32::to_bits` at 1/2/3/7 workers with the pool
//! forced on, so tiny shapes still run the parallel kernels.

use pelican_nn::{Gru, Layer, Mode};
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
        let (b, c, u) = (1 + rng.index(11), 1 + rng.index(11), 1 + rng.index(11));
        let x_scale = SCALES[case as usize % SCALES.len()];
        let dy_scale = SCALES[(case as usize / SCALES.len()) % SCALES.len()];
        let x = adversarial(vec![b, 1, c], x_scale, &mut rng);
        let dy = adversarial(vec![b, 1, u], dy_scale, &mut rng);
        let mut gru = Gru::new(c, u, &mut rng);
        for p in gru.params_mut() {
            p.value = adversarial(p.value.shape().to_vec(), 1.0, &mut rng);
        }
        let (want_y, want_dx, want_grads) = gru.reference_fwd_bwd(&x, &dy);
        let at = format!("case {case} (b={b} c={c} u={u} x×{x_scale} dy×{dy_scale})");

        for workers in WORKER_COUNTS {
            let cfg = ExecConfig {
                workers,
                force_parallel: true,
            };
            with_exec(cfg, || {
                let y = gru.forward(&x, Mode::Train);
                assert_eq!(
                    bits(y.as_slice()),
                    bits(want_y.as_slice()),
                    "y, {at} @ {workers}"
                );
                gru.zero_grad();
                let dx = gru.backward(&dy);
                assert_eq!(
                    bits(dx.as_slice()),
                    bits(want_dx.as_slice()),
                    "dx, {at} @ {workers}"
                );
                for (k, (p, want)) in gru.params_mut().into_iter().zip(&want_grads).enumerate() {
                    assert_eq!(
                        bits(p.grad.as_slice()),
                        bits(want.as_slice()),
                        "grad {k}, {at} @ {workers}"
                    );
                }
            });
        }
    }
}
