//! Gated recurrent unit.

use super::btc;
use crate::{ActivationKind, Layer, Mode, Param};
use pelican_tensor::{pack, workspace, Init, SeededRng, Tensor};

/// Gated recurrent unit over `[batch, time, channels]`, returning the full
/// hidden-state sequence (`return_sequences=True`).
///
/// "GRU is a recurrent network that can extract the temporal features of
/// the input data through a recurrent process … an activation function and
/// a recurrent activation function are needed for GRU, for which tanh and
/// hard sigmoid are, respectively, used here" (Section IV, item 4).
///
/// Gate equations (Keras v1 convention, `reset_after=False`):
///
/// ```text
/// z_t = hardσ(x_t·W_z + h_{t-1}·U_z + b_z)          (update gate)
/// r_t = hardσ(x_t·W_r + h_{t-1}·U_r + b_r)          (reset gate)
/// h̃_t = tanh(x_t·W_h + (r_t ⊙ h_{t-1})·U_h + b_h)   (candidate)
/// h_t = z_t ⊙ h_{t-1} + (1 − z_t) ⊙ h̃_t
/// ```
///
/// # Sequence length 1
///
/// Every network in the workspace feeds its GRUs `[batch, 1, features]`
/// from h₀ = +0. At t = 1 the layer runs one short step. Forward: one GEMM
/// `x·[W_z | W_h]` and one elementwise pass. Backward: one two-segment
/// GEMM `[dz | dh̃]·[W_z | W_h]ᵀ` (`seg = units`) for `dx`, one `matmul_at`
/// for `dW_z`/`dW_h`, and the two bias sums. Everything it leaves out —
/// the reset gate, every recurrent product, the carries, and the gradients
/// of `W_r`, `U_z`, `U_r`, `U_h` and `b_r` — is exactly `+0.0` in the
/// reference at h₀ = +0 while those dead weights stay finite, so the step
/// is bit-identical to [`Gru::reference_fwd_bwd`] (DESIGN.md §11 has the
/// proof). The dead parameters keep their values and are saved with the
/// rest; the step leaves their gradients untouched.
///
/// Longer sequences run the retained per-gate reference:
/// [`Gru::forward_reference`] forward, [`Gru::reference_fwd_bwd`] backward
/// with its gradients added into the parameters.
///
/// ```
/// use pelican_nn::{Gru, Layer, Mode};
/// use pelican_tensor::{SeededRng, Tensor};
///
/// let mut rng = SeededRng::new(0);
/// let mut gru = Gru::new(4, 4, &mut rng);
/// let y = gru.forward(&Tensor::zeros(vec![2, 1, 4]), Mode::Train);
/// assert_eq!(y.shape(), &[2, 1, 4]);
/// ```
#[derive(Debug)]
pub struct Gru {
    // Input kernels [in, units] per gate.
    wxz: Param,
    wxr: Param,
    wxh: Param,
    // Recurrent kernels [units, units] per gate.
    whz: Param,
    whr: Param,
    whh: Param,
    // Biases [units] per gate.
    bz: Param,
    br: Param,
    bh: Param,
    in_channels: usize,
    units: usize,
    /// Input of the latest forward, any sequence length.
    input: Option<Tensor>,
    step: StepCache,
    scratch: GruScratch,
}

/// Gate values of the latest t = 1 forward, each `[b, units]`: what the
/// t = 1 backward reads. Grow-only, overwritten by every t = 1 forward.
#[derive(Debug, Default)]
struct StepCache {
    z: Vec<f32>,
    hh: Vec<f32>,
    z_pre: Vec<f32>,
}

/// One step of the reference path.
#[derive(Debug)]
struct ReferenceStep {
    x: Tensor,      // [b, in]
    h_prev: Tensor, // [b, u]
    z: Tensor,
    r: Tensor,
    hh: Tensor,
    z_pre: Tensor,
    r_pre: Tensor,
}

/// Grow-only packed-weight buffers, retained across calls. Weight *values*
/// are refilled from the live parameters on every call (the optimizer
/// moves them between calls) — only capacity is cached.
#[derive(Debug, Default)]
struct GruScratch {
    /// `[Wzᵀ; Whᵀ]` stacked: `[2·units, in]` panel layout.
    w_zh_t: Vec<f32>,
    /// `[Wz | Wh]` column-concatenated: `[in, 2·units]` — the panel
    /// layout of the backward `dx` product's transposed weight.
    w_cat: Vec<f32>,
}

fn fit(buf: &mut Vec<f32>, len: usize) {
    if buf.len() != len {
        buf.clear();
        buf.resize(len, 0.0);
    }
}

impl Gru {
    /// Creates a GRU with `in_channels` inputs and `units` hidden units.
    pub fn new(in_channels: usize, units: usize, rng: &mut SeededRng) -> Self {
        let wx = |rng: &mut SeededRng| {
            Param::new(Init::GlorotUniform.tensor(
                vec![in_channels, units],
                (in_channels, units),
                rng,
            ))
        };
        let wh = |rng: &mut SeededRng| {
            Param::new(Init::GlorotUniform.tensor(vec![units, units], (units, units), rng))
        };
        let b = || Param::new(Tensor::zeros(vec![units]));
        Self {
            wxz: wx(rng),
            wxr: wx(rng),
            wxh: wx(rng),
            whz: wh(rng),
            whr: wh(rng),
            whh: wh(rng),
            bz: b(),
            br: b(),
            bh: b(),
            in_channels,
            units,
            input: None,
            step: StepCache::default(),
            scratch: GruScratch::default(),
        }
    }

    /// Computes `x·W + h·U + b` for one gate (reference path).
    fn gate_pre(x: &Tensor, h: &Tensor, w: &Tensor, u: &Tensor, b: &Tensor) -> Tensor {
        let mut pre = x.matmul(w).expect("gru gate x·W");
        let hu = h.matmul(u).expect("gru gate h·U");
        pre.add_assign(&hu).expect("gate add");
        pre.add_row_bias(b).expect("gate bias");
        pre
    }

    /// The retained seed forward: three separate gate products per step,
    /// tensor-op elementwise math. Kept verbatim as the reference the t = 1
    /// step is proptested bit-identical against, as the baseline
    /// `bench_kernels` times, and as the path for t > 1.
    pub fn forward_reference(&self, input: &Tensor) -> Tensor {
        self.reference_forward_with_cache(input).0
    }

    /// Reference forward + backward: returns `(y, dx, grads)` with `grads`
    /// in [`Layer::params_mut`] order, computed without touching the layer's
    /// state or parameter gradients.
    pub fn reference_fwd_bwd(
        &self,
        input: &Tensor,
        grad_out: &Tensor,
    ) -> (Tensor, Tensor, Vec<Tensor>) {
        let (y, cache) = self.reference_forward_with_cache(input);
        let (b, t, c) = btc(input.shape());
        let u = self.units;
        let dy = grad_out.reshape(vec![b * t, u]).expect("gru grad flatten");

        let mut grads: Vec<Tensor> = vec![
            Tensor::zeros(vec![c, u]),
            Tensor::zeros(vec![c, u]),
            Tensor::zeros(vec![c, u]),
            Tensor::zeros(vec![u, u]),
            Tensor::zeros(vec![u, u]),
            Tensor::zeros(vec![u, u]),
            Tensor::zeros(vec![u]),
            Tensor::zeros(vec![u]),
            Tensor::zeros(vec![u]),
        ];
        let mut dx = Tensor::zeros(vec![b * t, c]);
        let mut dh_carry = Tensor::zeros(vec![b, u]);
        for ti in (0..t).rev() {
            let step = &cache[ti];
            let rows: Vec<usize> = (0..b).map(|bi| bi * t + ti).collect();
            let mut dh = dy.gather_rows(&rows);
            dh.add_assign(&dh_carry).expect("dh carry");

            let dz = dh
                .zip_map(&step.h_prev, |g, hp| g * hp)
                .expect("dz a")
                .zip_map(
                    &dh.zip_map(&step.hh, |g, hv| g * hv).expect("dz b"),
                    |a, b| a - b,
                )
                .expect("dz");
            let dhh = dh.zip_map(&step.z, |g, zv| g * (1.0 - zv)).expect("dhh");
            let mut dh_prev = dh.zip_map(&step.z, |g, zv| g * zv).expect("dh_prev direct");

            let dhh_pre = step
                .hh
                .zip_map(&dhh, |hv, g| g * (1.0 - hv * hv))
                .expect("dhh_pre");
            let da = dhh_pre.matmul_bt(&self.whh.value).expect("da");
            let dr = da.zip_map(&step.h_prev, |g, hp| g * hp).expect("dr");
            dh_prev
                .add_assign(&da.zip_map(&step.r, |g, rv| g * rv).expect("dh via a"))
                .expect("dh_prev accum");

            let dz_pre = act_grad(&step.z_pre, &dz, ActivationKind::HardSigmoid);
            let dr_pre = act_grad(&step.r_pre, &dr, ActivationKind::HardSigmoid);

            dh_prev
                .add_assign(&dz_pre.matmul_bt(&self.whz.value).expect("dh via Uz"))
                .expect("dh_prev z");
            dh_prev
                .add_assign(&dr_pre.matmul_bt(&self.whr.value).expect("dh via Ur"))
                .expect("dh_prev r");

            let mut dxt = dz_pre.matmul_bt(&self.wxz.value).expect("dx z");
            dxt.add_assign(&dr_pre.matmul_bt(&self.wxr.value).expect("dx r"))
                .expect("dx r add");
            dxt.add_assign(&dhh_pre.matmul_bt(&self.wxh.value).expect("dx h"))
                .expect("dx h add");
            for (bi, &row) in rows.iter().enumerate() {
                let src = &dxt.as_slice()[bi * c..(bi + 1) * c];
                let dst = &mut dx.as_mut_slice()[row * c..(row + 1) * c];
                dst.copy_from_slice(src);
            }

            let rh = step
                .r
                .zip_map(&step.h_prev, |a, b| a * b)
                .expect("r⊙h recompute");
            let mut acc = |idx: usize, g: Tensor| {
                grads[idx].add_assign(&g).expect("param grad shape");
            };
            acc(0, step.x.matmul_at(&dz_pre).expect("dWz"));
            acc(1, step.x.matmul_at(&dr_pre).expect("dWr"));
            acc(2, step.x.matmul_at(&dhh_pre).expect("dWh"));
            acc(3, step.h_prev.matmul_at(&dz_pre).expect("dUz"));
            acc(4, step.h_prev.matmul_at(&dr_pre).expect("dUr"));
            acc(5, rh.matmul_at(&dhh_pre).expect("dUh"));
            acc(6, dz_pre.sum_axis0().expect("dbz"));
            acc(7, dr_pre.sum_axis0().expect("dbr"));
            acc(8, dhh_pre.sum_axis0().expect("dbh"));

            dh_carry = dh_prev;
        }
        let dx = dx.reshape(input.shape().to_vec()).expect("gru dx shape");
        (y, dx, grads)
    }

    fn reference_forward_with_cache(&self, input: &Tensor) -> (Tensor, Vec<ReferenceStep>) {
        let (b, t, c) = btc(input.shape());
        assert_eq!(c, self.in_channels, "gru channel mismatch");
        let flat = input.reshape(vec![b * t, c]).expect("gru flatten");
        let u = self.units;

        let mut h = Tensor::zeros(vec![b, u]);
        let mut cache = Vec::with_capacity(t);
        let mut out = Tensor::zeros(vec![b, t, u]);
        for ti in 0..t {
            let rows: Vec<usize> = (0..b).map(|bi| bi * t + ti).collect();
            let x = flat.gather_rows(&rows);

            let z_pre = Self::gate_pre(&x, &h, &self.wxz.value, &self.whz.value, &self.bz.value);
            let r_pre = Self::gate_pre(&x, &h, &self.wxr.value, &self.whr.value, &self.br.value);
            let z = act(&z_pre, ActivationKind::HardSigmoid);
            let r = act(&r_pre, ActivationKind::HardSigmoid);

            let rh = r.zip_map(&h, |a, b| a * b).expect("r⊙h");
            let mut hh_pre = x.matmul(&self.wxh.value).expect("x·Wh");
            let ruh = rh.matmul(&self.whh.value).expect("(r⊙h)·Uh");
            hh_pre.add_assign(&ruh).expect("hh add");
            hh_pre.add_row_bias(&self.bh.value).expect("hh bias");
            let hh = act(&hh_pre, ActivationKind::Tanh);

            let h_new = z
                .zip_map(&h, |zv, hv| zv * hv)
                .expect("z⊙h")
                .zip_map(
                    &z.zip_map(&hh, |zv, hv| (1.0 - zv) * hv).expect("(1-z)⊙hh"),
                    |a, c| a + c,
                )
                .expect("h update");

            for bi in 0..b {
                let src = &h_new.as_slice()[bi * u..(bi + 1) * u];
                let dst = &mut out.as_mut_slice()[(bi * t + ti) * u..(bi * t + ti + 1) * u];
                dst.copy_from_slice(src);
            }

            cache.push(ReferenceStep {
                x,
                h_prev: h,
                z,
                r,
                hh,
                z_pre,
                r_pre,
            });
            h = h_new;
        }
        (out, cache)
    }
}

/// Applies an activation elementwise.
fn act(x: &Tensor, k: ActivationKind) -> Tensor {
    x.map(|v| k.apply(v))
}

/// Elementwise derivative-of-activation at the cached pre-activation,
/// multiplied by the incoming gradient.
fn act_grad(pre: &Tensor, g: &Tensor, k: ActivationKind) -> Tensor {
    pre.zip_map(g, |x, gv| gv * k.derivative(x))
        .expect("act grad")
}

impl Layer for Gru {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let (b, t, c) = btc(input.shape());
        assert_eq!(c, self.in_channels, "gru channel mismatch");
        self.input = Some(input.clone());
        if t != 1 {
            return self.forward_reference(input);
        }
        let u = self.units;

        // x·[Wz | Wh] in one GEMM: xw[bi·2u ..] = [x·Wz | x·Wh] for row bi.
        let w = &mut self.scratch.w_zh_t;
        fit(w, 2 * u * c);
        pack::pack_transpose(self.wxz.value.as_slice(), c, u, &mut w[..u * c]);
        pack::pack_transpose(self.wxh.value.as_slice(), c, u, &mut w[u * c..]);
        let mut xw = workspace::take(b * 2 * u);
        pack::gemm_bt(input.as_slice(), w, b, c, 2 * u, c, &mut xw);

        // Gates and h = (z·h₀) + ((1 − z)·h̃), h₀ = +0. The z·h₀ term stays:
        // it turns a −0.0 candidate term (z = 1, h̃ < 0) into +0.0.
        let (bz, bh) = (self.bz.value.as_slice(), self.bh.value.as_slice());
        let s = &mut self.step;
        for buf in [&mut s.z, &mut s.hh, &mut s.z_pre] {
            fit(buf, b * u);
        }
        let mut out = vec![0.0f32; b * u];
        for bi in 0..b {
            for j in 0..u {
                let i = bi * u + j;
                let zp = xw[bi * 2 * u + j] + bz[j];
                let zv = ActivationKind::HardSigmoid.apply(zp);
                let hhv = ActivationKind::Tanh.apply(xw[bi * 2 * u + u + j] + bh[j]);
                s.z_pre[i] = zp;
                s.z[i] = zv;
                s.hh[i] = hhv;
                out[i] = (zv * 0.0) + ((1.0 - zv) * hhv);
            }
        }
        Tensor::from_vec(vec![b, 1, u], out).expect("gru step output")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.input.as_ref().expect("gru backward before forward");
        let (b, t, c) = btc(input.shape());
        if t != 1 {
            let (_, dx, grads) = self.reference_fwd_bwd(input, grad_out);
            for (p, g) in self.params_mut().into_iter().zip(&grads) {
                p.grad.add_assign(g).expect("gru grad shape");
            }
            return dx;
        }
        let u = self.units;
        assert_eq!(grad_out.len(), b * u, "gru grad shape");
        let dy = grad_out.as_slice();
        let s = &self.step;

        // g2[bi·2u ..] = [dz_pre | dh̃_pre] for row bi. The reference's
        // carry (g = dy + 0) and g·h₀ term (dz = g·h₀ − g·h̃) only flip the
        // sign of zeros, which none of the sums below can see.
        let mut g2 = workspace::take(b * 2 * u);
        for bi in 0..b {
            for j in 0..u {
                let i = bi * u + j;
                let g = dy[i];
                let dz = -(g * s.hh[i]);
                let dhh = g * (1.0 - s.z[i]);
                g2[bi * 2 * u + j] = dz * ActivationKind::HardSigmoid.derivative(s.z_pre[i]);
                g2[bi * 2 * u + u + j] = dhh * (1.0 - s.hh[i] * s.hh[i]);
            }
        }

        // dx = dz·Wzᵀ + dh̃·Whᵀ as one GEMM over [Wz | Wh]; seg = units
        // keeps the reference's product-then-add order.
        let (wz, wh) = (self.wxz.value.as_slice(), self.wxh.value.as_slice());
        let w_cat = &mut self.scratch.w_cat;
        fit(w_cat, c * 2 * u);
        for i in 0..c {
            let row = &mut w_cat[i * 2 * u..(i + 1) * 2 * u];
            row[..u].copy_from_slice(&wz[i * u..(i + 1) * u]);
            row[u..].copy_from_slice(&wh[i * u..(i + 1) * u]);
        }
        let mut dx = vec![0.0f32; b * c];
        pack::gemm_bt(&g2, w_cat, b, 2 * u, c, u, &mut dx);

        // [dWz | dWh] = xᵀ·g2 into zeroed scratch, then added to the grads.
        let mut dw = workspace::take(c * 2 * u);
        pack::matmul_at_into(input.as_slice(), &g2, b, c, 2 * u, &mut dw);
        let (gwz, gwh) = (self.wxz.grad.as_mut_slice(), self.wxh.grad.as_mut_slice());
        for i in 0..c {
            let row = &dw[i * 2 * u..(i + 1) * 2 * u];
            for j in 0..u {
                gwz[i * u + j] += row[j];
                gwh[i * u + j] += row[u + j];
            }
        }

        // Bias gradients: ascending-row column sums, like sum_axis0.
        for (param, off) in [(&mut self.bz, 0), (&mut self.bh, u)] {
            let mut bsum = vec![0.0f32; u];
            for bi in 0..b {
                for (sum, &v) in bsum.iter_mut().zip(&g2[bi * 2 * u + off..]) {
                    *sum += v;
                }
            }
            for (d, s) in param.grad.as_mut_slice().iter_mut().zip(bsum) {
                *d += s;
            }
        }
        Tensor::from_vec(input.shape().to_vec(), dx).expect("gru dx shape")
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![
            &mut self.wxz,
            &mut self.wxr,
            &mut self.wxh,
            &mut self.whz,
            &mut self.whr,
            &mut self.whh,
            &mut self.bz,
            &mut self.br,
            &mut self.bh,
        ]
    }

    fn name(&self) -> &'static str {
        "gru"
    }

    fn param_layer_count(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer;

    #[test]
    fn output_shape_returns_sequences() {
        let mut rng = SeededRng::new(0);
        let mut gru = Gru::new(3, 5, &mut rng);
        let y = gru.forward(&Tensor::zeros(vec![2, 4, 3]), Mode::Train);
        assert_eq!(y.shape(), &[2, 4, 5]);
    }

    #[test]
    fn zero_input_zero_weights_gives_zero_output() {
        let mut rng = SeededRng::new(0);
        let mut gru = Gru::new(2, 2, &mut rng);
        for p in gru.params_mut() {
            p.value.fill_zero();
        }
        let y = gru.forward(&Tensor::zeros(vec![1, 3, 2]), Mode::Train);
        // z = hardσ(0) = 0.5, hh = tanh(0) = 0, h = 0.5·h_prev → stays 0.
        assert!(y.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn hidden_state_propagates_across_time() {
        let mut rng = SeededRng::new(1);
        let mut gru = Gru::new(1, 1, &mut rng);
        // Fix the input kernel so t=0 produces a solid hidden state; with
        // zero recurrent weights later steps decay via h_t = z·h_{t-1}.
        for p in gru.params_mut() {
            p.value.fill_zero();
        }
        gru.wxh.value = Tensor::ones(vec![1, 1]);
        // Step input only at t=0; later outputs should still be nonzero
        // because the hidden state carries through the update gate.
        let x = Tensor::from_vec(vec![1, 3, 1], vec![5.0, 0.0, 0.0]).unwrap();
        let y = gru.forward(&x, Mode::Train);
        // h0 = (1 - 0.5)·tanh(5) ≈ 0.4999.
        assert!((y.as_slice()[0] - 0.5 * 5.0f32.tanh()).abs() < 1e-4);
        // h1 = z·h0 = 0.5·h0 (candidate is tanh(0) = 0).
        assert!(
            (y.as_slice()[1] - 0.25 * 5.0f32.tanh()).abs() < 1e-4,
            "{y:?}"
        );
        // h2 = 0.5·h1.
        assert!((y.as_slice()[2] - 0.125 * 5.0f32.tanh()).abs() < 1e-4);
    }

    #[test]
    fn gradcheck_gru_seq1() {
        let mut rng = SeededRng::new(2);
        let gru = Gru::new(3, 3, &mut rng);
        check_layer(gru, &[2, 1, 3], 61, 3e-2);
    }

    #[test]
    fn gradcheck_gru_seq4_bptt() {
        let mut rng = SeededRng::new(3);
        let gru = Gru::new(2, 3, &mut rng);
        check_layer(gru, &[2, 4, 2], 63, 3e-2);
    }

    #[test]
    fn gradcheck_gru_pooled() {
        crate::gradcheck::check_layer_pooled(
            || Gru::new(2, 3, &mut SeededRng::new(3)),
            &[2, 4, 2],
            63,
            3e-2,
        );
    }

    #[test]
    fn rank2_input_is_seq1() {
        let mut rng = SeededRng::new(4);
        let mut gru = Gru::new(3, 4, &mut rng);
        let y = gru.forward(&Tensor::ones(vec![2, 3]), Mode::Train);
        assert_eq!(y.shape(), &[2, 1, 4]);
    }

    #[test]
    fn has_nine_parameter_tensors_one_param_layer() {
        let mut rng = SeededRng::new(5);
        let mut gru = Gru::new(3, 4, &mut rng);
        assert_eq!(gru.params_mut().len(), 9);
        assert_eq!(gru.param_layer_count(), 1);
    }

    /// The t = 1 step must agree with the retained reference to the bit,
    /// forward and backward, including all nine parameter gradients.
    #[test]
    fn fused_step_bit_matches_reference() {
        let mut rng = SeededRng::new(6);
        let mut gru = Gru::new(3, 5, &mut rng);
        let x = Init::GlorotUniform.tensor(vec![4, 1, 3], (3, 5), &mut rng);
        let g = Init::GlorotUniform.tensor(vec![4, 1, 5], (3, 5), &mut rng);
        let (ref_y, ref_dx, ref_grads) = gru.reference_fwd_bwd(&x, &g);
        let y = gru.forward(&x, Mode::Train);
        let dx = gru.backward(&g);
        assert_eq!(y.as_slice(), ref_y.as_slice(), "forward drifted");
        assert_eq!(dx.as_slice(), ref_dx.as_slice(), "dx drifted");
        for (p, want) in gru.params_mut().into_iter().zip(&ref_grads) {
            assert_eq!(p.grad.as_slice(), want.as_slice(), "param grad drifted");
        }
    }
}
