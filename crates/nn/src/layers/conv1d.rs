//! 1-D convolution with "same" padding.

use super::btc;
use super::dense::{affine_backward, affine_forward};
use crate::{Layer, Mode, Param};
use pelican_tensor::{Init, SeededRng, Tensor};
use std::ops::Range;

/// 1-D convolution over `[batch, time, channels]`, stride 1, zero-padded so
/// the output length equals the input length (Keras' `padding="same"`).
///
/// This is the spatial-feature extractor of every Pelican block: "the
/// convolution operation in this layer extracts the spatial features from
/// the input data and produces a feature map at the output" (Section IV,
/// item 2). The paper uses kernel size 10 with as many filters as input
/// features so the residual add stays shape-compatible.
///
/// Weights are `[kernel, in_channels, out_channels]`, Glorot-initialised.
///
/// # Sequence length 1
///
/// Every network in the workspace feeds its convolutions
/// `[batch, 1, features]`. There only the centre tap `(kernel − 1)/2` meets
/// data; every other tap reads padding alone. So at t = 1 the layer is the
/// [`crate::Dense`] computation over the centre slab `W[(kernel − 1)/2]`
/// (`[c_in, c_out]`, contiguous in the flat weight), and both layers run
/// one shared affine step. Forward: `x·W_c + b`. Backward: `xᵀ·dy` added
/// into the centre rows of the weight gradient, `Σdy` into the bias
/// gradient, and `dy·W_cᵀ` returned. The reference skips every other tap
/// and starts each sum from `+0.0`, which changes no bit, so the step is
/// bit-identical to [`Conv1d::forward_reference`] and
/// [`Conv1d::backward_reference`] (DESIGN.md §11 has the proof). The
/// padding-only taps keep their values and are saved with the rest; the
/// step leaves their gradients untouched.
///
/// Longer sequences run the retained per-tap reference:
/// [`Conv1d::forward_reference`] forward, [`Conv1d::backward_reference`]
/// backward with its gradients added into the parameters.
///
/// ```
/// use pelican_nn::{Conv1d, Layer, Mode};
/// use pelican_tensor::{SeededRng, Tensor};
///
/// let mut rng = SeededRng::new(0);
/// let mut conv = Conv1d::new(4, 4, 10, &mut rng);
/// let y = conv.forward(&Tensor::zeros(vec![2, 1, 4]), Mode::Eval);
/// assert_eq!(y.shape(), &[2, 1, 4]);
/// ```
#[derive(Debug)]
pub struct Conv1d {
    weight: Param, // [k, c_in, c_out]
    bias: Param,   // [c_out]
    kernel: usize,
    in_channels: usize,
    out_channels: usize,
    /// Input of the latest forward as `[b, t, c_in]`, any sequence length.
    input: Option<Tensor>,
}

impl Conv1d {
    /// Creates a same-padded conv layer.
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0`.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        rng: &mut SeededRng,
    ) -> Self {
        assert!(kernel > 0, "kernel size must be positive");
        let fan_in = kernel * in_channels;
        let fan_out = kernel * out_channels;
        let weight = Init::GlorotUniform.tensor(
            vec![kernel, in_channels, out_channels],
            (fan_in, fan_out),
            rng,
        );
        Self {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(vec![out_channels])),
            kernel,
            in_channels,
            out_channels,
            input: None,
        }
    }

    /// Left padding for "same" output length (Keras convention: total
    /// padding `k-1`, split `(k-1)/2` left, the remainder right).
    fn pad_left(&self) -> isize {
        ((self.kernel - 1) / 2) as isize
    }

    /// Flat range of tap `k`'s `[c_in, c_out]` slab in the weight (and
    /// its gradient).
    fn tap_range(&self, k: usize) -> Range<usize> {
        let size = self.in_channels * self.out_channels;
        k * size..(k + 1) * size
    }

    /// The centre tap's slab: the one tap that meets data at t = 1.
    fn centre(&self) -> Range<usize> {
        self.tap_range((self.kernel - 1) / 2)
    }

    /// Extracts the `[c_in, c_out]` weight slab for kernel tap `k`.
    fn weight_tap(&self, k: usize) -> Tensor {
        let data = self.weight.value.as_slice()[self.tap_range(k)].to_vec();
        Tensor::from_vec(vec![self.in_channels, self.out_channels], data).expect("tap shape")
    }

    /// For tap `k` over a length-`t` sequence: the input-row `shift` and
    /// the output positions `t_lo..t_hi` whose shifted row is in range.
    /// The range is empty (`t_lo >= t_hi`) when the tap reads only padding.
    fn tap_span(&self, k: usize, t: usize) -> (isize, usize, usize) {
        let shift = k as isize - self.pad_left();
        let t_lo = (-shift).max(0) as usize;
        let t_hi = ((t as isize - shift).min(t as isize)).max(0) as usize;
        (shift, t_lo, t_hi)
    }

    /// The retained seed forward: per-tap gather + matmul + scatter-add.
    /// The reference the t = 1 step is proptested bit-identical against,
    /// the baseline `bench_kernels` times, and the path for t > 1.
    pub fn forward_reference(&self, input: &Tensor) -> Tensor {
        let (b, t, c) = btc(input.shape());
        assert_eq!(c, self.in_channels, "conv1d channel mismatch");
        let rank3 = input.reshape(vec![b, t, c]).expect("conv input promote");
        let flat_in = rank3.reshape(vec![b * t, c]).expect("conv flatten");
        let mut out = Tensor::zeros(vec![b * t, self.out_channels]);
        for k in 0..self.kernel {
            let (shift, t_lo, t_hi) = self.tap_span(k, t);
            if t_lo >= t_hi {
                continue;
            }
            let mut in_rows = Vec::with_capacity(b * (t_hi - t_lo));
            let mut out_rows = Vec::with_capacity(b * (t_hi - t_lo));
            for bi in 0..b {
                for to in t_lo..t_hi {
                    in_rows.push(bi * t + (to as isize + shift) as usize);
                    out_rows.push(bi * t + to);
                }
            }
            let xs = flat_in.gather_rows(&in_rows);
            let tap = self.weight_tap(k);
            let contrib = xs.matmul(&tap).expect("conv tap matmul");
            let cw = self.out_channels;
            for (ri, &ro) in out_rows.iter().enumerate() {
                let src = &contrib.as_slice()[ri * cw..(ri + 1) * cw];
                let dst = &mut out.as_mut_slice()[ro * cw..(ro + 1) * cw];
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d += s;
                }
            }
        }
        out.add_row_bias(&self.bias.value).expect("conv bias");
        out.reshape(vec![b, t, self.out_channels])
            .expect("conv out")
    }

    /// The retained seed backward: per-tap `matmul_at`/`matmul_bt` with
    /// gather/scatter. Returns `(dx, dweight, dbias)` without touching the
    /// parameter gradients — the proptests compare these against the
    /// t = 1 step's accumulated grads.
    pub fn backward_reference(
        &self,
        input: &Tensor,
        grad_out: &Tensor,
    ) -> (Tensor, Tensor, Tensor) {
        let (b, t, c) = btc(input.shape());
        let flat_in = input.reshape(vec![b * t, c]).expect("conv flatten");
        let dy = grad_out
            .reshape(vec![b * t, self.out_channels])
            .expect("conv grad flatten");
        let db = dy.sum_axis0().expect("conv db");
        let mut dweight = Tensor::zeros(self.weight.value.shape().to_vec());
        let mut dx = Tensor::zeros(vec![b * t, c]);
        for k in 0..self.kernel {
            let (shift, t_lo, t_hi) = self.tap_span(k, t);
            if t_lo >= t_hi {
                continue;
            }
            let mut in_rows = Vec::with_capacity(b * (t_hi - t_lo));
            let mut out_rows = Vec::with_capacity(b * (t_hi - t_lo));
            for bi in 0..b {
                for to in t_lo..t_hi {
                    in_rows.push(bi * t + (to as isize + shift) as usize);
                    out_rows.push(bi * t + to);
                }
            }
            let xs = flat_in.gather_rows(&in_rows);
            let dys = dy.gather_rows(&out_rows);
            let dtap = xs.matmul_at(&dys).expect("conv dW");
            let dst = &mut dweight.as_mut_slice()[self.tap_range(k)];
            for (d, &s) in dst.iter_mut().zip(dtap.as_slice()) {
                *d += s;
            }
            let tap = self.weight_tap(k);
            let dxs = dys.matmul_bt(&tap).expect("conv dX");
            for (ri, &row) in in_rows.iter().enumerate() {
                let src = &dxs.as_slice()[ri * c..(ri + 1) * c];
                let dst = &mut dx.as_mut_slice()[row * c..(row + 1) * c];
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d += s;
                }
            }
        }
        let dx = dx.reshape(input.shape().to_vec()).expect("conv dx shape");
        (dx, dweight, db)
    }
}

impl Layer for Conv1d {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let (b, t, c) = btc(input.shape());
        assert_eq!(c, self.in_channels, "conv1d channel mismatch");
        let c_out = self.out_channels;
        // The per-tap products that run: one tap per row at t = 1.
        let tap_rows: usize = (0..self.kernel)
            .map(|k| {
                let (_, t_lo, t_hi) = self.tap_span(k, t);
                t_hi.saturating_sub(t_lo)
            })
            .sum();
        pelican_observe::counter_add("tensor.conv_calls", 1);
        pelican_observe::counter_add("tensor.conv_flops", 2 * (b * tap_rows * c * c_out) as u64);
        let rank3 = input.reshape(vec![b, t, c]).expect("conv input promote");
        let y = if t == 1 {
            let w = &self.weight.value.as_slice()[self.centre()];
            let y = affine_forward(rank3.as_slice(), w, &self.bias.value, b, c);
            Tensor::from_vec(vec![b, 1, c_out], y.into_vec()).expect("conv out")
        } else {
            self.forward_reference(&rank3)
        };
        self.input = Some(rank3);
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.input.as_ref().expect("conv1d backward before forward");
        let (b, t, c) = btc(input.shape());
        if t != 1 {
            let (dx, dw, db) = self.backward_reference(input, grad_out);
            self.weight.grad.add_assign(&dw).expect("dW shape");
            self.bias.grad.add_assign(&db).expect("db shape");
            return dx;
        }
        let dy = grad_out
            .reshape(vec![b, self.out_channels])
            .expect("conv grad flatten");
        let centre = self.centre();
        let dx = affine_backward(
            input.as_slice(),
            &dy,
            &self.weight.value.as_slice()[centre.clone()],
            &mut self.weight.grad.as_mut_slice()[centre],
            &mut self.bias.grad,
            c,
        );
        Tensor::from_vec(input.shape().to_vec(), dx).expect("conv dx shape")
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> &'static str {
        "conv1d"
    }

    fn param_layer_count(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer;

    /// A conv with kernel 1 and identity weights must be the identity.
    #[test]
    fn kernel1_identity_weights() {
        let mut rng = SeededRng::new(0);
        let mut conv = Conv1d::new(3, 3, 1, &mut rng);
        conv.weight.value = Tensor::eye(3).reshape(vec![1, 3, 3]).unwrap();
        let x = Tensor::from_vec(vec![1, 2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    /// Known values: kernel 3 averaging filter over a ramp.
    #[test]
    fn kernel3_known_values() {
        let mut rng = SeededRng::new(0);
        let mut conv = Conv1d::new(1, 1, 3, &mut rng);
        conv.weight.value = Tensor::from_vec(vec![3, 1, 1], vec![1.0, 1.0, 1.0]).unwrap();
        let x = Tensor::from_vec(vec![1, 4, 1], vec![1., 2., 3., 4.]).unwrap();
        let y = conv.forward(&x, Mode::Eval);
        // pad_left = 1: y[t] = x[t-1] + x[t] + x[t+1] with zero padding.
        assert_eq!(y.as_slice(), &[3., 6., 9., 7.]);
    }

    /// Even kernel (like the paper's k=10) pads (k-1)/2 left.
    #[test]
    fn even_kernel_same_length() {
        let mut rng = SeededRng::new(1);
        let mut conv = Conv1d::new(2, 5, 10, &mut rng);
        let y = conv.forward(&Tensor::ones(vec![3, 7, 2]), Mode::Eval);
        assert_eq!(y.shape(), &[3, 7, 5]);
    }

    /// The paper's configuration: sequence length 1, only the centre tap
    /// ever touches data.
    #[test]
    fn seq_len_one_uses_centre_tap() {
        let mut rng = SeededRng::new(2);
        let mut conv = Conv1d::new(4, 4, 10, &mut rng);
        let x = Tensor::ones(vec![2, 1, 4]);
        let y = conv.forward(&x, Mode::Eval);
        // Expected: x · W[pad_left] + b with pad_left = 4.
        let tap = conv.weight_tap(4);
        let expect = Tensor::ones(vec![2, 4]).matmul(&tap).unwrap();
        for (a, e) in y.as_slice().iter().zip(expect.as_slice()) {
            assert!((a - e).abs() < 1e-5);
        }
    }

    /// `tensor.conv_flops` charges the products actually run, 2·b·c_in·c_out
    /// = 120 per (tap, position) pair that reads data: the centre tap
    /// alone at sequence length 1; at t = 16 the reference's 135 of the 160
    /// pairs (taps shifted by −4..=5 read 16 − |shift| rows each).
    #[test]
    fn conv_flops_count_live_taps() {
        use std::sync::Arc;
        let (b, c_in, c_out) = (3, 4, 5);
        for (t, expect) in [(1usize, 120u64), (16, 16_200)] {
            let rec = Arc::new(pelican_observe::InMemoryRecorder::new());
            pelican_observe::with_recorder(rec.clone(), || {
                let mut conv = Conv1d::new(c_in, c_out, 10, &mut SeededRng::new(7));
                conv.forward(&Tensor::ones(vec![b, t, c_in]), Mode::Eval);
            });
            assert_eq!(rec.counter("tensor.conv_flops"), expect, "t = {t}");
        }
    }

    #[test]
    fn gradcheck_conv_seq1() {
        let mut rng = SeededRng::new(3);
        let conv = Conv1d::new(3, 3, 10, &mut rng);
        check_layer(conv, &[2, 1, 3], 41, 2e-2);
    }

    #[test]
    fn gradcheck_conv_seq5() {
        let mut rng = SeededRng::new(4);
        let conv = Conv1d::new(2, 4, 3, &mut rng);
        check_layer(conv, &[2, 5, 2], 43, 2e-2);
    }

    #[test]
    fn gradcheck_conv_pooled() {
        crate::gradcheck::check_layer_pooled(
            || Conv1d::new(2, 4, 3, &mut SeededRng::new(4)),
            &[2, 5, 2],
            43,
            2e-2,
        );
    }

    #[test]
    fn accepts_rank2_input_as_seq1() {
        let mut rng = SeededRng::new(5);
        let mut conv = Conv1d::new(4, 4, 3, &mut rng);
        let y = conv.forward(&Tensor::ones(vec![2, 4]), Mode::Eval);
        assert_eq!(y.shape(), &[2, 1, 4]);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn wrong_channels_panics() {
        let mut rng = SeededRng::new(6);
        let mut conv = Conv1d::new(3, 3, 3, &mut rng);
        conv.forward(&Tensor::ones(vec![2, 1, 4]), Mode::Eval);
    }
}
