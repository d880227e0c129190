//! Fully-connected layer.

use crate::{Layer, Mode, Param};
use pelican_tensor::{pack, workspace, Init, SeededRng, Tensor};

/// Fully-connected layer: `y = x·W + b` on `[batch, in]` inputs.
///
/// Weights use Glorot-uniform initialisation, biases start at zero — the
/// Keras defaults the paper's setup inherits.
///
/// ```
/// use pelican_nn::{Dense, Layer, Mode};
/// use pelican_tensor::{SeededRng, Tensor};
///
/// let mut rng = SeededRng::new(0);
/// let mut dense = Dense::new(3, 2, &mut rng);
/// let y = dense.forward(&Tensor::zeros(vec![4, 3]), Mode::Eval);
/// assert_eq!(y.shape(), &[4, 2]);
/// ```
#[derive(Debug)]
pub struct Dense {
    weight: Param,
    bias: Param,
    input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer mapping `in_features` to `out_features`.
    pub fn new(in_features: usize, out_features: usize, rng: &mut SeededRng) -> Self {
        let weight = Init::GlorotUniform.tensor(
            vec![in_features, out_features],
            (in_features, out_features),
            rng,
        );
        Self {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(vec![out_features])),
            input: None,
        }
    }
}

/// `x·W + b` for `x` `[m, k]` and `w` `[k, n]`, both row-major, with `n`
/// the bias width: `W` packed into panel layout, one GEMM with `seg = k`,
/// then the row bias. The forward of [`Dense`] and of the sequence-length-1
/// [`crate::Conv1d`].
pub(super) fn affine_forward(x: &[f32], w: &[f32], bias: &Tensor, m: usize, k: usize) -> Tensor {
    let n = bias.len();
    let mut wt = workspace::take(n * k);
    pack::pack_transpose(w, k, n, &mut wt);
    let mut y = vec![0.0f32; m * n];
    pack::gemm_bt(x, &wt, m, k, n, k, &mut y);
    let mut y = Tensor::from_vec(vec![m, n], y).expect("affine output shape");
    y.add_row_bias(bias).expect("affine bias width");
    y
}

/// Backward of [`affine_forward`] for `dy` `[m, n]`: adds `xᵀ·dy` into
/// `w_grad` and `Σdy` into `b_grad`, and returns `dx = dy·Wᵀ` (`[m, k]`
/// flat; `w` already is the panel layout of `Wᵀ`, `seg = n`).
pub(super) fn affine_backward(
    x: &[f32],
    dy: &Tensor,
    w: &[f32],
    w_grad: &mut [f32],
    b_grad: &mut Tensor,
    k: usize,
) -> Vec<f32> {
    let (m, n) = (dy.shape()[0], dy.shape()[1]);
    let mut dw = workspace::take(k * n);
    pack::matmul_at_into(x, dy.as_slice(), m, k, n, &mut dw);
    for (g, &d) in w_grad.iter_mut().zip(dw.iter()) {
        *g += d;
    }
    b_grad
        .add_assign(&dy.sum_axis0().expect("dY rank"))
        .expect("db shape");
    let mut dx = vec![0.0f32; m * k];
    pack::gemm_bt(dy.as_slice(), w, m, n, k, n, &mut dx);
    dx
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let k = self.weight.value.shape()[0];
        assert!(
            input.rank() == 2 && input.shape()[1] == k,
            "dense forward: input {:?} against {k} features",
            input.shape()
        );
        let w = self.weight.value.as_slice();
        let y = affine_forward(input.as_slice(), w, &self.bias.value, input.shape()[0], k);
        self.input = Some(input.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.input.as_ref().expect("dense backward before forward");
        let (m, k) = (input.shape()[0], input.shape()[1]);
        let dx = affine_backward(
            input.as_slice(),
            grad_out,
            self.weight.value.as_slice(),
            self.weight.grad.as_mut_slice(),
            &mut self.bias.grad,
            k,
        );
        Tensor::from_vec(vec![m, k], dx).expect("dense dx shape")
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> &'static str {
        "dense"
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
    fn forward_known_values() {
        let mut rng = SeededRng::new(0);
        let mut d = Dense::new(2, 2, &mut rng);
        // Overwrite with known weights.
        d.weight.value = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]).unwrap();
        d.bias.value = Tensor::from_vec(vec![2], vec![10., 20.]).unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![1., 1.]).unwrap();
        let y = d.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), &[14., 26.]);
    }

    #[test]
    fn backward_accumulates_gradients() {
        let mut rng = SeededRng::new(0);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = Tensor::ones(vec![4, 3]);
        d.forward(&x, Mode::Train);
        let dy = Tensor::ones(vec![4, 2]);
        let dx = d.backward(&dy);
        assert_eq!(dx.shape(), &[4, 3]);
        // db = column sums of dy = 4 each.
        assert_eq!(d.bias.grad.as_slice(), &[4.0, 4.0]);
        // Second backward accumulates.
        d.forward(&x, Mode::Train);
        d.backward(&dy);
        assert_eq!(d.bias.grad.as_slice(), &[8.0, 8.0]);
    }

    #[test]
    fn gradcheck_dense() {
        let mut rng = SeededRng::new(7);
        let layer = Dense::new(5, 4, &mut rng);
        check_layer(layer, &[3, 5], 11, 2e-2);
    }

    #[test]
    fn gradcheck_dense_pooled() {
        crate::gradcheck::check_layer_pooled(
            || Dense::new(5, 4, &mut SeededRng::new(7)),
            &[3, 5],
            11,
            2e-2,
        );
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_without_forward_panics() {
        let mut rng = SeededRng::new(0);
        let mut d = Dense::new(2, 2, &mut rng);
        d.backward(&Tensor::zeros(vec![1, 2]));
    }

    #[test]
    fn reports_single_param_layer() {
        let mut rng = SeededRng::new(0);
        let d = Dense::new(2, 2, &mut rng);
        assert_eq!(d.param_layer_count(), 1);
    }
}
