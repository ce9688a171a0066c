//! Multi-layer perceptron with reverse-mode gradients.

use rand::Rng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// One dense layer: `y = W·x + b`, optionally followed by ReLU.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    /// Weights, row-major `out × in`.
    pub w: Vec<f64>,
    /// Biases, length `out`.
    pub b: Vec<f64>,
    /// Input width.
    pub n_in: usize,
    /// Output width.
    pub n_out: usize,
    /// Apply ReLU after the affine map (hidden layers only).
    pub relu: bool,
}

impl Dense {
    /// He-initialized layer.
    pub fn new<R: Rng + ?Sized>(n_in: usize, n_out: usize, relu: bool, rng: &mut R) -> Self {
        assert!(n_in > 0 && n_out > 0);
        let std = (2.0 / n_in as f64).sqrt();
        let normal = Normal::new(0.0, std).expect("positive std");
        let w = (0..n_in * n_out).map(|_| normal.sample(rng)).collect();
        Self {
            w,
            b: vec![0.0; n_out],
            n_in,
            n_out,
            relu,
        }
    }

    /// Forward pass: returns pre-activation `z` and activation `a`.
    fn forward(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        debug_assert_eq!(x.len(), self.n_in);
        let mut z = self.b.clone();
        for (o, zo) in z.iter_mut().enumerate() {
            let row = &self.w[o * self.n_in..(o + 1) * self.n_in];
            *zo += row.iter().zip(x).map(|(&w, &xi)| w * xi).sum::<f64>();
        }
        let a = if self.relu {
            z.iter().map(|&v| v.max(0.0)).collect()
        } else {
            z.clone()
        };
        (z, a)
    }

    /// Number of parameters.
    pub fn n_params(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

/// Per-layer parameter gradients.
#[derive(Debug, Clone)]
pub struct DenseGrad {
    /// dL/dW, same layout as [`Dense::w`].
    pub w: Vec<f64>,
    /// dL/db.
    pub b: Vec<f64>,
}

impl DenseGrad {
    fn zeros(layer: &Dense) -> Self {
        Self {
            w: vec![0.0; layer.w.len()],
            b: vec![0.0; layer.b.len()],
        }
    }

    /// Accumulates another gradient (minibatch summation).
    pub fn add_assign(&mut self, other: &DenseGrad) {
        for (a, b) in self.w.iter_mut().zip(&other.w) {
            *a += b;
        }
        for (a, b) in self.b.iter_mut().zip(&other.b) {
            *a += b;
        }
    }

    /// Scales the gradient (minibatch averaging).
    pub fn scale(&mut self, s: f64) {
        for a in self.w.iter_mut() {
            *a *= s;
        }
        for a in self.b.iter_mut() {
            *a *= s;
        }
    }
}

/// A feed-forward network: ReLU hidden layers, linear scalar-or-vector
/// output, MSE loss.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `&[12, 32, 16, 1]`.
    ///
    /// # Panics
    /// Panics with fewer than two widths.
    pub fn new<R: Rng + ?Sized>(widths: &[usize], rng: &mut R) -> Self {
        assert!(widths.len() >= 2, "need at least input and output widths");
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(i, w)| Dense::new(w[0], w[1], i + 2 < widths.len(), rng))
            .collect();
        Self { layers }
    }

    /// The layers (read access for freezing decisions / inspection).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutable layer access (the optimizer updates through this).
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Input width.
    pub fn n_in(&self) -> usize {
        self.layers.first().expect("non-empty").n_in
    }

    /// Output width.
    pub fn n_out(&self) -> usize {
        self.layers.last().expect("non-empty").n_out
    }

    /// Forward pass.
    pub fn predict(&self, x: &[f64]) -> Vec<f64> {
        let mut a = x.to_vec();
        for layer in &self.layers {
            a = layer.forward(&a).1;
        }
        a
    }

    /// Scalar convenience for regression nets with one output.
    pub fn predict_scalar(&self, x: &[f64]) -> f64 {
        let out = self.predict(x);
        debug_assert_eq!(out.len(), 1);
        out[0]
    }

    /// MSE loss of one example.
    pub fn loss(&self, x: &[f64], target: &[f64]) -> f64 {
        let out = self.predict(x);
        out.iter()
            .zip(target)
            .map(|(&o, &t)| (o - t) * (o - t))
            .sum::<f64>()
            / target.len() as f64
    }

    /// Backpropagation for one example: returns per-layer gradients of the
    /// MSE loss.
    pub fn gradients(&self, x: &[f64], target: &[f64]) -> Vec<DenseGrad> {
        // Forward, caching inputs and pre-activations per layer.
        let mut inputs: Vec<Vec<f64>> = Vec::with_capacity(self.layers.len());
        let mut zs: Vec<Vec<f64>> = Vec::with_capacity(self.layers.len());
        let mut a = x.to_vec();
        for layer in &self.layers {
            inputs.push(a.clone());
            let (z, act) = layer.forward(&a);
            zs.push(z);
            a = act;
        }
        // dL/da for MSE: 2(a - t)/n.
        let n = target.len() as f64;
        let mut delta: Vec<f64> = a
            .iter()
            .zip(target)
            .map(|(&o, &t)| 2.0 * (o - t) / n)
            .collect();

        let mut grads: Vec<DenseGrad> = self.layers.iter().map(DenseGrad::zeros).collect();
        for (li, layer) in self.layers.iter().enumerate().rev() {
            // Through the activation.
            if layer.relu {
                for (d, &z) in delta.iter_mut().zip(&zs[li]) {
                    if z <= 0.0 {
                        *d = 0.0;
                    }
                }
            }
            // Parameter gradients.
            let input = &inputs[li];
            let g = &mut grads[li];
            for (o, &d) in delta.iter().enumerate() {
                g.b[o] = d;
                let row = &mut g.w[o * layer.n_in..(o + 1) * layer.n_in];
                for (gw, &xi) in row.iter_mut().zip(input) {
                    *gw = d * xi;
                }
            }
            // Propagate to the previous layer.
            if li > 0 {
                let mut prev = vec![0.0; layer.n_in];
                for (o, &d) in delta.iter().enumerate() {
                    let row = &layer.w[o * layer.n_in..(o + 1) * layer.n_in];
                    for (p, &w) in prev.iter_mut().zip(row) {
                        *p += d * w;
                    }
                }
                delta = prev;
            }
        }
        grads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn forward_shapes_are_consistent() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let net = Mlp::new(&[3, 5, 2], &mut rng);
        assert_eq!(net.n_in(), 3);
        assert_eq!(net.n_out(), 2);
        assert_eq!(net.predict(&[0.1, 0.2, 0.3]).len(), 2);
    }

    #[test]
    fn hidden_layers_are_relu_output_is_linear() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = Mlp::new(&[2, 4, 1], &mut rng);
        assert!(net.layers()[0].relu);
        assert!(!net.layers()[1].relu);
    }

    #[test]
    fn zero_weights_predict_bias() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut net = Mlp::new(&[2, 1], &mut rng);
        net.layers_mut()[0].w = vec![0.0, 0.0];
        net.layers_mut()[0].b = vec![7.5];
        assert_eq!(net.predict_scalar(&[3.0, -4.0]), 7.5);
    }

    /// Central-difference gradient check — the canonical backprop test.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut net = Mlp::new(&[3, 4, 2], &mut rng);
        let x = [0.3, -0.7, 1.1];
        let t = [0.5, -0.25];
        let grads = net.gradients(&x, &t);
        let eps = 1e-6;
        for (li, grad) in grads.iter().enumerate() {
            for wi in 0..net.layers()[li].w.len() {
                let orig = net.layers()[li].w[wi];
                net.layers_mut()[li].w[wi] = orig + eps;
                let lp = net.loss(&x, &t);
                net.layers_mut()[li].w[wi] = orig - eps;
                let lm = net.loss(&x, &t);
                net.layers_mut()[li].w[wi] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = grad.w[wi];
                assert!(
                    (numeric - analytic).abs() < 1e-6 * (1.0 + numeric.abs()),
                    "layer {li} w[{wi}]: numeric {numeric} vs analytic {analytic}"
                );
            }
            for bi in 0..net.layers()[li].b.len() {
                let orig = net.layers()[li].b[bi];
                net.layers_mut()[li].b[bi] = orig + eps;
                let lp = net.loss(&x, &t);
                net.layers_mut()[li].b[bi] = orig - eps;
                let lm = net.loss(&x, &t);
                net.layers_mut()[li].b[bi] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = grad.b[bi];
                assert!(
                    (numeric - analytic).abs() < 1e-6 * (1.0 + numeric.abs()),
                    "layer {li} b[{bi}]: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn grad_accumulate_and_scale() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let net = Mlp::new(&[2, 1], &mut rng);
        let g1 = net.gradients(&[1.0, 0.0], &[1.0]);
        let mut acc = net.gradients(&[0.0, 1.0], &[0.5]);
        acc[0].add_assign(&g1[0]);
        acc[0].scale(0.5);
        // averaged gradient equals mean of the two single-example grads
        let g2 = net.gradients(&[0.0, 1.0], &[0.5]);
        for i in 0..acc[0].w.len() {
            let mean = 0.5 * (g1[0].w[i] + g2[0].w[i]);
            assert!((acc[0].w[i] - mean).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn too_few_widths_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let _ = Mlp::new(&[3], &mut rng);
    }
}
