//! Layers: Linear, Conv1d/2d, BatchNorm1d, LayerNorm, Dropout, Sequential,
//! activations, and an MLP convenience wrapper.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use aimts_tensor::ops::{Conv1dSpec, Conv2dSpec};
use aimts_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::init::{kaiming_conv1d, kaiming_conv2d, kaiming_linear};
use crate::module::{join, AnyModule, Module, Replicate};

/// Fresh leaf variable with the same values (`requires_grad` copies data).
fn clone_param(p: &Tensor) -> Tensor {
    p.requires_grad()
}

/// Untracked `Storage::Hot` copy with the same values: reading it during a
/// forward acquires no locks (see [`Replicate::freeze`]).
fn frozen_param(p: &Tensor) -> Tensor {
    p.detach()
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

/// Fully connected layer `y = x W + b`, accepting `[B, in]` or `[B, T, in]`.
pub struct Linear {
    weight: Tensor,
    bias: Option<Tensor>,
}

impl Linear {
    /// New layer with Kaiming-uniform weights.
    pub fn new(in_features: usize, out_features: usize, bias: bool, seed: u64) -> Self {
        let weight = kaiming_linear(in_features, out_features, seed).requires_grad();
        let bias = bias.then(|| Tensor::zeros(&[out_features]).requires_grad());
        Linear { weight, bias }
    }

    pub fn in_features(&self) -> usize {
        self.weight.shape()[0]
    }

    pub fn out_features(&self) -> usize {
        self.weight.shape()[1]
    }
}

impl Module for Linear {
    fn forward(&self, x: &Tensor) -> Tensor {
        let y = x.matmul(&self.weight);
        match &self.bias {
            Some(b) => y.add(b),
            None => y,
        }
    }

    fn named_parameters(&self, prefix: &str, out: &mut Vec<(String, Tensor)>) {
        out.push((join(prefix, "weight"), self.weight.clone()));
        if let Some(b) = &self.bias {
            out.push((join(prefix, "bias"), b.clone()));
        }
    }
}

impl Replicate for Linear {
    fn replicate(&self) -> Self {
        Linear {
            weight: clone_param(&self.weight),
            bias: self.bias.as_ref().map(clone_param),
        }
    }

    fn freeze(&self) -> Self {
        Linear {
            weight: frozen_param(&self.weight),
            bias: self.bias.as_ref().map(frozen_param),
        }
    }
}

// ---------------------------------------------------------------------------
// Convolutions
// ---------------------------------------------------------------------------

/// 1-D convolution layer over `[B, C_in, L]`.
pub struct Conv1d {
    weight: Tensor,
    bias: Option<Tensor>,
    spec: Conv1dSpec,
}

impl Conv1d {
    pub fn new(
        c_in: usize,
        c_out: usize,
        k: usize,
        spec: Conv1dSpec,
        bias: bool,
        seed: u64,
    ) -> Self {
        let weight = kaiming_conv1d(c_out, c_in, k, seed).requires_grad();
        let bias = bias.then(|| Tensor::zeros(&[c_out]).requires_grad());
        Conv1d { weight, bias, spec }
    }

    pub fn spec(&self) -> Conv1dSpec {
        self.spec
    }
}

impl Module for Conv1d {
    fn forward(&self, x: &Tensor) -> Tensor {
        x.conv1d(&self.weight, self.bias.as_ref(), self.spec)
    }

    fn named_parameters(&self, prefix: &str, out: &mut Vec<(String, Tensor)>) {
        out.push((join(prefix, "weight"), self.weight.clone()));
        if let Some(b) = &self.bias {
            out.push((join(prefix, "bias"), b.clone()));
        }
    }
}

impl Replicate for Conv1d {
    fn replicate(&self) -> Self {
        Conv1d {
            weight: clone_param(&self.weight),
            bias: self.bias.as_ref().map(clone_param),
            spec: self.spec,
        }
    }

    fn freeze(&self) -> Self {
        Conv1d {
            weight: frozen_param(&self.weight),
            bias: self.bias.as_ref().map(frozen_param),
            spec: self.spec,
        }
    }
}

/// 2-D convolution layer over `[B, C_in, H, W]`.
pub struct Conv2d {
    weight: Tensor,
    bias: Option<Tensor>,
    spec: Conv2dSpec,
}

impl Conv2d {
    pub fn new(
        c_in: usize,
        c_out: usize,
        k: usize,
        spec: Conv2dSpec,
        bias: bool,
        seed: u64,
    ) -> Self {
        let weight = kaiming_conv2d(c_out, c_in, k, k, seed).requires_grad();
        let bias = bias.then(|| Tensor::zeros(&[c_out]).requires_grad());
        Conv2d { weight, bias, spec }
    }
}

impl Module for Conv2d {
    fn forward(&self, x: &Tensor) -> Tensor {
        x.conv2d(&self.weight, self.bias.as_ref(), self.spec)
    }

    fn named_parameters(&self, prefix: &str, out: &mut Vec<(String, Tensor)>) {
        out.push((join(prefix, "weight"), self.weight.clone()));
        if let Some(b) = &self.bias {
            out.push((join(prefix, "bias"), b.clone()));
        }
    }
}

impl Replicate for Conv2d {
    fn replicate(&self) -> Self {
        Conv2d {
            weight: clone_param(&self.weight),
            bias: self.bias.as_ref().map(clone_param),
            spec: self.spec,
        }
    }

    fn freeze(&self) -> Self {
        Conv2d {
            weight: frozen_param(&self.weight),
            bias: self.bias.as_ref().map(frozen_param),
            spec: self.spec,
        }
    }
}

// ---------------------------------------------------------------------------
// Normalization
// ---------------------------------------------------------------------------

/// Batch normalization over the channel dimension of `[B, C, L]`.
///
/// Training mode normalizes with batch statistics and updates running
/// estimates (momentum 0.1); evaluation mode uses the running estimates.
pub struct BatchNorm1d {
    gamma: Tensor,
    beta: Tensor,
    running_mean: Mutex<Vec<f32>>,
    running_var: Mutex<Vec<f32>>,
    training: AtomicBool,
    momentum: f32,
    eps: f32,
    channels: usize,
}

impl BatchNorm1d {
    pub fn new(channels: usize) -> Self {
        BatchNorm1d {
            gamma: Tensor::ones(&[1, channels, 1]).requires_grad(),
            beta: Tensor::zeros(&[1, channels, 1]).requires_grad(),
            running_mean: Mutex::new(vec![0.0; channels]),
            running_var: Mutex::new(vec![1.0; channels]),
            training: AtomicBool::new(true),
            momentum: 0.1,
            eps: 1e-5,
            channels,
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Module for BatchNorm1d {
    fn forward(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.ndim(), 3, "BatchNorm1d expects [B, C, L]");
        assert_eq!(x.shape()[1], self.channels, "BatchNorm1d channel mismatch");
        if self.training.load(Ordering::Relaxed) {
            let mean = x.mean_axis(0, true).mean_axis(2, true); // [1, C, 1]
            let centered = x.sub(&mean);
            let var = centered.square().mean_axis(0, true).mean_axis(2, true);
            // Update running statistics (detached).
            {
                let m = mean.to_vec();
                let v = var.to_vec();
                let mut rm = lock(&self.running_mean);
                let mut rv = lock(&self.running_var);
                for c in 0..self.channels {
                    rm[c] = (1.0 - self.momentum) * rm[c] + self.momentum * m[c];
                    rv[c] = (1.0 - self.momentum) * rv[c] + self.momentum * v[c];
                }
            }
            let xhat = centered.div(&var.add_scalar(self.eps).sqrt());
            xhat.mul(&self.gamma).add(&self.beta)
        } else {
            let rm = Tensor::from_vec(lock(&self.running_mean).clone(), &[1, self.channels, 1]);
            let rv = Tensor::from_vec(lock(&self.running_var).clone(), &[1, self.channels, 1]);
            let xhat = x.sub(&rm).div(&rv.add_scalar(self.eps).sqrt());
            xhat.mul(&self.gamma).add(&self.beta)
        }
    }

    fn named_parameters(&self, prefix: &str, out: &mut Vec<(String, Tensor)>) {
        out.push((join(prefix, "gamma"), self.gamma.clone()));
        out.push((join(prefix, "beta"), self.beta.clone()));
    }

    fn set_training(&self, training: bool) {
        self.training.store(training, Ordering::Relaxed);
    }
}

impl Replicate for BatchNorm1d {
    fn replicate(&self) -> Self {
        // Running statistics are copied but not synced back: per-replica
        // drift is the usual data-parallel BN approximation.
        BatchNorm1d {
            gamma: clone_param(&self.gamma),
            beta: clone_param(&self.beta),
            running_mean: Mutex::new(lock(&self.running_mean).clone()),
            running_var: Mutex::new(lock(&self.running_var).clone()),
            training: AtomicBool::new(self.training.load(Ordering::Relaxed)),
            momentum: self.momentum,
            eps: self.eps,
            channels: self.channels,
        }
    }

    fn freeze(&self) -> Self {
        // A frozen copy always normalizes with the running estimates; there
        // is no batch to take statistics from at serving time.
        BatchNorm1d {
            gamma: frozen_param(&self.gamma),
            beta: frozen_param(&self.beta),
            running_mean: Mutex::new(lock(&self.running_mean).clone()),
            running_var: Mutex::new(lock(&self.running_var).clone()),
            training: AtomicBool::new(false),
            momentum: self.momentum,
            eps: self.eps,
            channels: self.channels,
        }
    }
}

/// Layer normalization over the last dimension.
pub struct LayerNorm {
    gamma: Tensor,
    beta: Tensor,
    eps: f32,
    dim: usize,
}

impl LayerNorm {
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Tensor::ones(&[dim]).requires_grad(),
            beta: Tensor::zeros(&[dim]).requires_grad(),
            eps: 1e-5,
            dim,
        }
    }
}

impl Module for LayerNorm {
    #[expect(
        clippy::expect_used,
        reason = "forward() inputs are batched activations; 0-d cannot occur"
    )]
    fn forward(&self, x: &Tensor) -> Tensor {
        assert_eq!(
            *x.shape().last().expect("LayerNorm on 0-d input"),
            self.dim,
            "LayerNorm dim mismatch"
        );
        let last = x.ndim() - 1;
        let mean = x.mean_axis(last, true);
        let centered = x.sub(&mean);
        let var = centered.square().mean_axis(last, true);
        let xhat = centered.div(&var.add_scalar(self.eps).sqrt());
        xhat.mul(&self.gamma).add(&self.beta)
    }

    fn named_parameters(&self, prefix: &str, out: &mut Vec<(String, Tensor)>) {
        out.push((join(prefix, "gamma"), self.gamma.clone()));
        out.push((join(prefix, "beta"), self.beta.clone()));
    }
}

impl Replicate for LayerNorm {
    fn replicate(&self) -> Self {
        LayerNorm {
            gamma: clone_param(&self.gamma),
            beta: clone_param(&self.beta),
            eps: self.eps,
            dim: self.dim,
        }
    }

    fn freeze(&self) -> Self {
        LayerNorm {
            gamma: frozen_param(&self.gamma),
            beta: frozen_param(&self.beta),
            eps: self.eps,
            dim: self.dim,
        }
    }
}

// ---------------------------------------------------------------------------
// Dropout
// ---------------------------------------------------------------------------

/// Inverted dropout: active in training mode, identity in eval mode.
pub struct Dropout {
    p: f32,
    training: AtomicBool,
    rng: Mutex<StdRng>,
}

impl Dropout {
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0, 1)"
        );
        Dropout {
            p,
            training: AtomicBool::new(true),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        }
    }
}

impl Module for Dropout {
    fn forward(&self, x: &Tensor) -> Tensor {
        if !self.training.load(Ordering::Relaxed) || self.p == 0.0 {
            return x.clone();
        }
        let scale = 1.0 / (1.0 - self.p);
        let mut rng = lock(&self.rng);
        let mask: Vec<f32> = (0..x.numel())
            .map(|_| {
                if rng.gen::<f32>() < self.p {
                    0.0
                } else {
                    scale
                }
            })
            .collect();
        drop(rng);
        x.mul(&Tensor::from_vec(mask, x.shape()))
    }

    fn named_parameters(&self, _prefix: &str, _out: &mut Vec<(String, Tensor)>) {}

    fn set_training(&self, training: bool) {
        self.training.store(training, Ordering::Relaxed);
    }
}

impl Replicate for Dropout {
    fn replicate(&self) -> Self {
        // The replica continues from the current RNG state so replicas made
        // at different times draw different masks.
        Dropout {
            p: self.p,
            training: AtomicBool::new(self.training.load(Ordering::Relaxed)),
            rng: Mutex::new(lock(&self.rng).clone()),
        }
    }

    fn freeze(&self) -> Self {
        // Frozen dropout is a permanent identity.
        Dropout {
            p: self.p,
            training: AtomicBool::new(false),
            rng: Mutex::new(lock(&self.rng).clone()),
        }
    }
}

// ---------------------------------------------------------------------------
// Activations
// ---------------------------------------------------------------------------

/// Stateless activation functions as modules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    Relu,
    Gelu,
    Tanh,
    Sigmoid,
    LeakyRelu(f32),
    Identity,
}

impl Module for Activation {
    fn forward(&self, x: &Tensor) -> Tensor {
        match self {
            Activation::Relu => x.relu(),
            Activation::Gelu => x.gelu(),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => x.sigmoid(),
            Activation::LeakyRelu(a) => x.leaky_relu(*a),
            Activation::Identity => x.clone(),
        }
    }

    fn named_parameters(&self, _prefix: &str, _out: &mut Vec<(String, Tensor)>) {}
}

impl Replicate for Activation {
    fn replicate(&self) -> Self {
        *self
    }

    fn freeze(&self) -> Self {
        *self
    }
}

// ---------------------------------------------------------------------------
// Containers
// ---------------------------------------------------------------------------

/// Sequential container applying children in order.
pub struct Sequential {
    children: Vec<Box<dyn AnyModule>>,
}

impl Sequential {
    pub fn new(children: Vec<Box<dyn AnyModule>>) -> Self {
        Sequential { children }
    }

    pub fn push(&mut self, m: Box<dyn AnyModule>) {
        self.children.push(m);
    }

    pub fn len(&self) -> usize {
        self.children.len()
    }

    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }
}

impl Module for Sequential {
    fn forward(&self, x: &Tensor) -> Tensor {
        self.children.iter().fold(x.clone(), |h, m| m.forward(&h))
    }

    fn named_parameters(&self, prefix: &str, out: &mut Vec<(String, Tensor)>) {
        for (i, m) in self.children.iter().enumerate() {
            m.named_parameters(&join(prefix, &i.to_string()), out);
        }
    }

    fn set_training(&self, training: bool) {
        for m in &self.children {
            m.set_training(training);
        }
    }
}

impl Replicate for Sequential {
    fn replicate(&self) -> Self {
        Sequential {
            children: self.children.iter().map(|m| m.replicate_boxed()).collect(),
        }
    }

    fn freeze(&self) -> Self {
        Sequential {
            children: self.children.iter().map(|m| m.freeze_boxed()).collect(),
        }
    }
}

/// Multi-layer perceptron: `dims[0] -> dims[1] -> ... -> dims.last()` with
/// the given activation between layers (none after the last).
pub struct Mlp {
    seq: Sequential,
}

impl Mlp {
    pub fn new(dims: &[usize], act: Activation, seed: u64) -> Self {
        assert!(dims.len() >= 2, "MLP needs at least input and output dims");
        let mut children: Vec<Box<dyn AnyModule>> = Vec::new();
        for (i, w) in dims.windows(2).enumerate() {
            children.push(Box::new(Linear::new(
                w[0],
                w[1],
                true,
                seed.wrapping_add(i as u64),
            )));
            if i + 2 < dims.len() {
                children.push(Box::new(act));
            }
        }
        Mlp {
            seq: Sequential::new(children),
        }
    }
}

impl Module for Mlp {
    fn forward(&self, x: &Tensor) -> Tensor {
        self.seq.forward(x)
    }

    fn named_parameters(&self, prefix: &str, out: &mut Vec<(String, Tensor)>) {
        self.seq.named_parameters(prefix, out);
    }

    fn set_training(&self, training: bool) {
        self.seq.set_training(training);
    }
}

impl Replicate for Mlp {
    fn replicate(&self) -> Self {
        Mlp {
            seq: self.seq.replicate(),
        }
    }

    fn freeze(&self) -> Self {
        Mlp {
            seq: self.seq.freeze(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_shapes_2d_and_3d() {
        let l = Linear::new(4, 6, true, 0);
        assert_eq!(l.forward(&Tensor::randn(&[2, 4], 1)).shape(), &[2, 6]);
        assert_eq!(l.forward(&Tensor::randn(&[2, 3, 4], 1)).shape(), &[2, 3, 6]);
        assert_eq!(l.parameters().len(), 2);
        assert_eq!(l.num_parameters(), 4 * 6 + 6);
    }

    #[test]
    fn conv1d_layer_same_length() {
        let c = Conv1d::new(2, 5, 3, Conv1dSpec::same(3, 1), true, 0);
        let y = c.forward(&Tensor::randn(&[3, 2, 11], 1));
        assert_eq!(y.shape(), &[3, 5, 11]);
    }

    #[test]
    fn conv2d_layer_downsample() {
        let c = Conv2d::new(
            3,
            8,
            3,
            Conv2dSpec {
                stride: 2,
                padding: 1,
            },
            true,
            0,
        );
        let y = c.forward(&Tensor::randn(&[2, 3, 16, 16], 1));
        assert_eq!(y.shape(), &[2, 8, 8, 8]);
    }

    #[test]
    fn batchnorm_normalizes_in_training() {
        let bn = BatchNorm1d::new(2);
        let x = Tensor::randn(&[8, 2, 10], 3).affine(3.0, 5.0);
        let y = bn.forward(&x);
        let v = y.to_vec();
        let mean: f32 = v.iter().sum::<f32>() / v.len() as f32;
        assert!(mean.abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let bn = BatchNorm1d::new(1);
        let x = Tensor::full(&[4, 1, 4], 10.0);
        // Repeated training passes move the running mean toward 10.
        for _ in 0..60 {
            let _ = bn.forward(&x);
        }
        bn.set_training(false);
        let y = bn.forward(&x);
        // In eval mode a constant input near the running mean maps near 0.
        assert!(y.to_vec().iter().all(|v| v.abs() < 2.0));
    }

    #[test]
    fn layernorm_zero_mean_unit_var() {
        let ln = LayerNorm::new(8);
        let y = ln.forward(&Tensor::randn(&[4, 8], 5).affine(2.0, -3.0));
        let v = y.to_vec();
        for r in 0..4 {
            let row = &v[r * 8..(r + 1) * 8];
            let m: f32 = row.iter().sum::<f32>() / 8.0;
            assert!(m.abs() < 1e-4);
        }
    }

    #[test]
    fn dropout_eval_is_identity() {
        let d = Dropout::new(0.5, 0);
        d.set_training(false);
        let x = Tensor::randn(&[10], 1);
        assert_eq!(d.forward(&x).to_vec(), x.to_vec());
    }

    #[test]
    fn dropout_train_scales_survivors() {
        let d = Dropout::new(0.5, 0);
        let x = Tensor::ones(&[1000]);
        let y = d.forward(&x).to_vec();
        let zeros = y.iter().filter(|&&v| v == 0.0).count();
        assert!(y.iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
        assert!((300..700).contains(&zeros), "zeros {zeros}");
    }

    #[test]
    fn mlp_shapes_and_params() {
        let m = Mlp::new(&[8, 16, 4], Activation::Relu, 0);
        let y = m.forward(&Tensor::randn(&[2, 8], 1));
        assert_eq!(y.shape(), &[2, 4]);
        assert_eq!(m.parameters().len(), 4);
        let mut names = Vec::new();
        m.named_parameters("head", &mut names);
        assert!(names.iter().any(|(n, _)| n == "head.0.weight"));
    }

    #[test]
    fn sequential_composition() {
        let s = Sequential::new(vec![
            Box::new(Linear::new(4, 8, true, 0)),
            Box::new(Activation::Gelu),
            Box::new(Linear::new(8, 2, false, 1)),
        ]);
        assert_eq!(s.forward(&Tensor::randn(&[5, 4], 2)).shape(), &[5, 2]);
        assert_eq!(s.parameters().len(), 3);
    }
}
