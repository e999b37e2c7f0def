//! Pooling: 1-D/2-D max pooling and global pools.

use crate::arena;
use crate::tensor::Tensor;

impl Tensor {
    /// Max pooling over the last dimension of a `[B, C, L]` tensor with
    /// window `k` and stride `k` (non-overlapping). The tail shorter than
    /// `k` is dropped, matching PyTorch defaults.
    pub fn max_pool1d(&self, k: usize) -> Tensor {
        assert_eq!(self.ndim(), 3, "max_pool1d expects [B, C, L]");
        assert!(k >= 1);
        let (b, c, l) = (self.shape()[0], self.shape()[1], self.shape()[2]);
        let lo = l / k;
        assert!(lo >= 1, "max_pool1d window {k} larger than length {l}");
        // Backward re-runs the same scan over the parent (first arg-max on
        // ties via strict `>`) instead of capturing the indices, so the
        // forward keeps no index buffer alive for the graph's lifetime.
        let scan = move |d: &[f32]| -> (Vec<f32>, Vec<usize>) {
            let mut out = arena::take(b * c * lo);
            out.resize(b * c * lo, f32::NEG_INFINITY);
            let mut arg = vec![0usize; b * c * lo];
            for bc in 0..b * c {
                let row = &d[bc * l..(bc + 1) * l];
                for o in 0..lo {
                    let mut best = f32::NEG_INFINITY;
                    let mut bi = 0usize;
                    for (i, &v) in row.iter().enumerate().take((o + 1) * k).skip(o * k) {
                        if v > best {
                            best = v;
                            bi = i;
                        }
                    }
                    out[bc * lo + o] = best;
                    arg[bc * lo + o] = bc * l + bi;
                }
            }
            (out, arg)
        };
        let (out, _) = scan(&self.data());
        Tensor::from_op(
            out,
            &[b, c, lo],
            vec![self.clone()],
            Box::new(move |node, gout| {
                let parent = &node.op_parents()[0];
                let (mx, arg) = scan(&parent.data());
                arena::recycle(mx);
                let mut g = arena::zeroed(parent.numel());
                for (oi, &src) in arg.iter().enumerate() {
                    g[src] += gout[oi];
                }
                vec![Some(g)]
            }),
        )
    }

    /// Global max pooling over time: `[B, C, L] -> [B, C]`.
    pub fn global_max_pool1d(&self) -> Tensor {
        assert_eq!(self.ndim(), 3, "global_max_pool1d expects [B, C, L]");
        self.max_axis(2, false)
    }

    /// Global average pooling over time: `[B, C, L] -> [B, C]`.
    pub fn global_avg_pool1d(&self) -> Tensor {
        assert_eq!(self.ndim(), 3, "global_avg_pool1d expects [B, C, L]");
        self.mean_axis(2, false)
    }

    /// Non-overlapping 2-D max pooling with square window `k`:
    /// `[B, C, H, W] -> [B, C, H/k, W/k]`.
    pub fn max_pool2d(&self, k: usize) -> Tensor {
        assert_eq!(self.ndim(), 4, "max_pool2d expects [B, C, H, W]");
        let (b, c, h, w) = (
            self.shape()[0],
            self.shape()[1],
            self.shape()[2],
            self.shape()[3],
        );
        let (ho, wo) = (h / k, w / k);
        assert!(ho >= 1 && wo >= 1, "max_pool2d window too large");
        // Same argmax-recompute backward as `max_pool1d`.
        let scan = move |d: &[f32]| -> (Vec<f32>, Vec<usize>) {
            let mut out = arena::take(b * c * ho * wo);
            out.resize(b * c * ho * wo, f32::NEG_INFINITY);
            let mut arg = vec![0usize; b * c * ho * wo];
            for bc in 0..b * c {
                let plane = &d[bc * h * w..(bc + 1) * h * w];
                for oy in 0..ho {
                    for ox in 0..wo {
                        let mut best = f32::NEG_INFINITY;
                        let mut bidx = 0usize;
                        for iy in oy * k..(oy + 1) * k {
                            for ix in ox * k..(ox + 1) * k {
                                let v = plane[iy * w + ix];
                                if v > best {
                                    best = v;
                                    bidx = bc * h * w + iy * w + ix;
                                }
                            }
                        }
                        out[bc * ho * wo + oy * wo + ox] = best;
                        arg[bc * ho * wo + oy * wo + ox] = bidx;
                    }
                }
            }
            (out, arg)
        };
        let (out, _) = scan(&self.data());
        Tensor::from_op(
            out,
            &[b, c, ho, wo],
            vec![self.clone()],
            Box::new(move |node, gout| {
                let parent = &node.op_parents()[0];
                let (mx, arg) = scan(&parent.data());
                arena::recycle(mx);
                let mut g = arena::zeroed(parent.numel());
                for (oi, &src) in arg.iter().enumerate() {
                    g[src] += gout[oi];
                }
                vec![Some(g)]
            }),
        )
    }

    /// Global average pooling over space: `[B, C, H, W] -> [B, C]`.
    pub fn global_avg_pool2d(&self) -> Tensor {
        assert_eq!(self.ndim(), 4, "global_avg_pool2d expects [B, C, H, W]");
        let (b, c) = (self.shape()[0], self.shape()[1]);
        let hw = self.shape()[2] * self.shape()[3];
        self.reshape(&[b, c, hw]).mean_axis(2, false)
    }
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    #[test]
    fn max_pool1d_values_and_grad() {
        let x = Tensor::from_vec(vec![1., 5., 2., 3., 9., 0.], &[1, 1, 6]).requires_grad();
        let y = x.max_pool1d(2);
        assert_eq!(y.to_vec(), vec![5., 3., 9.]);
        y.sum_all().backward();
        assert_eq!(x.grad().unwrap(), vec![0., 1., 0., 1., 1., 0.]);
    }

    #[test]
    fn max_pool1d_drops_tail() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4., 5.], &[1, 1, 5]);
        assert_eq!(x.max_pool1d(2).to_vec(), vec![2., 4.]);
    }

    #[test]
    fn global_pools() {
        let x = Tensor::from_vec(vec![1., 3., 2., 8., 4., 6.], &[1, 2, 3]);
        assert_eq!(x.global_max_pool1d().to_vec(), vec![3., 8.]);
        assert_eq!(x.global_avg_pool1d().to_vec(), vec![2., 6.]);
    }

    #[test]
    fn max_pool2d_values() {
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let y = x.max_pool2d(2);
        assert_eq!(y.to_vec(), vec![5., 7., 13., 15.]);
    }

    #[test]
    fn global_avg_pool2d_mean() {
        let x = Tensor::ones(&[2, 3, 4, 4]);
        let y = x.global_avg_pool2d();
        assert_eq!(y.shape(), &[2, 3]);
        assert!(y.to_vec().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }
}
