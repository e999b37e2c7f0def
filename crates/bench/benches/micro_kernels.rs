//! Criterion micro-benchmarks for the computational kernels behind the
//! experiments: augmentation bank, line-chart rasterization, TS-encoder
//! forward/backward, its conv and GELU layers at the pre-training shape,
//! geodesic mixup + contrastive losses, the ROCKET transform, and DTW.
//!
//! Every row runs its kernels at the SIMD level the host CPU supports
//! (`aimts_tensor::simd::active_level()`, AVX-512 → AVX2 → SSE2 →
//! scalar), so timings compare only between runs at the same level.

use aimts::losses::{inter_prototype_loss, series_image_naive};
use aimts::mixup::geodesic_mixup;
use aimts::TsEncoder;
use aimts_augment::default_bank;
use aimts_baselines::nn1::dtw;
use aimts_baselines::Rocket;
use aimts_imaging::{render_sample, ImageConfig};
use aimts_nn::Module;
use aimts_tensor::Tensor;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Rows in one micro-batch of the `pretrain` workload of `BENCHMARK.json`.
const ROWS: usize = 200;

fn series(n: usize) -> Vec<f32> {
    (0..n).map(|i| (i as f32 * 0.17).sin()).collect()
}

fn bench_augmentations(c: &mut Criterion) {
    let x = series(128);
    let mut g = c.benchmark_group("augment");
    for aug in default_bank() {
        g.bench_function(aug.name(), |b| {
            let mut rng = StdRng::seed_from_u64(0);
            b.iter(|| black_box(aug.apply(black_box(&x), &mut rng)));
        });
    }
    g.finish();
}

fn bench_imaging(c: &mut Criterion) {
    let vars = vec![series(128)];
    let cfg = ImageConfig::default();
    c.bench_function("imaging/render_64px", |b| {
        b.iter(|| black_box(render_sample(black_box(&vars), &cfg)))
    });
    let multi: Vec<Vec<f32>> = (0..4).map(|_| series(128)).collect();
    c.bench_function("imaging/render_4var", |b| {
        b.iter(|| black_box(render_sample(black_box(&multi), &cfg)))
    });
}

/// Direct vs im2col conv1d/conv2d on the exact shapes the AimTS encoders
/// run (see `aimts::config::AimTsConfig`): hidden=32 channels, dilations
/// {1, 2, 4}, pretrain length 64, plus the univariate input conv and the
/// image encoder's first conv2d. The im2col path is expected to beat
/// direct by >= 2x on the channel-mixing shapes.
fn bench_conv_lowerings(c: &mut Criterion) {
    use aimts_tensor::ops::{Conv1dSpec, Conv2dSpec};

    let mut g = c.benchmark_group("conv1d");
    // [B=8, C=32, L=64] x [32, 32, 3], the residual-block workhorse.
    let x = Tensor::randn(&[8, 32, 64], 1);
    let w = Tensor::randn(&[32, 32, 3], 2);
    for dilation in [1usize, 2, 4] {
        let spec = Conv1dSpec::same(3, dilation);
        g.bench_function(format!("direct_b8_c32_l64_d{dilation}"), |b| {
            b.iter(|| {
                aimts_tensor::no_grad(|| black_box(x.conv1d_direct(black_box(&w), None, spec)))
            })
        });
        g.bench_function(format!("im2col_b8_c32_l64_d{dilation}"), |b| {
            b.iter(|| {
                aimts_tensor::no_grad(|| black_box(x.conv1d_im2col(black_box(&w), None, spec)))
            })
        });
    }
    // Univariate input conv: [B=8, C=1, L=64] x [32, 1, 3].
    let x1 = Tensor::randn(&[8, 1, 64], 3);
    let w1 = Tensor::randn(&[32, 1, 3], 4);
    let spec = Conv1dSpec::same(3, 1);
    g.bench_function("direct_b8_c1to32_l64", |b| {
        b.iter(|| aimts_tensor::no_grad(|| black_box(x1.conv1d_direct(black_box(&w1), None, spec))))
    });
    g.bench_function("im2col_b8_c1to32_l64", |b| {
        b.iter(|| aimts_tensor::no_grad(|| black_box(x1.conv1d_im2col(black_box(&w1), None, spec))))
    });
    g.finish();

    let mut g = c.benchmark_group("conv2d");
    // Image-encoder first conv: [B=8, C=1, 32, 32] x [32, 1, 3, 3].
    let xi = Tensor::randn(&[8, 1, 32, 32], 5);
    let wi = Tensor::randn(&[32, 1, 3, 3], 6);
    let spec2 = Conv2dSpec {
        stride: 1,
        padding: 1,
    };
    g.bench_function("direct_b8_c1to32_32x32", |b| {
        b.iter(|| {
            aimts_tensor::no_grad(|| black_box(xi.conv2d_direct(black_box(&wi), None, spec2)))
        })
    });
    g.bench_function("im2col_b8_c1to32_32x32", |b| {
        b.iter(|| {
            aimts_tensor::no_grad(|| black_box(xi.conv2d_im2col(black_box(&wi), None, spec2)))
        })
    });
    g.finish();
}

/// Every conv1d layer `pre-training` runs, at the shape the `pretrain`
/// workload of `BENCHMARK.json` runs it: `bench_aimts_config()` (hidden 16,
/// repr 32, dilations {1, 2, 4}) over one micro-batch of 200 univariate
/// rows of T = 64. The input conv 1→16 takes the direct lowering; the
/// block convs 16→16 and the output conv 16→32 take im2col. Each layer is
/// timed as a `no_grad` forward and as a forward + backward, with the
/// arena enabled as in training. The input series is untracked, as in
/// training, so its backward computes only the weight and bias gradients.
fn bench_conv_pretrain_shapes(c: &mut Criterion) {
    use aimts_bench::runners::bench_aimts_config;
    use aimts_tensor::ops::Conv1dSpec;

    let cfg = bench_aimts_config();
    let (hidden, t) = (cfg.hidden, cfg.pretrain_len);
    let mut layers = vec![(format!("input_1to{hidden}"), 1, hidden, 1)];
    for &d in &cfg.dilations {
        layers.push((format!("block_{hidden}to{hidden}_d{d}"), hidden, hidden, d));
    }
    layers.push((
        format!("output_{hidden}to{}", cfg.repr_dim),
        hidden,
        cfg.repr_dim,
        1,
    ));

    let _arena = aimts_tensor::arena::enable();
    let mut g = c.benchmark_group("conv1d_pretrain");
    for (name, cin, cout, dilation) in layers {
        let spec = Conv1dSpec::same(3, dilation);
        let x = Tensor::randn(&[ROWS, cin, t], 1);
        let x = if cin == 1 { x } else { x.requires_grad() };
        let w = Tensor::randn(&[cout, cin, 3], 2).requires_grad();
        let b = Tensor::zeros(&[cout]).requires_grad();
        g.bench_function(format!("{name}_r{ROWS}_l{t}_fwd"), |bch| {
            bch.iter(|| {
                aimts_tensor::no_grad(|| black_box(x.conv1d(black_box(&w), Some(&b), spec)))
            })
        });
        g.bench_function(format!("{name}_r{ROWS}_l{t}_fwd_bwd"), |bch| {
            bch.iter(|| {
                x.conv1d(black_box(&w), Some(&b), spec).sum_all().backward();
                for p in [&x, &w, &b] {
                    p.zero_grad();
                }
            })
        });
    }
    g.finish();
}

/// GELU at the shape of the block activations in `pre-training`, the
/// input shape of `conv1d_pretrain`'s block rows ([200, 16, 64]): a
/// `no_grad` forward, and a forward + backward with the input tracked,
/// arena enabled as in training. Its tanh term runs 16 lanes wide at
/// AVX-512 and 8 at AVX2, whichever the host has.
fn bench_gelu_pretrain_shape(c: &mut Criterion) {
    use aimts_bench::runners::bench_aimts_config;

    let cfg = bench_aimts_config();
    let (hidden, t) = (cfg.hidden, cfg.pretrain_len);
    let _arena = aimts_tensor::arena::enable();
    let x = Tensor::randn(&[ROWS, hidden, t], 1).requires_grad();
    let mut g = c.benchmark_group("gelu_pretrain");
    g.bench_function(format!("r{ROWS}_c{hidden}_l{t}_fwd"), |bch| {
        bch.iter(|| aimts_tensor::no_grad(|| black_box(x.gelu())))
    });
    g.bench_function(format!("r{ROWS}_c{hidden}_l{t}_fwd_bwd"), |bch| {
        bch.iter(|| {
            x.gelu().sum_all().backward();
            x.zero_grad();
        })
    });
    g.finish();
}

fn bench_encoder(c: &mut Criterion) {
    let enc = TsEncoder::new(16, 32, &[1, 2, 4], 0);
    let x = Tensor::randn(&[8, 1, 128], 1);
    c.bench_function("encoder/forward_b8_l128", |b| {
        b.iter(|| aimts_tensor::no_grad(|| black_box(enc.encode_rows(black_box(&x)))))
    });
    c.bench_function("encoder/forward_backward_b8_l128", |b| {
        b.iter(|| {
            let y = enc.encode_rows(black_box(&x));
            y.square().sum_all().backward();
            enc.parameters().iter().for_each(|p| p.zero_grad());
        })
    });
}

fn bench_losses(c: &mut Criterion) {
    let u = Tensor::randn(&[16, 32], 1).l2_normalize(1);
    let v = Tensor::randn(&[16, 32], 2).l2_normalize(1);
    c.bench_function("loss/series_image_naive_b16", |b| {
        b.iter(|| black_box(series_image_naive(black_box(&u), black_box(&v), 0.2)))
    });
    c.bench_function("loss/inter_prototype_b16", |b| {
        b.iter(|| black_box(inter_prototype_loss(black_box(&u), black_box(&v), 0.2)))
    });
    let lambdas: Vec<f32> = (0..16).map(|i| i as f32 / 16.0).collect();
    c.bench_function("loss/geodesic_mixup_b16", |b| {
        b.iter(|| black_box(geodesic_mixup(black_box(&u), black_box(&v), &lambdas)))
    });
}

fn bench_classical(c: &mut Criterion) {
    let rocket = Rocket::new(100, 128, 0);
    let x = series(128);
    c.bench_function("rocket/transform_100k_l128", |b| {
        b.iter(|| black_box(rocket.transform_series(black_box(&x))))
    });
    let a = series(128);
    let bb = series(128);
    c.bench_function("dtw/l128_band10", |b| {
        b.iter(|| black_box(dtw(black_box(&a), black_box(&bb), 0.1)))
    });
}

criterion_group!(
    benches,
    bench_augmentations,
    bench_imaging,
    bench_conv_lowerings,
    bench_conv_pretrain_shapes,
    bench_gelu_pretrain_shape,
    bench_encoder,
    bench_losses,
    bench_classical
);
criterion_main!(benches);
