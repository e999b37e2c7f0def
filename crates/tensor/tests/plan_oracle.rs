//! Bitwise oracle for the trace-and-compile executor.
//!
//! Every test runs the same step twice — once eagerly on a twin set of
//! tensors, once by replaying a [`aimts_tensor::plan::CompiledPlan`] traced
//! from an earlier step — and asserts **bit equality** (`to_bits`), not
//! tolerance: the compiled executor's contract is that replay is the eager
//! computation, merely without rebuilding the graph.
//!
//! Covered here:
//! * random shapes / seeds / values (proptest) over a Linear→relu→Linear→
//!   l2_normalize→scaled-similarity step that exercises the fused
//!   matmul→bias, matmul→scale, and l2_normalize chains;
//! * replay across an Adam parameter update (the Adam recurrence from
//!   `aimts_nn::Adam`, applied identically to both twins — replay must
//!   track in-place parameter mutation);
//! * fused-chain *boundaries*: the same chains with a multi-consumer or
//!   plan-output intermediate, where fusion must stand down;
//! * conv→gelu fusion with backward;
//! * the TS encoder's residual block over several rounds, whose unfused
//!   `add → gelu` must rewrite GELU's saved tanh on every replay;
//! * `NaN`/`±inf` inputs — replay must reproduce the eager bit patterns,
//!   not sanitize them.

use aimts_tensor::{plan, Tensor};
use proptest::prelude::*;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn grad_bits(t: &Tensor) -> Vec<u32> {
    bits(&t.grad().expect("gradient present"))
}

/// The Adam recurrence of `aimts_nn::Adam` (defaults: β₁ 0.9, β₂ 0.999,
/// ε 1e-8, no weight decay), replicated here because the tensor crate
/// sits below the nn crate. Applied to bitwise-equal params and grads it
/// must produce bitwise-equal updates on both twins.
fn adam_step(param: &Tensor, m: &mut [f32], v: &mut [f32], t: i32, lr: f32) {
    let (b1, b2, eps) = (0.9f32, 0.999f32, 1e-8f32);
    let bc1 = 1.0 - b1.powi(t);
    let bc2 = 1.0 - b2.powi(t);
    let g = param.grad().expect("gradient present");
    param.update_data(|data| {
        for (i, x) in data.iter_mut().enumerate() {
            m[i] = b1 * m[i] + (1.0 - b1) * g[i];
            v[i] = b2 * v[i] + (1.0 - b2) * g[i] * g[i];
            *x -= lr * (m[i] / bc1) / ((v[i] / bc2).sqrt() + eps);
        }
    });
}

/// One twin of the random step: its own parameter tensors over shared
/// initial values.
struct Twin {
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
}

impl Twin {
    fn new(w1: &[f32], b1v: &[f32], w2: &[f32], din: usize, h: usize, dout: usize) -> Twin {
        Twin {
            w1: Tensor::from_vec(w1.to_vec(), &[din, h]).requires_grad(),
            b1: Tensor::from_vec(b1v.to_vec(), &[h]).requires_grad(),
            w2: Tensor::from_vec(w2.to_vec(), &[h, dout]).requires_grad(),
        }
    }

    /// matmul→bias (fuses) → relu → matmul → l2_normalize (fuses) →
    /// self-similarity → `/τ` scaling (fuses) → scalar loss.
    fn step(&self, x: &Tensor) -> Tensor {
        let h = x.matmul(&self.w1).add(&self.b1).relu();
        let z = h.matmul(&self.w2).l2_normalize(1);
        z.matmul(&z.transpose(0, 1)).mul_scalar(7.5).sum_all()
    }

    fn zero_grad(&self) {
        self.w1.zero_grad();
        self.b1.zero_grad();
        self.w2.zero_grad();
    }

    fn params(&self) -> [&Tensor; 3] {
        [&self.w1, &self.b1, &self.w2]
    }
}

/// Trace on `x0`, then for each subsequent input: replay the plan on one
/// twin and run eagerly on the other, asserting bitwise-equal losses and
/// gradients, then push both twins through an identical Adam update so the
/// next round replays against mutated parameters.
fn check_random_step(
    din: usize,
    h: usize,
    dout: usize,
    b: usize,
    xs: &[Vec<f32>],
    weights: &[f32],
) {
    let need = din * h + h + h * dout;
    assert!(weights.len() >= need, "strategy sizing bug");
    let (w1v, rest) = weights.split_at(din * h);
    let (b1v, rest) = rest.split_at(h);
    let w2v = &rest[..h * dout];

    let traced = Twin::new(w1v, b1v, w2v, din, h, dout);
    let eager = Twin::new(w1v, b1v, w2v, din, h, dout);

    let x = Tensor::from_vec(xs[0].clone(), &[b, din]);
    let plan = plan::trace(std::slice::from_ref(&x), 1, || vec![traced.step(&x)])
        .expect("random step must trace");
    assert!(plan.fused_count() >= 3, "expected bias+norm+scale fusion");

    let mut moments: Vec<(Vec<f32>, Vec<f32>)> = traced
        .params()
        .iter()
        .map(|p| (vec![0f32; p.numel()], vec![0f32; p.numel()]))
        .collect();
    let mut eager_moments = moments.clone();

    for (round, fresh) in xs.iter().enumerate().skip(1) {
        let t = round as i32;
        traced.zero_grad();
        x.set_data(fresh);
        plan.run().expect("replay");
        plan.backward();

        eager.zero_grad();
        let xe = Tensor::from_vec(fresh.clone(), &[b, din]);
        let loss = eager.step(&xe);
        loss.backward();

        assert_eq!(
            plan.output(0).item().to_bits(),
            loss.item().to_bits(),
            "round {round}: loss diverged"
        );
        for (pc, pe) in traced.params().iter().zip(eager.params()) {
            assert_eq!(grad_bits(pc), grad_bits(pe), "round {round}: grad diverged");
        }

        for ((pc, pe), (mc, me)) in traced
            .params()
            .iter()
            .zip(eager.params())
            .zip(moments.iter_mut().zip(eager_moments.iter_mut()))
        {
            adam_step(pc, &mut mc.0, &mut mc.1, t, 3e-3);
            adam_step(pe, &mut me.0, &mut me.1, t, 3e-3);
            assert_eq!(
                bits(&pc.to_vec()),
                bits(&pe.to_vec()),
                "round {round}: Adam-updated params diverged"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random shapes, random weights, three replay rounds with an Adam
    /// update between each: loss, gradients, and updated parameters stay
    /// bitwise equal to eager throughout.
    #[test]
    fn compiled_step_is_bitwise_eager(
        din in 1usize..5,
        h in 1usize..6,
        dout in 1usize..5,
        b in 1usize..4,
        seed_vals in prop::collection::vec(-3f32..3f32, 150..=150),
        input_vals in prop::collection::vec(-5f32..5f32, 60..=60),
    ) {
        let xs: Vec<Vec<f32>> = (0..4)
            .map(|r| {
                (0..b * din)
                    .map(|i| input_vals[(r * 13 + i * 7) % input_vals.len()])
                    .collect()
            })
            .collect();
        check_random_step(din, h, dout, b, &xs, &seed_vals);
    }

    /// Non-finite inputs: replay reproduces the exact NaN/inf bit patterns
    /// the eager step produces — the executor must not sanitize, clamp, or
    /// reorder anything.
    #[test]
    fn non_finite_inputs_replay_bitwise(
        vals in prop::collection::vec(-2f32..2f32, 12..=12),
        poison_idx in 0usize..12,
        poison in prop::sample::select(vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY]),
    ) {
        let w = Tensor::from_vec(vec![0.5, -1.5, 2.0, 0.25, -0.75, 1.0, 0.0, 3.0, -2.0], &[3, 3])
            .requires_grad();
        let x = Tensor::from_vec(vals.clone(), &[4, 3]);
        let plan = plan::trace(std::slice::from_ref(&x), 1, || {
            vec![x.matmul(&w).gelu().l2_normalize(1).sum_all()]
        })
        .expect("trace");

        let mut poisoned = vals;
        poisoned[poison_idx] = poison;
        w.zero_grad();
        x.set_data(&poisoned);
        plan.run().expect("replay");
        plan.backward();
        let (ploss, pgrad) = (plan.output(0).item().to_bits(), grad_bits(&w));

        let we = Tensor::from_vec(w.to_vec(), &[3, 3]).requires_grad();
        let xe = Tensor::from_vec(poisoned, &[4, 3]);
        let loss = xe.matmul(&we).gelu().l2_normalize(1).sum_all();
        loss.backward();
        prop_assert_eq!(ploss, loss.item().to_bits());
        prop_assert_eq!(pgrad, grad_bits(&we));
    }
}

/// A multi-consumer intermediate defeats matmul→bias fusion (the product
/// feeds both the bias add and the loss directly); values must still match
/// bitwise.
#[test]
fn multi_consumer_product_blocks_fusion_but_matches() {
    let x = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], &[2, 2]);
    let w = Tensor::from_vec(vec![0.4, 1.2, -0.6, 0.8], &[2, 2]).requires_grad();
    let b = Tensor::from_vec(vec![0.1, -0.2], &[2]).requires_grad();
    let step = |x: &Tensor, w: &Tensor, b: &Tensor| {
        let prod = x.matmul(w);
        // `prod` is consumed twice: once by the bias add, once directly.
        prod.add(b).relu().sum_all().add(&prod.square().sum_all())
    };
    let plan = plan::trace(std::slice::from_ref(&x), 1, || vec![step(&x, &w, &b)]).expect("trace");
    assert_eq!(
        plan.fused_count(),
        0,
        "multi-consumer product must not fuse"
    );

    let fresh = vec![-1.0, 4.0, 2.5, 0.0];
    w.zero_grad();
    b.zero_grad();
    x.set_data(&fresh);
    plan.run().expect("replay");
    plan.backward();

    let we = Tensor::from_vec(w.to_vec(), &[2, 2]).requires_grad();
    let be = Tensor::from_vec(b.to_vec(), &[2]).requires_grad();
    let xe = Tensor::from_vec(fresh, &[2, 2]);
    let loss = step(&xe, &we, &be);
    loss.backward();
    assert_eq!(plan.output(0).item().to_bits(), loss.item().to_bits());
    assert_eq!(grad_bits(&w), grad_bits(&we));
    assert_eq!(grad_bits(&b), grad_bits(&be));
}

/// An intermediate that is itself a plan output keeps its slot: fusion
/// must stand down so the caller can read the un-fused value after replay.
#[test]
fn plan_output_intermediate_blocks_fusion_but_matches() {
    let x = Tensor::from_vec(vec![2.0, -1.0], &[1, 2]);
    let w = Tensor::from_vec(vec![1.5, 0.5, -0.25, 2.0], &[2, 2]).requires_grad();
    let plan = plan::trace(std::slice::from_ref(&x), 1, || {
        let prod = x.matmul(&w);
        let scaled = prod.mul_scalar(3.0);
        vec![scaled.sum_all(), prod]
    })
    .expect("trace");
    assert_eq!(plan.fused_count(), 0, "plan-output product must not fuse");

    let fresh = vec![-3.0, 0.25];
    w.zero_grad();
    x.set_data(&fresh);
    plan.run().expect("replay");
    plan.backward();

    let we = Tensor::from_vec(w.to_vec(), &[2, 2]).requires_grad();
    let xe = Tensor::from_vec(fresh, &[1, 2]);
    let prod_e = xe.matmul(&we);
    let loss_e = prod_e.mul_scalar(3.0).sum_all();
    loss_e.backward();
    assert_eq!(plan.output(0).item().to_bits(), loss_e.item().to_bits());
    assert_eq!(bits(&plan.output(1).to_vec()), bits(&prod_e.to_vec()));
    assert_eq!(grad_bits(&w), grad_bits(&we));
}

/// conv→gelu fuses; forward and every gradient replay bitwise.
#[test]
fn conv_gelu_fusion_is_bitwise() {
    use aimts_tensor::ops::Conv1dSpec;
    let spec = Conv1dSpec::same(3, 1);
    let x = Tensor::from_vec(
        (0..24).map(|i| (i as f32 * 0.37).sin()).collect(),
        &[2, 2, 6],
    );
    let w = Tensor::from_vec((0..12).map(|i| 0.2 - i as f32 * 0.05).collect(), &[2, 2, 3])
        .requires_grad();
    let bias = Tensor::from_vec(vec![0.05, -0.1], &[2]).requires_grad();
    let plan = plan::trace(std::slice::from_ref(&x), 1, || {
        vec![x.conv1d(&w, Some(&bias), spec).gelu().square().sum_all()]
    })
    .expect("trace");
    assert!(plan.fused_count() >= 1, "conv→gelu should fuse");

    let fresh: Vec<f32> = (0..24).map(|i| (i as f32 * 0.61).cos()).collect();
    w.zero_grad();
    bias.zero_grad();
    x.set_data(&fresh);
    plan.run().expect("replay");
    plan.backward();

    let we = Tensor::from_vec(w.to_vec(), &[2, 2, 3]).requires_grad();
    let be = Tensor::from_vec(bias.to_vec(), &[2]).requires_grad();
    let xe = Tensor::from_vec(fresh, &[2, 2, 6]);
    let loss = xe.conv1d(&we, Some(&be), spec).gelu().square().sum_all();
    loss.backward();
    assert_eq!(plan.output(0).item().to_bits(), loss.item().to_bits());
    assert_eq!(grad_bits(&w), grad_bits(&we));
    assert_eq!(grad_bits(&bias), grad_bits(&be));
}

/// The TS encoder's residual block (`DilatedBlock::forward` in
/// `aimts::encoder`): the inner conv→gelu fuses, while the closing
/// `add → gelu` replays as a plain GELU instruction whose thunk must
/// rewrite the saved tanh. Every round feeds fresh inputs, so a stale tanh
/// shows up in the gradients from the second round on.
#[test]
fn residual_add_gelu_replays_fresh_saved_tanh() {
    use aimts_tensor::ops::Conv1dSpec;
    let (b, c, l) = (2, 3, 10);
    let spec = Conv1dSpec::same(3, 2);
    let block = |x: &Tensor, p: &[Tensor; 4]| {
        let h = x.conv1d(&p[0], Some(&p[1]), spec).gelu();
        let h = h.conv1d(&p[2], Some(&p[3]), spec);
        h.add(x).gelu().square().sum_all()
    };
    let init = [
        Tensor::randn(&[c, c, 3], 11),
        Tensor::randn(&[c], 12),
        Tensor::randn(&[c, c, 3], 13),
        Tensor::randn(&[c], 14),
    ];
    let params = || init.clone().map(|t| t.requires_grad());
    let input = |round: u64| Tensor::randn(&[b, c, l], 100 + round).to_vec();

    let traced = params();
    let x = Tensor::from_vec(input(0), &[b, c, l]);
    let plan =
        plan::trace(std::slice::from_ref(&x), 1, || vec![block(&x, &traced)]).expect("trace");
    assert!(plan.fused_count() >= 1, "inner conv→gelu should fuse");

    for round in 1..=3 {
        traced.iter().for_each(Tensor::zero_grad);
        x.set_data(&input(round));
        plan.run().expect("replay");
        plan.backward();

        let eager = params();
        let loss = block(&Tensor::from_vec(input(round), &[b, c, l]), &eager);
        loss.backward();
        assert_eq!(
            plan.output(0).item().to_bits(),
            loss.item().to_bits(),
            "round {round}: loss diverged"
        );
        for (pc, pe) in traced.iter().zip(&eager) {
            assert_eq!(grad_bits(pc), grad_bits(pe), "round {round}: grad diverged");
        }
    }
}
