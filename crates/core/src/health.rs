//! Self-healing training supervisor: numerical-anomaly detection, the
//! guard → clip → skip → rollback → abort escalation ladder, and the
//! structured [`HealthReport`] attached to training results.
//!
//! Multi-source pre-training mixes heterogeneous datasets under aggressive
//! augmentations, so a single extreme series or warped view can poison a
//! step with `NaN`/`inf` and silently destroy a multi-hour run. The
//! [`HealthMonitor`] wraps every optimizer step of
//! [`AimTs::pretrain`](crate::AimTs::pretrain) and
//! [`FineTuned::fit`](crate::FineTuned::fit):
//!
//! 1. **guard** — the micro-batch loss and the flat gradient must be
//!    all-finite (cheap bit-mask scans, [`aimts_tensor::all_finite`] /
//!    [`aimts_nn::grad_norm`]);
//! 2. **clip** — optional global-norm gradient clipping
//!    ([`HealthPolicy::clip_norm`], via [`aimts_nn::clip_grad_norm`]);
//! 3. **skip** — an anomalous step is skipped (gradients zeroed, optimizer
//!    untouched) and counted;
//! 4. **rollback** — after [`HealthPolicy::max_bad_steps`] *consecutive*
//!    bad steps, or a non-finite parameter detected post-step, pre-training
//!    restores the last good epoch-boundary checkpoint (parameters, Adam
//!    moments, scheduler, RNG stream) and re-shuffles forward;
//! 5. **abort** — only after [`HealthPolicy::max_rollbacks`] rollbacks have
//!    failed to restore progress does training abort, with a typed
//!    [`TrainError`] carrying the final report.
//!
//! The clean path is bit-for-bit unchanged: guards only *read* values, and
//! clipping is disabled by default.

use std::fmt;

use aimts_nn::{clip_grad_norm, grad_norm, CheckpointError, Optimizer};
use aimts_tensor::Tensor;

/// Knobs of the self-healing training loop.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthPolicy {
    /// Global L2 gradient-norm clipping threshold; `None` disables
    /// clipping (the default — clipping perturbs the update stream, so it
    /// is strictly opt-in).
    pub clip_norm: Option<f32>,
    /// `K`: consecutive anomalous (skipped) steps that trigger an
    /// automatic rollback to the last good checkpoint.
    pub max_bad_steps: usize,
    /// `R`: rollbacks tolerated before training aborts with
    /// [`TrainError::Diverged`]. Every rollback restores the last good
    /// state first, so even the aborting run ends on usable weights.
    pub max_rollbacks: usize,
    /// Deterministic fault-injection hooks (test seam, inert by default).
    pub fault: FaultPlan,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            clip_norm: None,
            max_bad_steps: 5,
            max_rollbacks: 2,
            fault: FaultPlan::default(),
        }
    }
}

/// Deterministic fault injection for the self-healing test suite (see
/// `tests/training_faults.rs`). Inert by default; not intended for
/// production configs — the same role `atomic_write_failing_after` plays
/// for the checkpoint fault suite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Treat every step *attempt* with index `>= this` as numerically
    /// anomalous, as if the loss were non-finite. Attempt indices are
    /// monotone across rollbacks (they are never restored), so a plan that
    /// forces everything bad from some point exercises the full
    /// skip → rollback → abort ladder.
    pub bad_steps_from: Option<u64>,
    /// Panic inside the worker computing this micro-batch index on the
    /// data-parallel path (exercises worker-panic containment).
    pub panic_on_micro: Option<u64>,
}

impl FaultPlan {
    /// Whether step attempt `attempt` is forced anomalous.
    pub fn forces_bad(&self, attempt: u64) -> bool {
        self.bad_steps_from.is_some_and(|from| attempt >= from)
    }

    /// Whether the worker handling micro-batch `micro` must panic.
    pub fn forces_panic(&self, micro: u64) -> bool {
        self.panic_on_micro == Some(micro)
    }
}

/// Per-epoch summary of pre-clip gradient norms (successful steps only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradNormStats {
    pub mean: f32,
    pub min: f32,
    pub max: f32,
    /// Optimizer steps that contributed (skipped steps do not).
    pub steps: usize,
}

/// Structured account of everything the supervisor did during a run,
/// attached to [`PretrainReport`](crate::PretrainReport) and
/// [`FineTuned`](crate::FineTuned), and printed by the CLI.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthReport {
    /// Steps skipped because the loss or gradient was non-finite (or a
    /// fault plan forced the anomaly).
    pub skipped_steps: usize,
    /// Steps whose gradient was rescaled by global-norm clipping.
    pub clip_events: usize,
    /// Automatic rollbacks to the last good checkpoint.
    pub rollbacks: usize,
    /// Worker threads that panicked mid-step (data-parallel path).
    pub worker_panics: usize,
    /// Data-parallel steps completed on a strict subset of their
    /// micro-batches (surviving replicas re-averaged after a panic or a
    /// poisoned gradient). A degraded step averages fewer micro-batches
    /// than its round held, so the run leaves the trajectory a clean run
    /// with the same seed and worker count takes; that is why these steps
    /// are surfaced here.
    pub degraded_steps: usize,
    /// Pre-clip gradient-norm summary per completed epoch.
    pub epoch_grad_norms: Vec<GradNormStats>,
}

impl HealthReport {
    /// Fold another report into this one: counts add, per-epoch stats
    /// append. Used when one model accumulates over repeated `fit` calls.
    pub fn absorb(&mut self, other: HealthReport) {
        self.skipped_steps += other.skipped_steps;
        self.clip_events += other.clip_events;
        self.rollbacks += other.rollbacks;
        self.worker_panics += other.worker_panics;
        self.degraded_steps += other.degraded_steps;
        self.epoch_grad_norms.extend(other.epoch_grad_norms);
    }

    /// True when the run needed no intervention at all.
    pub fn is_clean(&self) -> bool {
        self.skipped_steps == 0
            && self.clip_events == 0
            && self.rollbacks == 0
            && self.worker_panics == 0
            && self.degraded_steps == 0
    }
}

impl fmt::Display for HealthReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "health: {} skipped, {} clipped, {} rollbacks, {} worker panics, {} degraded steps",
            self.skipped_steps,
            self.clip_events,
            self.rollbacks,
            self.worker_panics,
            self.degraded_steps
        )?;
        if let Some(last) = self.epoch_grad_norms.last() {
            write!(
                f,
                "; last-epoch grad norm mean {:.4} (min {:.4}, max {:.4})",
                last.mean, last.min, last.max
            )?;
        }
        Ok(())
    }
}

/// Typed failure of a training run.
#[must_use]
#[derive(Debug)]
pub enum TrainError {
    /// Writing or restoring a checkpoint failed.
    Checkpoint(CheckpointError),
    /// The run kept producing anomalous steps after exhausting the
    /// rollback budget. The model is left restored to the last good
    /// checkpointed state.
    Diverged {
        /// Consecutive bad steps at the final trigger.
        consecutive_bad: usize,
        /// Rollbacks performed before giving up.
        rollbacks: usize,
        /// Supervisor account of the whole run.
        report: HealthReport,
        /// Human-readable cause of the final trigger.
        detail: String,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
            TrainError::Diverged {
                consecutive_bad,
                rollbacks,
                report,
                detail,
            } => write!(
                f,
                "training diverged after {rollbacks} rollback(s) \
                 ({consecutive_bad} consecutive bad steps; {detail}); \
                 model restored to the last good checkpoint ({report})"
            ),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Checkpoint(e) => Some(e),
            TrainError::Diverged { .. } => None,
        }
    }
}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

impl From<std::io::Error> for TrainError {
    fn from(e: std::io::Error) -> Self {
        TrainError::Checkpoint(CheckpointError::from(e))
    }
}

/// Gradient guard + optional clip, called between `backward()` and
/// `step()`. Returns the pre-clip global L2 norm — the caller must skip
/// the step when it is non-finite — and whether clipping rescaled the
/// gradients.
pub fn guard_and_clip(params: &[Tensor], clip: Option<f32>) -> (f32, bool) {
    match clip {
        Some(max) => {
            let pre = clip_grad_norm(params, max);
            (pre, pre.is_finite() && pre > max)
        }
        None => (grad_norm(params), false),
    }
}

/// Post-step parameter guard: every parameter buffer must be all-finite.
pub fn params_all_finite(params: &[Tensor]) -> bool {
    params.iter().all(|p| p.all_finite())
}

/// How one step attempt ended (see [`HealthMonitor::supervised_step`]).
#[derive(Debug, Clone, PartialEq)]
pub enum StepOutcome<T> {
    /// The optimizer stepped; carries what the gradient source returned.
    Stepped(T),
    /// The attempt was anomalous and skipped: gradients zeroed, optimizer
    /// untouched.
    Skipped,
    /// Restore the last good state: the consecutive-bad budget ran out, or
    /// the step left a non-finite parameter behind. Carries the cause.
    RollBack(String),
}

/// What the supervisor decided about one step attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepVerdict {
    /// The step went through (possibly clipped, possibly degraded).
    Stepped,
    /// The step was anomalous and skipped; no rollback needed yet.
    Skipped,
    /// The step pushed the run over the consecutive-bad budget (or left a
    /// non-finite parameter behind): restore the last good checkpoint.
    RollBack,
}

/// Tracks anomalies across a training run and decides the escalation.
///
/// Owned by the training loop; the loop feeds it per-step observations and
/// obeys the returned [`StepVerdict`]s.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    policy: HealthPolicy,
    report: HealthReport,
    consecutive_bad: usize,
    /// Monotone count of step *attempts*. Unlike the optimizer-step
    /// counter this is never restored by a rollback, so fault plans (and
    /// diagnostics) see forward progress even while the run replays an
    /// epoch.
    attempts: u64,
    epoch_norms: Vec<f64>,
}

impl HealthMonitor {
    pub fn new(policy: HealthPolicy) -> Self {
        HealthMonitor {
            policy,
            report: HealthReport::default(),
            consecutive_bad: 0,
            attempts: 0,
            epoch_norms: Vec::new(),
        }
    }

    pub fn policy(&self) -> &HealthPolicy {
        &self.policy
    }

    /// Begin a step attempt; returns its monotone index.
    pub fn begin_attempt(&mut self) -> u64 {
        let a = self.attempts;
        self.attempts += 1;
        a
    }

    /// Whether this attempt is anomalous before any gradient work: the
    /// loss is non-finite, or a fault plan forces it.
    pub fn loss_is_bad(&self, loss: f32, attempt: u64) -> bool {
        !loss.is_finite() || self.policy.fault.forces_bad(attempt)
    }

    /// The loss guard for a single-loss step: refuse `loss` before
    /// `backward` when [`HealthMonitor::loss_is_bad`] flags it for
    /// `attempt`; otherwise zero the gradients and backpropagate. Returns
    /// the loss value, the gradient source
    /// [`HealthMonitor::supervised_step`] takes.
    pub fn guarded_backward(
        &self,
        opt: &impl Optimizer,
        loss: &Tensor,
        attempt: u64,
    ) -> Result<f32, String> {
        let value = loss.item();
        if self.loss_is_bad(value, attempt) {
            return Err(format!("non-finite loss {value}"));
        }
        opt.zero_grad();
        loss.backward();
        Ok(value)
    }

    /// The guard → clip → skip → step ladder for one step attempt, shared
    /// by pre-training and fine-tuning.
    ///
    /// `grad` is `Ok` when the attempt's gradient sits in the `.grad` slots
    /// of `params`, or `Err(cause)` when the attempt was anomalous before a
    /// gradient existed. A gradient whose global norm is non-finite is
    /// anomalous too; otherwise it is clipped (when the policy says so) and
    /// the optimizer steps. An anomalous attempt zeroes the gradients and
    /// counts towards [`HealthPolicy::max_bad_steps`]. `scan_params` adds
    /// the post-step parameter scan, pre-training's second rollback
    /// trigger; fine-tuning, which has no rollback rung, skips it.
    pub fn supervised_step<T>(
        &mut self,
        opt: &mut impl Optimizer,
        params: &[Tensor],
        scan_params: bool,
        grad: Result<T, String>,
    ) -> StepOutcome<T> {
        let cause = match grad {
            Err(cause) => cause,
            Ok(value) => {
                let (norm, clipped) = guard_and_clip(params, self.policy.clip_norm);
                if norm.is_finite() {
                    opt.step();
                    if scan_params && !params_all_finite(params) {
                        return StepOutcome::RollBack(
                            "non-finite parameter after optimizer step".into(),
                        );
                    }
                    self.record_step(norm, clipped);
                    return StepOutcome::Stepped(value);
                }
                format!("non-finite gradient norm {norm}")
            }
        };
        opt.zero_grad();
        match self.record_skip() {
            StepVerdict::RollBack => StepOutcome::RollBack(format!(
                "{} consecutive anomalous steps (last: {cause})",
                self.policy.max_bad_steps.max(1)
            )),
            _ => StepOutcome::Skipped,
        }
    }

    /// Record a successful optimizer step with its pre-clip gradient norm.
    pub fn record_step(&mut self, pre_clip_norm: f32, clipped: bool) {
        debug_assert!(
            pre_clip_norm.is_finite(),
            "record_step called with a non-finite gradient norm — the guard must skip instead"
        );
        self.consecutive_bad = 0;
        self.epoch_norms.push(pre_clip_norm as f64);
        if clipped {
            self.report.clip_events += 1;
        }
    }

    /// Record an anomalous step that was skipped. Returns `RollBack` when
    /// the consecutive-bad budget is exhausted.
    pub fn record_skip(&mut self) -> StepVerdict {
        self.report.skipped_steps += 1;
        self.consecutive_bad += 1;
        if self.consecutive_bad >= self.policy.max_bad_steps.max(1) {
            StepVerdict::RollBack
        } else {
            StepVerdict::Skipped
        }
    }

    /// Record a data-parallel step that completed on a strict subset of
    /// its micro-batches, with `panics` of the drops caused by worker
    /// panics (the rest were poisoned gradients).
    pub fn record_degraded(&mut self, panics: usize, poisoned: usize) {
        self.report.worker_panics += panics;
        if panics + poisoned > 0 {
            self.report.degraded_steps += 1;
        }
    }

    /// Record worker panics in a round that produced *no* usable gradient
    /// (the whole step is skipped, so it does not count as degraded).
    pub fn record_lost_round(&mut self, panics: usize) {
        self.report.worker_panics += panics;
    }

    /// Account for one rollback. `Err` when the budget was already spent —
    /// the caller restores the last good state in both cases, so an
    /// aborting run still ends on usable weights.
    pub fn record_rollback(&mut self, detail: &str) -> Result<(), TrainError> {
        if self.report.rollbacks >= self.policy.max_rollbacks {
            return Err(TrainError::Diverged {
                consecutive_bad: self.consecutive_bad,
                rollbacks: self.report.rollbacks,
                report: self.report.clone(),
                detail: detail.to_string(),
            });
        }
        self.report.rollbacks += 1;
        self.consecutive_bad = 0;
        self.epoch_norms.clear();
        Ok(())
    }

    /// Close out a completed epoch: fold the collected gradient norms into
    /// the report.
    pub fn end_epoch(&mut self) {
        if self.epoch_norms.is_empty() {
            self.report.epoch_grad_norms.push(GradNormStats {
                mean: f32::NAN,
                min: f32::NAN,
                max: f32::NAN,
                steps: 0,
            });
        } else {
            let n = self.epoch_norms.len();
            let mean = self.epoch_norms.iter().sum::<f64>() / n as f64;
            let min = self
                .epoch_norms
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min);
            let max = self
                .epoch_norms
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            self.report.epoch_grad_norms.push(GradNormStats {
                mean: mean as f32,
                min: min as f32,
                max: max as f32,
                steps: n,
            });
        }
        self.epoch_norms.clear();
    }

    /// Consume the monitor, yielding the final report.
    pub fn into_report(self) -> HealthReport {
        self.report
    }

    /// The report accumulated so far.
    pub fn report(&self) -> &HealthReport {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_conservative() {
        let p = HealthPolicy::default();
        assert_eq!(p.clip_norm, None);
        assert_eq!(p.max_bad_steps, 5);
        assert_eq!(p.max_rollbacks, 2);
        assert_eq!(p.fault, FaultPlan::default());
        assert!(!p.fault.forces_bad(0));
        assert!(!p.fault.forces_panic(0));
    }

    #[test]
    fn consecutive_bad_steps_escalate_to_rollback() {
        let mut mon = HealthMonitor::new(HealthPolicy {
            max_bad_steps: 3,
            ..Default::default()
        });
        assert_eq!(mon.record_skip(), StepVerdict::Skipped);
        assert_eq!(mon.record_skip(), StepVerdict::Skipped);
        assert_eq!(mon.record_skip(), StepVerdict::RollBack);
        // A good step resets the streak.
        mon.record_rollback("test").unwrap();
        mon.record_skip();
        mon.record_step(1.0, false);
        assert_eq!(mon.record_skip(), StepVerdict::Skipped);
        assert_eq!(mon.report().skipped_steps, 5);
    }

    #[test]
    fn rollback_budget_aborts_with_diverged() {
        let mut mon = HealthMonitor::new(HealthPolicy {
            max_rollbacks: 1,
            ..Default::default()
        });
        mon.record_rollback("first").unwrap();
        let err = mon.record_rollback("second").unwrap_err();
        match err {
            TrainError::Diverged {
                rollbacks, report, ..
            } => {
                assert_eq!(rollbacks, 1);
                assert_eq!(report.rollbacks, 1);
            }
            other => panic!("expected Diverged, got {other}"),
        }
    }

    #[test]
    fn loss_guard_flags_nonfinite_and_fault_plans() {
        let mut mon = HealthMonitor::new(HealthPolicy {
            fault: FaultPlan {
                bad_steps_from: Some(2),
                panic_on_micro: None,
            },
            ..Default::default()
        });
        let a0 = mon.begin_attempt();
        assert!(!mon.loss_is_bad(1.25, a0));
        assert!(mon.loss_is_bad(f32::NAN, a0));
        assert!(mon.loss_is_bad(f32::INFINITY, a0));
        let a1 = mon.begin_attempt();
        assert!(!mon.loss_is_bad(1.25, a1));
        let a2 = mon.begin_attempt();
        assert!(mon.loss_is_bad(1.25, a2), "fault plan forces attempt 2 bad");
    }

    #[test]
    fn supervised_step_steps_skips_and_escalates() {
        let p = Tensor::from_vec(vec![1.0, -1.0], &[2]).requires_grad();
        let params = vec![p.clone()];
        let mut opt = aimts_nn::Adam::new(params.clone(), 0.1);
        let mut mon = HealthMonitor::new(HealthPolicy {
            max_bad_steps: 2,
            ..Default::default()
        });
        p.set_grad(&[0.5, 0.5]);
        let stepped = mon.supervised_step(&mut opt, &params, true, Ok(7));
        assert_eq!(stepped, StepOutcome::Stepped(7));
        let after_step = p.to_vec();
        assert_ne!(after_step, vec![1.0, -1.0]);

        // A non-finite gradient is skipped and zeroed; an attempt without a
        // gradient is skipped too, and it is the second in a row.
        p.set_grad(&[f32::NAN, 0.0]);
        let skipped = mon.supervised_step(&mut opt, &params, true, Ok(8));
        assert_eq!(skipped, StepOutcome::Skipped);
        assert!(p.grad().is_none(), "a skip zeroes the gradients");
        match mon.supervised_step(&mut opt, &params, true, Err::<(), _>("no gradient".into())) {
            StepOutcome::RollBack(cause) => assert!(
                cause.contains("2 consecutive") && cause.contains("no gradient"),
                "{cause}"
            ),
            other => panic!("expected a rollback, got {other:?}"),
        }
        assert_eq!(p.to_vec(), after_step, "skips leave the parameters alone");
        assert_eq!(mon.report().skipped_steps, 2);
    }

    #[test]
    fn post_step_parameter_scan_is_opt_in() {
        // An infinite learning rate leaves a non-finite parameter behind.
        let step = |scan_params: bool| {
            let p = Tensor::from_vec(vec![1.0], &[1]).requires_grad();
            let params = vec![p.clone()];
            let mut opt = aimts_nn::Adam::new(params.clone(), f32::INFINITY);
            let mut mon = HealthMonitor::new(HealthPolicy::default());
            p.set_grad(&[1.0]);
            let outcome = mon.supervised_step(&mut opt, &params, scan_params, Ok(()));
            (outcome, p.all_finite())
        };
        let (outcome, finite) = step(false);
        assert_eq!(outcome, StepOutcome::Stepped(()));
        assert!(!finite);
        let (outcome, _) = step(true);
        assert!(
            matches!(&outcome, StepOutcome::RollBack(c) if c.contains("non-finite parameter")),
            "{outcome:?}"
        );
    }

    #[test]
    fn guarded_backward_checks_the_loss_before_backward() {
        let mut mon = HealthMonitor::new(HealthPolicy {
            fault: FaultPlan {
                bad_steps_from: Some(1),
                panic_on_micro: None,
            },
            ..Default::default()
        });
        let w = Tensor::from_vec(vec![2.0], &[1]).requires_grad();
        let opt = aimts_nn::Adam::new(vec![w.clone()], 0.1);
        let loss = w.mul(&w).sum_all();
        let a0 = mon.begin_attempt();
        assert_eq!(mon.guarded_backward(&opt, &loss, a0), Ok(4.0));
        assert_eq!(w.grad(), Some(vec![4.0]));
        // The fault plan forces attempt 1 bad: no backward runs.
        w.zero_grad();
        let a1 = mon.begin_attempt();
        assert!(mon.guarded_backward(&opt, &loss, a1).is_err());
        assert!(w.grad().is_none());
    }

    #[test]
    fn epoch_grad_norm_stats() {
        let mut mon = HealthMonitor::new(HealthPolicy::default());
        mon.record_step(1.0, false);
        mon.record_step(3.0, true);
        mon.end_epoch();
        mon.end_epoch(); // empty epoch -> NaN stats, 0 steps
        let r = mon.report();
        assert_eq!(r.clip_events, 1);
        assert_eq!(r.epoch_grad_norms.len(), 2);
        assert_eq!(r.epoch_grad_norms[0].steps, 2);
        assert!((r.epoch_grad_norms[0].mean - 2.0).abs() < 1e-6);
        assert_eq!(r.epoch_grad_norms[0].min, 1.0);
        assert_eq!(r.epoch_grad_norms[0].max, 3.0);
        assert_eq!(r.epoch_grad_norms[1].steps, 0);
        assert!(r.epoch_grad_norms[1].mean.is_nan());
    }

    #[test]
    fn report_display_and_cleanliness() {
        let mut r = HealthReport::default();
        assert!(r.is_clean());
        assert!(r.to_string().contains("0 skipped"));
        r.skipped_steps = 2;
        r.worker_panics = 1;
        assert!(!r.is_clean());
        let s = r.to_string();
        assert!(
            s.contains("2 skipped") && s.contains("1 worker panics"),
            "{s}"
        );
    }

    #[test]
    fn train_error_display_is_readable() {
        let e = TrainError::Diverged {
            consecutive_bad: 5,
            rollbacks: 2,
            report: HealthReport::default(),
            detail: "loss stayed NaN".into(),
        };
        let s = e.to_string();
        assert!(
            s.contains("2 rollback") && s.contains("loss stayed NaN"),
            "{s}"
        );
    }
}
