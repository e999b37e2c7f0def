//! The [`AimTs`] model: both encoders, both projection heads, and the
//! multi-source pre-training loop of Fig. 3(a).

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::Path;
use std::sync::{Arc, OnceLock};

use aimts_data::preprocess::{resample_sample, z_normalize_sample};
use aimts_data::{Dataset, MultiSeries};
use aimts_eval::Summary;
use aimts_imaging::render_sample;
use aimts_nn::{
    load_state_dict, save_state_dict, Activation, Adam, Checkpoint, CheckpointError, Mlp, Module,
    Optimizer, ParamLayout, Replicate, StepLr,
};
use aimts_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::batch::{batch_indices, encode_channel_independent, samples_to_tensor};
use crate::checkpoint::{
    build_pretrain_checkpoint, checkpoint_path, decode_pretrain_checkpoint, prune_checkpoints,
    PretrainState,
};
use crate::config::{AimTsConfig, FineTuneConfig, PretrainConfig};
use crate::encoder::{ImageEncoder, TsEncoder};
use crate::finetune::FineTuned;
use crate::health::{HealthMonitor, HealthReport, StepOutcome, TrainError};
use crate::losses;
use crate::mixup::{geodesic_mixup_t, sample_lambdas};
use crate::parallel::{self, PoolHandle};

/// Summary of a pre-training run.
#[derive(Debug, Clone)]
pub struct PretrainReport {
    /// Mean total loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Mean total loss of the final epoch.
    pub final_loss: f32,
    /// Optimizer steps taken.
    pub steps: usize,
    /// Mean `L_proto` of the final epoch (0 when ablated away).
    pub final_proto_loss: f32,
    /// Mean `L_SI` of the final epoch (0 when ablated away).
    pub final_si_loss: f32,
    /// Workers `W` the run resolved to: 1 when every round was one
    /// micro-batch computed in-thread on the shared RNG stream, otherwise
    /// the size of the worker pool (at least 2, and at most the
    /// micro-batches an epoch can yield). Checkpoints record it, and
    /// resume requires the same value.
    pub workers: usize,
    /// What the self-healing supervisor did during the run (skips, clips,
    /// rollbacks, worker panics, per-epoch gradient-norm stats).
    pub health: HealthReport,
}

/// Flat gradient of one micro-batch plus its loss values, produced by
/// [`AimTs::microbatch_gradient`] on a worker replica.
#[derive(Debug, Clone)]
pub struct MicroGrad {
    /// Gradient over all parameters in `named_parameters()` order.
    pub gradient: Vec<f32>,
    /// Total loss value of the micro-batch.
    pub loss: f32,
    /// `L_proto` value (0 when ablated away).
    pub proto_loss: f32,
    /// `L_SI` value (0 when ablated away).
    pub si_loss: f32,
}

/// One dispatched micro-batch: (augmentation seed, micro index, sample
/// indices, master weights snapshot).
type PoolTask = (u64, u64, Vec<usize>, Arc<Vec<f32>>);

/// A round's gradient as the step ladder takes it, plus the micro-batches
/// the round lost.
struct RoundGrad {
    /// `(loss, L_proto, L_SI)` of each micro-batch the gradient averages
    /// (the gradient itself sits in the master's `.grad` slots), or why the
    /// round has no gradient.
    grad: Result<Vec<[f32; 3]>, String>,
    /// Micro-batches lost to a worker panic.
    panics: usize,
    /// Micro-batches dropped for a non-finite loss or gradient.
    poisoned: usize,
}

/// One pre-training step's freshly drawn graph inputs (see
/// [`AimTs::step_inputs`]): stacked view sets, adaptive temperatures,
/// rendered charts, the original series batch, and the mixup coefficients.
/// Fields are `None` when the ablation disables the loss that needs them.
struct StepTensors {
    b: usize,
    /// `[B*G, M, T]` first stacked view set (prototype losses).
    view0: Option<Tensor>,
    /// `[B*G, M, T]` second stacked view set.
    view1: Option<Tensor>,
    /// `[B, G, G]` within-set adaptive temperatures (Eq. 3).
    tau_w: Option<Tensor>,
    /// `[B, G, G]` cross-set adaptive temperatures.
    tau_c: Option<Tensor>,
    /// `[B, 3, H, W]` rendered line charts (series-image losses).
    img: Option<Tensor>,
    /// `[B, M, T]` un-augmented series batch.
    orig: Option<Tensor>,
    /// `[B]` geodesic-mixup coefficients `λ ~ Beta(γ, γ)`.
    lam: Option<Tensor>,
}

/// The graph roots of one pre-training step (see [`AimTs::step_graph`]).
struct StepOutputs {
    /// Scalar total loss (Eq. 1) — the backward root.
    total: Tensor,
    /// `L_proto` (None when ablated away).
    proto: Option<Tensor>,
    /// `L_SI` (None when ablated away).
    si: Option<Tensor>,
}

/// The AimTS model (paper Fig. 3).
pub struct AimTs {
    pub cfg: AimTsConfig,
    pub ts_encoder: TsEncoder,
    /// `P^TS`, the series projection head.
    pub ts_proj: Mlp,
    pub image_encoder: ImageEncoder,
    /// `P^I`, the image projection head.
    pub img_proj: Mlp,
    /// Parameter enumeration frozen on first use (`named_parameters` walks
    /// the module tree and formats names; the flat-exchange hot path would
    /// otherwise redo that every call).
    layout: OnceLock<ParamLayout>,
}

impl AimTs {
    /// Fresh model with deterministic initialization.
    pub fn new(cfg: AimTsConfig, seed: u64) -> Self {
        let ts_encoder = TsEncoder::new(cfg.hidden, cfg.repr_dim, &cfg.dilations, seed);
        let ts_proj = Mlp::new(
            &[cfg.repr_dim, cfg.repr_dim, cfg.proj_dim],
            Activation::Gelu,
            seed.wrapping_add(1000),
        );
        let image_encoder = ImageEncoder::new(cfg.repr_dim, seed.wrapping_add(2000));
        let img_proj = Mlp::new(
            &[cfg.repr_dim, cfg.repr_dim, cfg.proj_dim],
            Activation::Gelu,
            seed.wrapping_add(3000),
        );
        AimTs {
            cfg,
            ts_encoder,
            ts_proj,
            image_encoder,
            img_proj,
            layout: OnceLock::new(),
        }
    }

    /// The frozen parameter layout (computed once per instance). The
    /// handles alias the live parameters, so reads and writes through the
    /// layout are indistinguishable from re-enumerating every call.
    fn layout(&self) -> &ParamLayout {
        self.layout.get_or_init(|| ParamLayout::of(self))
    }

    /// [`Module::flat_parameters`] through the cached [`ParamLayout`].
    pub fn flat_parameters(&self) -> Vec<f32> {
        self.layout().flat_parameters()
    }

    /// [`Module::load_flat`] through the cached [`ParamLayout`].
    pub fn load_flat(&self, flat: &[f32]) {
        self.layout().load_flat(flat)
    }

    /// [`Module::flat_gradient`] through the cached [`ParamLayout`].
    pub fn flat_gradient(&self) -> Vec<f32> {
        self.layout().flat_gradient()
    }

    /// [`Module::accumulate_flat_gradient`] through the cached
    /// [`ParamLayout`].
    pub fn accumulate_flat_gradient(&self, flat: &[f32]) {
        self.layout().accumulate_flat_gradient(flat)
    }

    /// All trainable parameters with stable hierarchical names.
    pub fn named_parameters(&self) -> Vec<(String, Tensor)> {
        let mut out = Vec::new();
        self.ts_encoder.named_parameters("ts_encoder", &mut out);
        self.ts_proj.named_parameters("ts_proj", &mut out);
        self.image_encoder
            .named_parameters("image_encoder", &mut out);
        self.img_proj.named_parameters("img_proj", &mut out);
        out
    }

    /// Total scalar parameter count.
    pub fn num_parameters(&self) -> usize {
        self.named_parameters().iter().map(|(_, t)| t.numel()).sum()
    }

    /// Save all parameters as JSON.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        save_state_dict(path, &self.named_parameters())
    }

    /// Load all parameters from JSON (shapes must match).
    pub fn load(&mut self, path: &Path) -> io::Result<()> {
        load_state_dict(path, &self.named_parameters())
    }

    /// Normalize + resample one pool sample to the pre-training length.
    fn prepare(&self, s: &MultiSeries) -> MultiSeries {
        let mut vars = resample_sample(s, self.cfg.pretrain_len);
        z_normalize_sample(&mut vars);
        vars
    }

    /// Multi-source pre-training (paper Fig. 3a; losses Eq. 1).
    ///
    /// `pool` may mix variable counts and lengths — samples are resampled
    /// to `cfg.pretrain_len`, z-normalized, and batched within groups of
    /// equal variable count.
    ///
    /// Training is data-parallel across micro-batches: every optimizer step
    /// averages one round of up to `W` micro-batch gradients. `W` is
    /// resolved by [`parallel::worker_count`] from `pcfg.workers` (then the
    /// `AIMTS_THREADS` environment variable, then available cores). At
    /// `W = 1` each round is one micro-batch computed in-thread on this
    /// model, with augmentations drawn from the run's shared RNG, and no
    /// thread starts. At `W >= 2` the rounds run on a pool of persistent
    /// workers with per-micro-batch augmentation seeds; `W` is then capped
    /// at the micro-batches an epoch can yield, but never below 2. One loop
    /// (`train_epochs`) runs every `W`; only a round's gradient depends on
    /// it.
    ///
    /// Fault tolerance comes in two layers. `pcfg.checkpoint` gives
    /// periodic checkpoints and — when `resume_from` is set — bit-exact
    /// continuation of an interrupted run: identical parameters and loss
    /// curve to the uninterrupted run, at any `W`, provided the seed and
    /// the resolved `W` match. `pcfg.health` arms the self-healing
    /// supervisor: non-finite losses/gradients skip the step, optional
    /// global-norm clipping, automatic rollback to the last good epoch
    /// boundary after too many consecutive anomalies, and worker-panic
    /// containment at `W >= 2` (see [`crate::health`]).
    ///
    /// Errors are typed: [`TrainError::Checkpoint`] for checkpoint I/O or
    /// compatibility failures, [`TrainError::Diverged`] when the rollback
    /// budget is exhausted (the model is left on its last good weights).
    pub fn pretrain(
        &mut self,
        pool: &[MultiSeries],
        pcfg: &PretrainConfig,
    ) -> Result<PretrainReport, TrainError> {
        assert!(pool.len() >= 2, "pre-training needs at least 2 samples");
        let prepared: Vec<MultiSeries> = pool.iter().map(|s| self.prepare(s)).collect();
        let groups = Self::group_by_var_count(&prepared);
        // Buffer arena for the whole run: after the first step the graph's
        // buffer sizes are all pooled, so steady-state steps stop
        // allocating (see `aimts_tensor::arena`).
        let _arena = aimts_tensor::arena::enable();
        // An epoch never yields more micro-batches than this, so more
        // replicas would sit idle. The per-micro-batch-seed path stays at
        // 2 or more, so its checkpoints never pass for those of a `W = 1`
        // run, which continues on the shared RNG stream.
        let max_micro: usize = groups.values().map(|g| g.len().div_ceil(2)).sum();
        let workers = match parallel::worker_count(pcfg.workers) {
            1 => 1,
            w => w.min(max_micro).max(2),
        };
        if workers == 1 {
            return self.train_epochs(pcfg, &prepared, &groups, None);
        }
        // Every task loads the master weights first, so the replicas' own
        // starting weights never matter.
        let replicas: Vec<AimTs> = (0..workers).map(|_| self.replicate()).collect();
        let fault = pcfg.health.fault;
        parallel::with_worker_pool(
            workers,
            |slot, (seed, micro, batch, master): PoolTask| {
                #[expect(
                    clippy::panic,
                    reason = "deliberate fault injection: the resilience suite requires a real worker panic"
                )]
                if fault.forces_panic(micro) {
                    panic!("injected worker panic on micro-batch {micro}");
                }
                let replica = &replicas[slot];
                replica.load_flat(&master);
                let samples: Vec<&MultiSeries> = batch.iter().map(|&i| &prepared[i]).collect();
                replica.microbatch_gradient(&samples, seed)
            },
            |pool| self.train_epochs(pcfg, &prepared, &groups, Some(pool)),
        )
    }

    /// Restore a pre-training checkpoint into `self`/`opt`/`sched` and
    /// validate that it belongs to this run shape (same seed, same worker
    /// topology). Returns the decoded training bookkeeping.
    fn restore_pretrain(
        &mut self,
        path: &Path,
        pcfg: &PretrainConfig,
        expected_workers: u32,
        opt: &mut Adam,
        sched: &mut StepLr,
    ) -> Result<PretrainState, CheckpointError> {
        let ck = aimts_nn::Checkpoint::load(path)?;
        let dec = decode_pretrain_checkpoint(&ck)?;
        if dec.train.base_seed != pcfg.seed {
            return Err(CheckpointError::Incompatible {
                detail: format!(
                    "checkpoint was produced with seed {}, this run uses seed {} \
                     (resume requires the same seed for identical random streams)",
                    dec.train.base_seed, pcfg.seed
                ),
            });
        }
        if dec.train.workers != expected_workers {
            return Err(CheckpointError::Incompatible {
                detail: format!(
                    "checkpoint was produced with workers={}, this run resolves workers={} \
                     (gradient-averaging rounds depend on the worker count)",
                    dec.train.workers, expected_workers
                ),
            });
        }
        if dec.train.epochs_done as usize > pcfg.epochs {
            return Err(CheckpointError::Incompatible {
                detail: format!(
                    "checkpoint has already completed {} epochs but this run asks for {}",
                    dec.train.epochs_done, pcfg.epochs
                ),
            });
        }
        dec.apply_params(self)?;
        opt.restore_state(&dec.adam)
            .map_err(|detail| CheckpointError::Incompatible { detail })?;
        sched
            .restore_state(&dec.scheduler)
            .map_err(|detail| CheckpointError::Incompatible { detail })?;
        Ok(dec.train)
    }

    /// Restore the in-memory last-good checkpoint into `self`/`opt`/`sched`
    /// after the supervisor demanded a rollback. The restore happens
    /// *before* the rollback budget is checked, so even a run that aborts
    /// with [`TrainError::Diverged`] ends on the last good weights. Returns
    /// the restored training bookkeeping.
    fn rollback(
        &mut self,
        last_good: &Checkpoint,
        opt: &mut Adam,
        sched: &mut StepLr,
        mon: &mut HealthMonitor,
        reason: &str,
    ) -> Result<PretrainState, TrainError> {
        let dec = decode_pretrain_checkpoint(last_good)?;
        dec.apply_params(self)?;
        opt.restore_state(&dec.adam)
            .map_err(|detail| CheckpointError::Incompatible { detail })?;
        sched
            .restore_state(&dec.scheduler)
            .map_err(|detail| CheckpointError::Incompatible { detail })?;
        mon.record_rollback(reason)?;
        eprintln!(
            "warning: self-healing rollback to epoch {} ({reason})",
            dec.train.epochs_done
        );
        Ok(dec.train)
    }

    /// Group prepared-sample indices by variable count (constant M per
    /// batch).
    fn group_by_var_count(prepared: &[MultiSeries]) -> BTreeMap<usize, Vec<usize>> {
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, s) in prepared.iter().enumerate() {
            groups.entry(s.len()).or_default().push(i);
        }
        groups
    }

    /// The pre-training loop at every worker count `W`: resume, epochs of
    /// rounds through the step ladder
    /// ([`HealthMonitor::supervised_step`]), rollback, epoch close-out,
    /// checkpoints and the report. `pool` is `None` at `W = 1`.
    ///
    /// Each variable-count group's batches are drawn when the loop reaches
    /// that group. A round runs as soon as `W` micro-batches are pending,
    /// and once more with what is left at the end of the epoch. Only the
    /// round's gradient depends on `W`:
    ///
    /// * `W = 1`: the master model computes it in-thread, drawing the
    ///   augmentations from the shared RNG between the group shuffles, in
    ///   the order the serial goldens pin, and the loss is checked before
    ///   `backward`.
    /// * `W >= 2`: worker slot `i` runs the round's `i`-th micro-batch on
    ///   replica `i`, always on the same thread, so every replica's
    ///   tensors and buffer arena stay there and the only locks a worker
    ///   takes are its own replica's parameter locks (in `load_flat` and
    ///   the gradient export). Augmentations are seeded by
    ///   [`parallel::microbatch_seed`]; the RNG only shuffles. The master
    ///   averages the finite gradients in slot order, so results depend
    ///   only on the seed and `W`, never on thread scheduling. A panicked
    ///   or poisoned micro-batch is dropped and the step degrades to the
    ///   survivors; a round with none is skipped like any other anomalous
    ///   step. The panicking worker thread survives and serves later
    ///   rounds.
    fn train_epochs(
        &mut self,
        pcfg: &PretrainConfig,
        prepared: &[MultiSeries],
        groups: &BTreeMap<usize, Vec<usize>>,
        mut pool: Option<&mut PoolHandle<PoolTask, MicroGrad>>,
    ) -> Result<PretrainReport, TrainError> {
        let workers = pool.as_ref().map_or(1, |p| p.workers());
        let params: Vec<Tensor> = self
            .named_parameters()
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        let mut opt = Adam::new(params.clone(), pcfg.lr);
        let mut sched = StepLr::new(pcfg.lr, pcfg.lr_step, pcfg.lr_gamma);
        let mut rng = StdRng::seed_from_u64(pcfg.seed);
        let mut mon = HealthMonitor::new(pcfg.health.clone());
        let mut st = PretrainState {
            steps: 0,
            epochs_done: 0,
            base_seed: pcfg.seed,
            rng_state: rng.state(),
            micro_counter: 0,
            workers: workers as u32,
            epoch_losses: Vec::with_capacity(pcfg.epochs),
            last_proto: 0.0,
            last_si: 0.0,
        };
        if let Some(path) = &pcfg.checkpoint.resume_from {
            st = self.restore_pretrain(path, pcfg, st.workers, &mut opt, &mut sched)?;
            rng = StdRng::from_state(st.rng_state);
        }
        // In-memory rollback target: exactly what a checkpoint written at
        // this epoch boundary would contain. Held in memory so rollback
        // works even when `checkpoint.dir` is unset.
        let mut last_good =
            build_pretrain_checkpoint(self, &opt.export_state(), &sched.export_state(), &st);
        while st.epochs_done < pcfg.epochs as u64 {
            // `(loss, L_proto, L_SI)` of every micro-batch a step used.
            let mut used: Vec<[f32; 3]> = Vec::new();
            let mut groups_left = groups.values();
            // The current group's batches that are not in a round yet.
            let mut drawn: VecDeque<Vec<usize>> = VecDeque::new();
            let mut rollback = None;
            loop {
                let mut round: Vec<(u64, Vec<usize>)> = Vec::with_capacity(workers);
                while round.len() < workers {
                    if let Some(batch) = drawn.pop_front() {
                        round.push((st.micro_counter, batch));
                        st.micro_counter += 1;
                    } else if let Some(idxs) = groups_left.next() {
                        let batches = batch_indices(idxs.len(), pcfg.batch_size, &mut rng);
                        drawn.extend(batches.iter().map(|b| b.iter().map(|&k| idxs[k]).collect()));
                    } else {
                        break;
                    }
                }
                if round.is_empty() {
                    break;
                }
                let attempt = mon.begin_attempt();
                let computed = match pool.as_deref_mut() {
                    // W = 1: the round's one micro-batch, in-thread.
                    None => {
                        let samples: Vec<&MultiSeries> =
                            round[0].1.iter().map(|&i| &prepared[i]).collect();
                        let (total, lp, lsi) = self.pretrain_step(&samples, &mut rng);
                        RoundGrad {
                            grad: mon
                                .guarded_backward(&opt, &total, attempt)
                                .map(|loss| vec![[loss, lp, lsi]]),
                            panics: 0,
                            poisoned: 0,
                        }
                    }
                    // W >= 2: one micro-batch per worker.
                    Some(pool) => {
                        let master = Arc::new(self.flat_parameters());
                        let tasks = round
                            .into_iter()
                            .map(|(micro, batch)| {
                                let seed =
                                    parallel::microbatch_seed(pcfg.seed, st.epochs_done, micro);
                                (seed, micro, batch, Arc::clone(&master))
                            })
                            .collect();
                        let results = pool.run_round(tasks);
                        // Every worker dropped its snapshot clone before
                        // reporting; reclaim the master buffer for the next
                        // round.
                        if let Ok(buf) = Arc::try_unwrap(master) {
                            aimts_tensor::arena::recycle(buf);
                        }
                        self.average_round(results, &opt, &mon, attempt)
                    }
                };
                match mon.supervised_step(&mut opt, &params, true, computed.grad) {
                    StepOutcome::Stepped(stats) => {
                        st.steps += 1;
                        mon.record_degraded(computed.panics, computed.poisoned);
                        used.extend(stats);
                    }
                    outcome => {
                        mon.record_lost_round(computed.panics);
                        if let StepOutcome::RollBack(reason) = outcome {
                            rollback = Some(reason);
                            break;
                        }
                    }
                }
            }
            if let Some(reason) = rollback {
                st = self.rollback(&last_good, &mut opt, &mut sched, &mut mon, &reason)?;
                // Re-shuffle forward: a fresh deterministic shuffling stream
                // so the replayed epoch does not re-create the exact batch
                // sequence that just poisoned the run.
                rng = StdRng::seed_from_u64(parallel::microbatch_seed(
                    st.rng_state,
                    RESHUFFLE_STREAM,
                    mon.report().rollbacks as u64,
                ));
                continue;
            }
            let [loss, proto, si] = epoch_means(&used);
            st.epoch_losses.push(loss);
            (st.last_proto, st.last_si) = (proto, si);
            mon.end_epoch();
            sched.step(&mut opt);
            st.epochs_done += 1;
            st.rng_state = rng.state();
            last_good =
                build_pretrain_checkpoint(self, &opt.export_state(), &sched.export_state(), &st);
            maybe_write_checkpoint(pcfg, st.epochs_done as usize, &last_good)?;
        }
        Ok(PretrainReport {
            final_loss: st.epoch_losses.last().copied().unwrap_or(f32::NAN),
            epoch_losses: st.epoch_losses,
            steps: st.steps as usize,
            final_proto_loss: st.last_proto,
            final_si_loss: st.last_si,
            workers,
            health: mon.into_report(),
        })
    }

    /// Fold a `W >= 2` round's results into this model's `.grad` slots: the
    /// mean of every gradient whose loss and values are finite. The other
    /// micro-batches are counted as panicked or poisoned.
    fn average_round(
        &self,
        results: Vec<Result<MicroGrad, String>>,
        opt: &Adam,
        mon: &HealthMonitor,
        attempt: u64,
    ) -> RoundGrad {
        let (mut panics, mut poisoned) = (0, 0);
        let (mut stats, mut grads) = (Vec::new(), Vec::new());
        for r in results {
            match r {
                Err(msg) => {
                    eprintln!("warning: pre-training worker panicked: {msg}");
                    panics += 1;
                }
                Ok(mg)
                    if mon.loss_is_bad(mg.loss, attempt)
                        || !aimts_tensor::all_finite(&mg.gradient) =>
                {
                    poisoned += 1;
                }
                Ok(mg) => {
                    stats.push([mg.loss, mg.proto_loss, mg.si_loss]);
                    grads.push(mg.gradient);
                }
            }
        }
        if grads.is_empty() {
            let grad = Err(format!(
                "{panics} worker panics, {poisoned} poisoned gradients"
            ));
            return RoundGrad {
                grad,
                panics,
                poisoned,
            };
        }
        #[expect(
            clippy::expect_used,
            reason = "survivors were filtered to all-finite buffers above"
        )]
        let (mean, excluded) = parallel::all_reduce_mean_guarded(&grads)
            .expect("surviving gradient buffers are all-finite");
        debug_assert_eq!(excluded, 0, "survivors were pre-filtered");
        opt.zero_grad();
        self.accumulate_flat_gradient(&mean);
        // The mean is folded into `.grad` slots and the per-worker buffers
        // are summed; all of them can go back to the pool.
        aimts_tensor::arena::recycle(mean);
        for g in grads {
            aimts_tensor::arena::recycle(g);
        }
        RoundGrad {
            grad: Ok(stats),
            panics,
            poisoned,
        }
    }

    /// Zero all gradients, run one pre-training step on already-prepared
    /// `samples` with a fresh RNG seeded by `rng_seed`, backprop, and export
    /// the flat gradient. The building block of the data-parallel path; also
    /// the seam the determinism tests use to compare serial and threaded
    /// gradient computation.
    pub fn microbatch_gradient(&self, samples: &[&MultiSeries], rng_seed: u64) -> MicroGrad {
        self.layout().zero_grad();
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let (total, proto_loss, si_loss) = self.pretrain_step(samples, &mut rng);
        let loss = total.item();
        total.backward();
        MicroGrad {
            gradient: self.flat_gradient(),
            loss,
            proto_loss,
            si_loss,
        }
    }

    /// One pre-training step on a batch of prepared samples: draw its inputs
    /// from `rng` and build its graph. Returns the total-loss root plus the
    /// `L_proto` / `L_SI` values.
    fn pretrain_step(&self, samples: &[&MultiSeries], rng: &mut StdRng) -> (Tensor, f32, f32) {
        let out = self.step_graph(&self.step_inputs(samples, rng));
        let lp = out.proto.as_ref().map_or(0.0, Tensor::item);
        let ls = out.si.as_ref().map_or(0.0, Tensor::item);
        (out.total, lp, ls)
    }

    /// Draw one step's inputs: every random decision (augmented views,
    /// mixup lambdas) and all CPU-side preprocessing (distances, adaptive
    /// temperatures, chart rasterization, batch stacking) in the exact
    /// order of the historical monolithic step, so the RNG stream is
    /// bit-identical. The returned tensors are pure graph inputs with no
    /// autograd history of interest.
    fn step_inputs(&self, samples: &[&MultiSeries], rng: &mut StdRng) -> StepTensors {
        let cfg = &self.cfg;
        let b = samples.len();
        let g = cfg.g();
        let ab = cfg.ablation;
        let (mut view0, mut view1, mut tau_w, mut tau_c) = (None, None, None, None);
        if ab.inter || ab.intra {
            // --- augmented views ---------------------------------------------
            // Two view sets: views[set][i][k] is a MultiSeries.
            let mut views = [Vec::with_capacity(b), Vec::with_capacity(b)];
            for s in samples {
                for set in &mut views {
                    let per_aug: Vec<MultiSeries> = cfg
                        .bank
                        .iter()
                        .map(|aug| aug.apply_multivariate(s, rng))
                        .collect();
                    set.push(per_aug);
                }
            }
            // Adaptive temperatures from raw-series distances (Eq. 3).
            let flat = |v: &MultiSeries| -> Vec<f32> { v.concat() };
            let mut d_within = vec![0f32; b * g * g];
            let mut d_cross = vec![0f32; b * g * g];
            for i in 0..b {
                let f0: Vec<Vec<f32>> = views[0][i].iter().map(&flat).collect();
                let f1: Vec<Vec<f32>> = views[1][i].iter().map(&flat).collect();
                for j in 0..g {
                    for k in 0..g {
                        d_within[(i * g + j) * g + k] = aimts_augment::euclidean(&f0[j], &f0[k]);
                        d_cross[(i * g + j) * g + k] = aimts_augment::euclidean(&f0[j], &f1[k]);
                    }
                }
            }
            tau_w = Some(Tensor::from_vec(
                losses::adaptive_tau(&d_within, b, g, cfg.tau0, true),
                &[b, g, g],
            ));
            tau_c = Some(Tensor::from_vec(
                losses::adaptive_tau(&d_cross, b, g, cfg.tau0, true),
                &[b, g, g],
            ));
            // Order rows (i, k): each entry is a MultiSeries of equal M/T.
            let stack = |set: &Vec<Vec<MultiSeries>>| -> Tensor {
                let refs: Vec<&MultiSeries> = set.iter().flatten().collect();
                samples_to_tensor(&refs) // [B*G, M, T]
            };
            view0 = Some(stack(&views[0]));
            view1 = Some(stack(&views[1]));
        }
        let (mut img, mut orig, mut lam) = (None, None, None);
        if ab.si_naive || ab.si_mixup {
            let imgs: Vec<Tensor> = samples
                .iter()
                .map(|s| {
                    let img = render_sample(s, &cfg.image);
                    Tensor::from_vec(img.data, &[1, 3, img.height, img.width])
                })
                .collect();
            img = Some(Tensor::concat(&imgs, 0));
            orig = Some(samples_to_tensor(samples));
            if ab.si_mixup {
                lam = Some(Tensor::from_vec(sample_lambdas(b, cfg.gamma, rng), &[b]));
            }
        }
        StepTensors {
            b,
            view0,
            view1,
            tau_w,
            tau_c,
            img,
            orig,
            lam,
        }
    }

    /// The tensor graph of one pre-training step over already-drawn inputs:
    /// no RNG, no CPU preprocessing — exactly the arithmetic of the
    /// historical monolithic step.
    fn step_graph(&self, inp: &StepTensors) -> StepOutputs {
        let cfg = &self.cfg;
        let b = inp.b;
        let g = cfg.g();
        let ab = cfg.ablation;
        let mut total: Option<Tensor> = None;
        let (mut proto_out, mut si_out) = (None, None);

        if ab.inter || ab.intra {
            #[expect(
                clippy::expect_used,
                reason = "step_inputs and step_graph read the same immutable ablation flags"
            )]
            let take = |t: &Option<Tensor>| -> Tensor {
                t.clone()
                    .expect("step_inputs populates every tensor its ablation enables")
            };
            let (tau_w, tau_c) = (take(&inp.tau_w), take(&inp.tau_c));
            // --- encode both view sets ---------------------------------------
            let r = encode_channel_independent(&self.ts_encoder, &take(&inp.view0)); // [B*G, J]
            let rt = encode_channel_independent(&self.ts_encoder, &take(&inp.view1));

            let mut inter_term = None;
            let mut intra_term = None;
            if ab.intra {
                let v = self
                    .ts_proj
                    .forward(&r)
                    .l2_normalize(1)
                    .reshape(&[b, g, cfg.proj_dim]);
                let vt = self
                    .ts_proj
                    .forward(&rt)
                    .l2_normalize(1)
                    .reshape(&[b, g, cfg.proj_dim]);
                intra_term = Some(losses::intra_prototype_loss(&v, &vt, &tau_w, &tau_c));
            }
            if ab.inter {
                // Prototype = P^TS(mean over augmentations of r) (Eq. 2).
                let rbar = r.reshape(&[b, g, cfg.repr_dim]).mean_axis(1, false);
                let rtbar = rt.reshape(&[b, g, cfg.repr_dim]).mean_axis(1, false);
                let z = self.ts_proj.forward(&rbar).l2_normalize(1);
                let zt = self.ts_proj.forward(&rtbar).l2_normalize(1);
                inter_term = Some(losses::inter_prototype_loss(&z, &zt, cfg.tau_inter));
            }
            let proto = match (inter_term, intra_term) {
                (Some(inter), Some(intra)) => losses::proto_loss(&inter, &intra, cfg.alpha),
                (Some(inter), None) => inter,
                (None, Some(intra)) => intra,
                (None, None) => unreachable!(),
            };
            proto_out = Some(proto.clone());
            total = Some(proto);
        }

        if ab.si_naive || ab.si_mixup {
            // --- series-image contrastive ------------------------------------
            #[expect(
                clippy::expect_used,
                reason = "step_inputs and step_graph read the same immutable ablation flags"
            )]
            let take = |t: &Option<Tensor>| -> Tensor {
                t.clone()
                    .expect("step_inputs populates every tensor its ablation enables")
            };
            let u = self
                .img_proj
                .forward(&self.image_encoder.encode(&take(&inp.img)))
                .l2_normalize(1);
            let r_orig = encode_channel_independent(&self.ts_encoder, &take(&inp.orig));
            let v_si = self.ts_proj.forward(&r_orig).l2_normalize(1);

            let naive = losses::series_image_naive(&u, &v_si, cfg.tau_si);
            let si = if ab.si_mixup {
                let mixed = geodesic_mixup_t(&u, &v_si, &take(&inp.lam));
                let mix = losses::series_image_mixup(&u, &v_si, &mixed, cfg.tau_si);
                if ab.si_naive {
                    losses::series_image_loss(&naive, &mix, cfg.beta)
                } else {
                    mix
                }
            } else {
                naive
            };
            si_out = Some(si.clone());
            total = Some(match total {
                Some(t) => t.add(&si),
                None => si,
            });
        }

        #[expect(
            clippy::expect_used,
            reason = "config validation rejects all-disabled loss components before training starts"
        )]
        let total = total.expect("at least one loss component must be enabled");
        StepOutputs {
            total,
            proto: proto_out,
            si: si_out,
        }
    }

    /// Encode downstream samples (no augmentation, no images — Fig. 3b).
    /// All samples must share `M` and `T`; returns `[B, J]`.
    pub fn encode(&self, samples: &[&MultiSeries]) -> Tensor {
        let batch = samples_to_tensor(samples);
        encode_channel_independent(&self.ts_encoder, &batch)
    }

    /// Fine-tune a *copy* of the pre-trained TS encoder plus a fresh MLP
    /// classifier on a downstream dataset (Fig. 3b). The pre-trained model
    /// itself is left untouched so it can be reused across tasks.
    pub fn fine_tune(&self, ds: &Dataset, fcfg: &FineTuneConfig) -> FineTuned {
        FineTuned::train(self, ds, fcfg)
    }

    /// Deep copy with fresh parameter storage: a data-parallel replica.
    /// Shares nothing with the original (see [`Replicate`]).
    pub fn replicate(&self) -> AimTs {
        AimTs {
            cfg: self.cfg.clone(),
            ts_encoder: self.ts_encoder.replicate(),
            ts_proj: self.ts_proj.replicate(),
            image_encoder: self.image_encoder.replicate(),
            img_proj: self.img_proj.replicate(),
            layout: OnceLock::new(),
        }
    }

    /// Clone the TS encoder (architecture + current weights) as a
    /// trainable deep copy (see [`Replicate`]).
    pub(crate) fn clone_ts_encoder(&self) -> TsEncoder {
        self.ts_encoder.replicate()
    }
}

/// Stream tag for the post-rollback re-shuffle (see `AimTs::train_epochs`):
/// mixed with the last-good RNG state and the rollback ordinal via
/// [`parallel::microbatch_seed`] so each replay walks a fresh — but still
/// deterministic — shuffling stream.
const RESHUFFLE_STREAM: u64 = 0x5E1F_4EA1;

/// Epoch means of the `(loss, L_proto, L_SI)` of every micro-batch a step
/// used. Tolerates an epoch whose every step was skipped (no samples →
/// `NaN`, which the report surfaces honestly).
fn epoch_means(used: &[[f32; 3]]) -> [f32; 3] {
    std::array::from_fn(|k| {
        if used.is_empty() {
            f32::NAN
        } else {
            let column: Vec<f64> = used.iter().map(|u| u[k] as f64).collect();
            Summary::of(&column).mean as f32
        }
    })
}

/// Write the periodic checkpoint for the just-finished epoch when the
/// policy's cadence (or the final epoch) says so, then apply retention.
/// The checkpoint bytes are the already-built in-memory last-good state.
fn maybe_write_checkpoint(
    pcfg: &PretrainConfig,
    epochs_done: usize,
    ck: &Checkpoint,
) -> Result<(), CheckpointError> {
    let Some(dir) = &pcfg.checkpoint.dir else {
        return Ok(());
    };
    let cadence_hit = epochs_done.is_multiple_of(pcfg.checkpoint.every_epochs());
    if !cadence_hit && epochs_done != pcfg.epochs {
        return Ok(());
    }
    std::fs::create_dir_all(dir)?;
    ck.save(&checkpoint_path(dir, epochs_done))?;
    prune_checkpoints(dir, pcfg.checkpoint.keep_last)?;
    Ok(())
}

impl Module for AimTs {
    /// Channel-independent encoding of an already-stacked `[B, M, T]` batch
    /// (the tensor-level counterpart of [`AimTs::encode`]).
    fn forward(&self, x: &Tensor) -> Tensor {
        encode_channel_independent(&self.ts_encoder, x)
    }

    fn named_parameters(&self, prefix: &str, out: &mut Vec<(String, Tensor)>) {
        for (name, t) in self.named_parameters() {
            let full = if prefix.is_empty() {
                name
            } else {
                format!("{prefix}.{name}")
            };
            out.push((full, t));
        }
    }
}

impl Replicate for AimTs {
    fn replicate(&self) -> Self {
        AimTs::replicate(self)
    }

    fn freeze(&self) -> Self {
        AimTs {
            cfg: self.cfg.clone(),
            ts_encoder: self.ts_encoder.freeze(),
            ts_proj: self.ts_proj.freeze(),
            image_encoder: self.image_encoder.freeze(),
            img_proj: self.img_proj.freeze(),
            layout: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimts_data::archives::monash_like_pool;

    fn tiny_pool(n: usize) -> Vec<MultiSeries> {
        monash_like_pool(2, 0).into_iter().take(n).collect()
    }

    #[test]
    fn pretrain_smoke_and_loss_decreases() {
        let mut model = AimTs::new(AimTsConfig::tiny(), 3407);
        let pool = tiny_pool(16);
        let report = model
            .pretrain(
                &pool,
                &PretrainConfig {
                    epochs: 3,
                    batch_size: 8,
                    lr: 5e-3,
                    ..Default::default()
                },
            )
            .expect("clean pre-training must succeed");
        assert!(report.final_loss.is_finite());
        assert!(report.health.is_clean(), "{}", report.health);
        assert_eq!(report.health.epoch_grad_norms.len(), 3);
        assert!(report.health.epoch_grad_norms[0].mean.is_finite());
        assert_eq!(report.epoch_losses.len(), 3);
        assert!(
            report.epoch_losses[2] < report.epoch_losses[0],
            "loss should decrease: {:?}",
            report.epoch_losses
        );
    }

    #[test]
    fn pretrain_reports_both_components() {
        let mut model = AimTs::new(AimTsConfig::tiny(), 1);
        let report = model
            .pretrain(
                &tiny_pool(8),
                &PretrainConfig {
                    epochs: 1,
                    batch_size: 4,
                    ..Default::default()
                },
            )
            .expect("clean pre-training must succeed");
        assert!(report.final_proto_loss > 0.0);
        assert!(report.final_si_loss > 0.0);
        assert!(report.steps > 0);
    }

    #[test]
    fn ablation_inter_only_trains() {
        let cfg = AimTsConfig {
            ablation: crate::config::Ablation::inter_only(),
            ..AimTsConfig::tiny()
        };
        let mut model = AimTs::new(cfg, 2);
        let report = model
            .pretrain(
                &tiny_pool(8),
                &PretrainConfig {
                    epochs: 1,
                    batch_size: 4,
                    ..Default::default()
                },
            )
            .expect("clean pre-training must succeed");
        assert!(report.final_si_loss == 0.0);
        assert!(report.final_proto_loss > 0.0);
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("aimts_model_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let model = AimTs::new(AimTsConfig::tiny(), 7);
        model.save(&path).unwrap();
        let mut other = AimTs::new(AimTsConfig::tiny(), 8);
        let before = other.named_parameters()[0].1.to_vec();
        other.load(&path).unwrap();
        let after = other.named_parameters()[0].1.to_vec();
        assert_ne!(before, after);
        assert_eq!(after, model.named_parameters()[0].1.to_vec());
    }

    #[test]
    fn encoder_clone_is_deep() {
        let model = AimTs::new(AimTsConfig::tiny(), 9);
        let cloned = model.clone_ts_encoder();
        let x = Tensor::randn(&[2, 1, 32], 0);
        let a = model.ts_encoder.encode_rows(&x).to_vec();
        let b = cloned.encode_rows(&x).to_vec();
        assert_eq!(a, b);
        // Mutating the clone must not touch the original.
        cloned.parameters()[0].update_data(|d| d.iter_mut().for_each(|v| *v += 1.0));
        let c = model.ts_encoder.encode_rows(&x).to_vec();
        assert_eq!(a, c);
    }

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn core_types_are_send_sync() {
        assert_send_sync::<TsEncoder>();
        assert_send_sync::<ImageEncoder>();
        assert_send_sync::<AimTs>();
    }

    #[test]
    fn replicate_is_deep_and_matches() {
        let model = AimTs::new(AimTsConfig::tiny(), 10);
        let replica = model.replicate();
        let pool = tiny_pool(8);
        let prepared: Vec<MultiSeries> = pool.iter().map(|s| model.prepare(s)).collect();
        // Pick two samples sharing a variable count.
        let groups = AimTs::group_by_var_count(&prepared);
        let idxs = groups.values().max_by_key(|g| g.len()).unwrap();
        let refs: Vec<&MultiSeries> = idxs[..2].iter().map(|&i| &prepared[i]).collect();
        assert_eq!(model.encode(&refs).to_vec(), replica.encode(&refs).to_vec());
        // Training the replica leaves the master untouched.
        let before = model.flat_parameters();
        replica.microbatch_gradient(&refs, 0);
        assert_eq!(model.flat_parameters(), before);
        assert!(model
            .named_parameters()
            .iter()
            .all(|(_, p)| p.grad().is_none()));
    }

    #[test]
    fn replica_gradients_match_master_bit_for_bit() {
        let model = AimTs::new(AimTsConfig::tiny(), 42);
        let pool = tiny_pool(16);
        let prepared: Vec<MultiSeries> = pool.iter().map(|s| model.prepare(s)).collect();
        // Micro-batches must share a variable count; pair up the largest group.
        let groups = AimTs::group_by_var_count(&prepared);
        let idxs = groups.values().max_by_key(|g| g.len()).unwrap();
        assert!(idxs.len() >= 8, "need 4 pairs of equal-M samples");
        let mbs: Vec<(u64, Vec<usize>)> = idxs
            .chunks(2)
            .take(4)
            .enumerate()
            .map(|(i, pair)| (11 * (i as u64 + 1), pair.to_vec()))
            .collect();
        let gradient = |m: &AimTs, (seed, idx): &(u64, Vec<usize>)| -> Vec<u32> {
            let s: Vec<&MultiSeries> = idx.iter().map(|&i| &prepared[i]).collect();
            let g = m.microbatch_gradient(&s, *seed).gradient;
            g.iter().map(|v| v.to_bits()).collect()
        };
        // Reference: each micro-batch gradient on the master model.
        let master: Vec<Vec<u32>> = mbs.iter().map(|mb| gradient(&model, mb)).collect();
        // The same micro-batches as one round of a four-worker pool, each
        // on its own replica and thread.
        let replicas: Vec<AimTs> = (0..4).map(|_| model.replicate()).collect();
        let weights = model.flat_parameters();
        let pooled = crate::parallel::with_worker_pool(
            4,
            |slot, mb: (u64, Vec<usize>)| {
                replicas[slot].load_flat(&weights);
                gradient(&replicas[slot], &mb)
            },
            |pool| pool.run_round(mbs.clone()),
        );
        for (k, (want, got)) in master.iter().zip(pooled).enumerate() {
            assert!(
                got.as_ref() == Ok(want),
                "micro-batch {k}: replica gradient differs from the master's"
            );
        }
    }

    #[test]
    fn parallel_pretrain_is_deterministic_and_learns() {
        let run = || {
            let mut model = AimTs::new(AimTsConfig::tiny(), 3407);
            model
                .pretrain(
                    &tiny_pool(16),
                    &PretrainConfig {
                        epochs: 2,
                        batch_size: 4,
                        workers: 2,
                        ..Default::default()
                    },
                )
                .expect("clean pre-training must succeed")
        };
        let a = run();
        let b = run();
        assert_eq!(a.workers, 2);
        assert_eq!(
            a.epoch_losses, b.epoch_losses,
            "same seed+workers must agree"
        );
        assert!(a.final_loss.is_finite());
        assert!(a.steps > 0);
        assert!(a.health.is_clean(), "{}", a.health);
    }

    #[test]
    fn num_parameters_positive_and_stable() {
        let m = AimTs::new(AimTsConfig::tiny(), 0);
        assert!(m.num_parameters() > 1000);
        assert_eq!(
            m.num_parameters(),
            AimTs::new(AimTsConfig::tiny(), 5).num_parameters()
        );
    }
}
