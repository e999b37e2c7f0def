//! Trace-and-compile graph executor.
//!
//! Pre-training replays the same step graph thousands of times: same ops,
//! same shapes, same topological order. Instead of re-deriving the autograd
//! graph (closure boxing, `Arc` churn, buffer sizing) on every step, this
//! module runs **one** eager step under a tracer that records every op into
//! a [`CompiledPlan`] — a flat `Vec` of instructions over the traced
//! tensors' own hot buffers — and then replays that plan with zero
//! allocation and no graph bookkeeping.
//!
//! ## How replay stays bitwise-identical to eager
//!
//! * **Forward**: each instruction stores the producing op's *kernel
//!   thunk* — a closure calling the exact same private kernel the eager op
//!   used — plus handles to the op's parent tensors. Replay recomputes the
//!   value into an arena buffer and swaps it into the traced output
//!   tensor, so downstream instructions (and retained backward closures)
//!   observe fresh values through their existing handles. Same kernels,
//!   same operand order ⇒ identical bits.
//! * **Backward**: the plan pre-computes the exact post-order
//!   [`crate::autograd`] would walk and keeps the traced graph alive, so
//!   replay drives the *original* backward closures over a dense slot
//!   schedule that mirrors `run_backward`'s accumulation semantics
//!   verbatim (same closure calls, same `simd::add_assign` ordering).
//! * **Saved forward values**: an op whose backward reads a forward value
//!   besides its parents and output (GELU keeps its tanh term) records
//!   that buffer with its instruction. The op's thunk rewrites it on every
//!   replay, and so does any fused kernel that elides the op; otherwise the
//!   backward would read the traced step's values.
//!
//! ## Fusion
//!
//! Four chain patterns common in the AimTS step dispatch onto dedicated
//! fused kernels (still bitwise-identical — see each kernel's notes):
//! `conv → relu/gelu`, `matmul → add(bias)` (the Linear layer),
//! `matmul → mul_scalar` (the InfoNCE `/τ` scaling), and the five-op
//! `l2_normalize` chain `square → sum_axis → add_scalar → sqrt → div`.
//!
//! ## Safety / fallback semantics
//!
//! * Tracing is per-thread and re-entrancy is rejected
//!   ([`TraceError::Nested`]).
//! * A plan is only valid on the thread that traced it (hot buffers are
//!   unsynchronized); [`CompiledPlan::run`] checks and returns
//!   [`PlanError::ThreadMismatch`] instead of touching anything.
//! * A plan records the worker topology it was traced under;
//!   [`CompiledPlan::check_topology`] lets callers reject replaying a plan
//!   in a run shape it was not traced for.
//! * An op without a trace hook is detected at trace finish
//!   ([`TraceError::UntracedOps`]) by walking the backward order — callers
//!   fall back to eager execution rather than replaying a hole.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::thread::{self, ThreadId};

use crate::arena;
use crate::autograd;
use crate::ops::unary::{gelu_replay, relu_scalar};
use crate::simd;
use crate::tensor::Tensor;

/// Opcode of a recorded instruction, used by the fusion pass to recognize
/// chains. `Custom` covers out-of-crate recordings via [`record_custom`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    Add,
    Sub,
    Mul,
    Div,
    Maximum,
    Minimum,
    AddScalar,
    MulScalar,
    Affine,
    Exp,
    Ln,
    Sqrt,
    Square,
    Abs,
    Powf,
    Relu,
    LeakyRelu,
    Gelu,
    Sigmoid,
    Tanh,
    Clamp,
    Matmul,
    Conv1d,
    Conv2d,
    SumAll,
    SumAxis,
    MaxAxis,
    MaxPool1d,
    MaxPool2d,
    SoftmaxLast,
    LogSoftmaxLast,
    NllLoss,
    Reshape,
    Permute,
    Concat,
    SliceAxis,
    IndexSelect,
    BroadcastTo,
    Custom(&'static str),
}

/// Scalar attributes the fusion pass needs to introspect. Kernels capture
/// their own attributes inside the thunk; this is pattern-matching only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Attr {
    None,
    Scalar(f32),
    Axis { axis: usize, keep: bool },
}

/// Forward recompute kernel: reads the parents' current buffers, returns
/// the output value. Must be arithmetic-identical to the eager op.
type Thunk = Box<dyn Fn(&[Tensor]) -> Vec<f32> + Send + Sync>;

/// Activation of a fused `conv → act` instruction.
enum Act {
    Relu,
    /// `tanh` is the GELU op's saved tanh buffer, present when its backward
    /// reads one; the fused kernel rewrites it as the op's thunk would.
    Gelu {
        tanh: Option<Tensor>,
    },
}

/// How an instruction executes: plain single-op, or one of the fused
/// chain kernels.
enum Kind {
    Single,
    /// `conv → act`: the conv output is written (its value is read by both
    /// backward closures), then the activation is applied element-wise into
    /// the activation output's buffer — one dispatch saved per conv.
    ConvAct {
        act_out: Tensor,
        act: Act,
    },
    /// `matmul → mul_scalar`: scale the matmul buffer in place and write it
    /// to the scaled output only. The matmul slot is skipped — its sole
    /// consumer was the scaling op, and neither backward closure reads the
    /// unscaled product.
    MatmulScale {
        scale_out: Tensor,
        s: f32,
    },
    /// `matmul → add(bias)`: the Linear-layer pattern. The product buffer
    /// gets the 1-D bias added row-wise in place (the same `x + y`
    /// additions the eager broadcast add performs, in the same row-major
    /// order) and lands in the sum slot only. The product slot is skipped —
    /// its sole consumer was the add, and neither backward closure reads
    /// the raw product (the add's backward only reduces `gout`; the
    /// matmul's reads its parents).
    MatmulBias {
        add_out: Tensor,
        bias: Tensor,
    },
    /// The `l2_normalize` chain. Writes the norm slot (the `sqrt` output —
    /// its backward reads its own value) and the final quotient; skips the
    /// square/sum/add_scalar intermediates, whose backward closures read
    /// only parents or nothing.
    L2Norm {
        axis: usize,
        eps: f32,
        norm_out: Tensor,
        div_out: Tensor,
    },
}

/// One recorded step of the forward plan.
struct Instr {
    op: Op,
    attr: Attr,
    out: Tensor,
    parents: Vec<Tensor>,
    /// A forward value the op's backward reads besides its parents and
    /// output (GELU's tanh). `run` rewrites it; a fused kernel that elides
    /// the op must rewrite it too.
    saved: Option<Tensor>,
    run: Thunk,
    kind: Kind,
}

/// One step of the precomputed backward schedule: the traced node plus,
/// for each parent, its dense slot index in the schedule (`None` for
/// untracked parents — exactly the parents `run_backward` skips).
struct BackStep {
    node: Tensor,
    parent_slots: Vec<Option<usize>>,
}

/// Trace failure: the caller should fall back to eager execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceError {
    /// `trace` was called while a trace was already active on this thread.
    Nested,
    /// The build closure returned no outputs.
    NoOutputs,
    /// `missing` graph nodes reachable from the outputs had no recorded
    /// instruction (an op without a trace hook) — the plan would replay a
    /// stale value for them.
    UntracedOps { missing: usize },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Nested => write!(f, "trace() is not re-entrant on one thread"),
            TraceError::NoOutputs => write!(f, "trace build closure returned no outputs"),
            TraceError::UntracedOps { missing } => write!(
                f,
                "{missing} graph node(s) have no trace hook; plan would replay stale values"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// Replay failure: the plan is not valid in the current execution context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// The plan was traced on a different thread; its hot buffers must not
    /// be touched from here.
    ThreadMismatch,
    /// The plan was traced under a different worker topology.
    TopologyMismatch { planned: usize, current: usize },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::ThreadMismatch => {
                write!(
                    f,
                    "compiled plan replayed on a different thread than it was traced on"
                )
            }
            PlanError::TopologyMismatch { planned, current } => write!(
                f,
                "compiled plan was traced under {planned} worker(s) but the run uses {current}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

struct TraceState {
    instrs: Vec<Instr>,
    /// Ids whose values replay will refresh: declared inputs plus every
    /// recorded output. An untracked op is recorded iff some parent is
    /// live or tracked — constants stay constants.
    live: HashSet<u64>,
    /// Ids of recorded outputs (for the completeness check).
    recorded: HashSet<u64>,
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Option<TraceState>> = const { RefCell::new(None) };
}

/// Fast tracing check — a thread-local `Cell` read, cheap enough for every
/// op site on the eager path.
#[inline]
pub(crate) fn is_tracing() -> bool {
    ACTIVE.with(|c| c.get())
}

/// Record one op into the active trace (no-op when not tracing). Called by
/// every op site in `ops/*` right after constructing the output tensor.
/// The closure is only boxed when a trace is active.
#[inline]
pub(crate) fn record<F>(out: &Tensor, op: Op, attr: Attr, parents: &[&Tensor], f: F)
where
    F: Fn(&[Tensor]) -> Vec<f32> + Send + Sync + 'static,
{
    if !is_tracing() {
        return;
    }
    record_boxed(out, op, attr, parents, None, Box::new(f));
}

/// [`record`] for an op whose backward also reads `saved`, a forward value
/// that is neither a parent nor the output. `f` must rewrite `saved` along
/// with returning the output, so a replayed backward reads fresh values.
#[inline]
pub(crate) fn record_saving<F>(
    out: &Tensor,
    op: Op,
    parents: &[&Tensor],
    saved: Option<Tensor>,
    f: F,
) where
    F: Fn(&[Tensor]) -> Vec<f32> + Send + Sync + 'static,
{
    if !is_tracing() {
        return;
    }
    record_boxed(out, op, Attr::None, parents, saved, Box::new(f));
}

fn record_boxed(
    out: &Tensor,
    op: Op,
    attr: Attr,
    parents: &[&Tensor],
    saved: Option<Tensor>,
    run: Thunk,
) {
    TRACER.with(|t| {
        let mut slot = t.borrow_mut();
        let Some(st) = slot.as_mut() else { return };
        // Tracked outputs always replay. Untracked outputs replay only when
        // they depend on something that changes between replays (an input
        // or an earlier recorded value); pure constants are left alone.
        let relevant = out.is_tracked()
            || parents
                .iter()
                .any(|p| p.is_tracked() || st.live.contains(&p.id()));
        if !relevant {
            return;
        }
        st.live.insert(out.id());
        st.recorded.insert(out.id());
        st.instrs.push(Instr {
            op,
            attr,
            out: out.clone(),
            parents: parents.iter().map(|&p| p.clone()).collect(),
            saved,
            run,
            kind: Kind::Single,
        });
    });
}

/// Public recording hook for computations performed *outside* this crate's
/// op set (e.g. CPU-side coefficient computations that read traced tensor
/// values). `f` must recompute `out`'s buffer from the parents' current
/// values, arithmetic-identically to how it was first produced.
pub fn record_custom<F>(out: &Tensor, name: &'static str, parents: &[&Tensor], f: F)
where
    F: Fn(&[Tensor]) -> Vec<f32> + Send + Sync + 'static,
{
    record(out, Op::Custom(name), Attr::None, parents, f);
}

/// Resets the tracer even if the build closure panics, so a failed trace
/// can never leave the thread stuck in recording mode.
struct TraceGuard;

impl Drop for TraceGuard {
    fn drop(&mut self) {
        ACTIVE.with(|c| c.set(false));
        TRACER.with(|t| {
            t.borrow_mut().take();
        });
    }
}

/// Run `build` eagerly under the tracer and compile the recorded ops into
/// a replayable plan.
///
/// * `inputs` — tensors whose buffers the caller will overwrite before
///   each replay (`set_data`); ops depending on them are re-executed even
///   when untracked.
/// * `topology` — the worker topology this plan belongs to (recorded for
///   [`CompiledPlan::check_topology`]).
/// * `build` — the step builder; returns the plan outputs, with the loss
///   root first. Because the trace *is* a full eager step, a shape change
///   simply means the caller traces a new plan for the new shapes.
pub fn trace(
    inputs: &[Tensor],
    topology: usize,
    build: impl FnOnce() -> Vec<Tensor>,
) -> Result<CompiledPlan, TraceError> {
    if is_tracing() {
        return Err(TraceError::Nested);
    }
    TRACER.with(|t| {
        *t.borrow_mut() = Some(TraceState {
            instrs: Vec::new(),
            live: inputs.iter().map(|i| i.id()).collect(),
            recorded: HashSet::new(),
        });
    });
    ACTIVE.with(|c| c.set(true));
    let guard = TraceGuard;
    let outputs = build();
    let st = TRACER.with(|t| t.borrow_mut().take());
    drop(guard);
    let Some(st) = st else {
        // Unreachable: the guard is the only other taker and drops after us.
        return Err(TraceError::NoOutputs);
    };
    finish(st, inputs, outputs, topology)
}

fn finish(
    st: TraceState,
    inputs: &[Tensor],
    outputs: Vec<Tensor>,
    topology: usize,
) -> Result<CompiledPlan, TraceError> {
    if outputs.is_empty() {
        return Err(TraceError::NoOutputs);
    }
    // Completeness: every graph node reachable from an output must have a
    // recorded instruction, otherwise replay would reuse stale values.
    let mut missing = 0usize;
    let mut seen: HashSet<u64> = HashSet::new();
    for out in &outputs {
        for node in autograd::backward_order(out) {
            if seen.insert(node.id()) && node.graph().is_some() && !st.recorded.contains(&node.id())
            {
                missing += 1;
            }
        }
    }
    if missing > 0 {
        return Err(TraceError::UntracedOps { missing });
    }

    // Dense backward schedule over the root's exact post-order.
    let order = autograd::backward_order(&outputs[0]);
    let index: HashMap<u64, usize> = order.iter().enumerate().map(|(i, n)| (n.id(), i)).collect();
    let sched: Vec<BackStep> = order
        .into_iter()
        .map(|node| {
            let parent_slots = node
                .op_parents()
                .iter()
                .map(|p| {
                    if p.is_tracked() {
                        index.get(&p.id()).copied()
                    } else {
                        None
                    }
                })
                .collect();
            BackStep { node, parent_slots }
        })
        .collect();

    let out_ids: HashSet<u64> = outputs.iter().map(|o| o.id()).collect();
    let (instrs, fused) = fuse(st.instrs, &out_ids);

    Ok(CompiledPlan {
        instrs,
        sched,
        outputs,
        inputs: inputs.to_vec(),
        thread: thread::current().id(),
        topology,
        fused,
    })
}

/// Pattern-match the four fused chains over the recorded instruction
/// list. Every elided intermediate must be single-consumer and not a plan
/// output, and its backward closure must not read the skipped slot (each
/// `Kind` variant documents why its skips are safe).
fn fuse(mut instrs: Vec<Instr>, plan_outputs: &HashSet<u64>) -> (Vec<Instr>, usize) {
    let mut consumers: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, ins) in instrs.iter().enumerate() {
        for p in &ins.parents {
            consumers.entry(p.id()).or_default().push(i);
        }
    }
    // The id's sole consumer among recorded instrs, provided it is not a
    // plan output (outputs must keep their slots written).
    let sole_consumer = |id: u64| -> Option<usize> {
        if plan_outputs.contains(&id) {
            return None;
        }
        match consumers.get(&id).map(Vec::as_slice) {
            Some([j]) => Some(*j),
            _ => None,
        }
    };

    let mut consumed: HashSet<usize> = HashSet::new();
    let mut fused = 0usize;
    for i in 0..instrs.len() {
        if consumed.contains(&i) {
            continue;
        }
        match instrs[i].op {
            Op::Conv1d | Op::Conv2d => {
                let Some(j) = sole_consumer(instrs[i].out.id()) else {
                    continue;
                };
                if consumed.contains(&j) || instrs[j].parents.len() != 1 {
                    continue;
                }
                let act = match instrs[j].op {
                    Op::Relu => Act::Relu,
                    Op::Gelu => Act::Gelu {
                        tanh: instrs[j].saved.clone(),
                    },
                    _ => continue,
                };
                instrs[i].kind = Kind::ConvAct {
                    act_out: instrs[j].out.clone(),
                    act,
                };
                consumed.insert(j);
                fused += 1;
            }
            Op::Matmul => {
                let Some(j) = sole_consumer(instrs[i].out.id()) else {
                    continue;
                };
                if consumed.contains(&j) {
                    continue;
                }
                match instrs[j].op {
                    Op::MulScalar if instrs[j].parents.len() == 1 => {
                        let Attr::Scalar(s) = instrs[j].attr else {
                            continue;
                        };
                        instrs[i].kind = Kind::MatmulScale {
                            scale_out: instrs[j].out.clone(),
                            s,
                        };
                    }
                    // `product + bias` with a 1-D bias over the columns of
                    // a 2-D product — the Linear layer's bias add.
                    Op::Add
                        if instrs[j].parents.len() == 2
                            && instrs[j].parents[0].id() == instrs[i].out.id()
                            && instrs[i].out.ndim() == 2
                            && instrs[j].parents[1].ndim() == 1
                            && instrs[j].parents[1].numel() == instrs[i].out.shape()[1] =>
                    {
                        instrs[i].kind = Kind::MatmulBias {
                            add_out: instrs[j].out.clone(),
                            bias: instrs[j].parents[1].clone(),
                        };
                    }
                    _ => continue,
                }
                consumed.insert(j);
                fused += 1;
            }
            Op::Square => {
                // square → sum_axis(keep) → add_scalar(eps) → sqrt → div,
                // with div = x / sqrt_out for the same x the square read.
                let chain = || -> Option<(usize, usize, usize, usize, usize, f32)> {
                    let j_sum = sole_consumer(instrs[i].out.id())?;
                    let Attr::Axis { axis, keep: true } = instrs[j_sum].attr else {
                        return None;
                    };
                    if instrs[j_sum].op != Op::SumAxis {
                        return None;
                    }
                    let j_add = sole_consumer(instrs[j_sum].out.id())?;
                    if instrs[j_add].op != Op::AddScalar {
                        return None;
                    }
                    let Attr::Scalar(eps) = instrs[j_add].attr else {
                        return None;
                    };
                    let j_sqrt = sole_consumer(instrs[j_add].out.id())?;
                    if instrs[j_sqrt].op != Op::Sqrt {
                        return None;
                    }
                    let j_div = sole_consumer(instrs[j_sqrt].out.id())?;
                    if instrs[j_div].op != Op::Div
                        || instrs[j_div].parents.len() != 2
                        || instrs[j_div].parents[0].id() != instrs[i].parents[0].id()
                        || instrs[j_div].parents[1].id() != instrs[j_sqrt].out.id()
                    {
                        return None;
                    }
                    for j in [j_sum, j_add, j_sqrt, j_div] {
                        if consumed.contains(&j) {
                            return None;
                        }
                    }
                    Some((j_sum, j_add, j_sqrt, j_div, axis, eps))
                };
                let Some((j_sum, j_add, j_sqrt, j_div, axis, eps)) = chain() else {
                    continue;
                };
                instrs[i].kind = Kind::L2Norm {
                    axis,
                    eps,
                    norm_out: instrs[j_sqrt].out.clone(),
                    div_out: instrs[j_div].out.clone(),
                };
                consumed.extend([j_sum, j_add, j_sqrt, j_div]);
                fused += 1;
            }
            _ => {}
        }
    }
    let instrs: Vec<Instr> = instrs
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !consumed.contains(i))
        .map(|(_, ins)| ins)
        .collect();
    (instrs, fused)
}

/// A compiled, replayable step: flat forward instruction list + dense
/// backward schedule over the retained traced graph. Replaying is
/// bitwise-identical to re-running the eager step on the same input data.
pub struct CompiledPlan {
    instrs: Vec<Instr>,
    sched: Vec<BackStep>,
    outputs: Vec<Tensor>,
    inputs: Vec<Tensor>,
    thread: ThreadId,
    topology: usize,
    fused: usize,
}

impl CompiledPlan {
    /// Replay the forward plan in place. The caller has already refreshed
    /// the input tensors' buffers (`set_data`); afterwards every traced
    /// tensor — in particular [`CompiledPlan::output`] — holds the value
    /// the eager step would have produced.
    pub fn run(&self) -> Result<(), PlanError> {
        if thread::current().id() != self.thread {
            return Err(PlanError::ThreadMismatch);
        }
        for ins in &self.instrs {
            match &ins.kind {
                Kind::Single => {
                    let buf = (ins.run)(&ins.parents);
                    ins.out.swap_data(buf);
                }
                Kind::ConvAct { act_out, act } => {
                    let buf = (ins.run)(&ins.parents);
                    ins.out.swap_data(buf);
                    let src = ins.out.data();
                    match act {
                        Act::Relu => act_out.update_data(|dst| {
                            for (d, &x) in dst.iter_mut().zip(src.iter()) {
                                *d = relu_scalar(x);
                            }
                        }),
                        Act::Gelu { tanh } => act_out.swap_data(gelu_replay(&src, tanh.as_ref())),
                    }
                }
                Kind::MatmulScale { scale_out, s } => {
                    let mut buf = (ins.run)(&ins.parents);
                    // Same multiply as the eager `mul_scalar` map.
                    simd::scale_assign(&mut buf, *s);
                    scale_out.swap_data(buf);
                }
                Kind::MatmulBias { add_out, bias } => {
                    let mut buf = (ins.run)(&ins.parents);
                    let bd = bias.data();
                    // The eager broadcast add materializes `product` and
                    // `bias` expansions and computes `x + y` element by
                    // element in row-major order; adding the bias row-wise
                    // in place performs the identical additions.
                    for row in buf.chunks_exact_mut(bd.len()) {
                        for (v, &b) in row.iter_mut().zip(bd.iter()) {
                            *v += b;
                        }
                    }
                    drop(bd);
                    add_out.swap_data(buf);
                }
                Kind::L2Norm {
                    axis,
                    eps,
                    norm_out,
                    div_out,
                } => {
                    let x = &ins.parents[0];
                    let shape = x.shape();
                    let outer: usize = shape[..*axis].iter().product();
                    let ax = shape[*axis];
                    let inner: usize = shape[*axis + 1..].iter().product();
                    let xd = x.data();
                    // Accumulate x² in the exact (outer, axis, inner) loop
                    // order `sum_axis` uses — same additions, same order.
                    let mut nrm = arena::zeroed(outer * inner);
                    for o in 0..outer {
                        let obase = o * inner;
                        for a in 0..ax {
                            let base = (o * ax + a) * inner;
                            for k in 0..inner {
                                let v = xd[base + k];
                                nrm[obase + k] += v * v;
                            }
                        }
                    }
                    for v in nrm.iter_mut() {
                        *v = (*v + eps).sqrt();
                    }
                    // x / broadcast(norm): the keep-dim norm broadcasts to
                    // x's shape with stride 0 along `axis`, so element
                    // (o, a, k) divides by nrm[o * inner + k] — the same
                    // pairing the eager broadcast expansion produces.
                    let mut y = arena::take(xd.len());
                    for o in 0..outer {
                        let obase = o * inner;
                        for a in 0..ax {
                            let base = (o * ax + a) * inner;
                            for k in 0..inner {
                                y.push(xd[base + k] / nrm[obase + k]);
                            }
                        }
                    }
                    drop(xd);
                    norm_out.swap_data(nrm);
                    div_out.swap_data(y);
                }
            }
        }
        Ok(())
    }

    /// Replay the backward sweep from the (scalar) root output, driving the
    /// retained backward closures over the precomputed dense schedule.
    /// Accumulates into leaf variables' `.grad` exactly like
    /// `Tensor::backward` on the eager graph.
    pub fn backward(&self) {
        assert_eq!(
            self.outputs[0].numel(),
            1,
            "plan backward requires a scalar root output"
        );
        let n = self.sched.len();
        let mut slots: Vec<Option<Vec<f32>>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        slots[n - 1] = Some(arena::copy_of(&[1.0]));
        for i in (0..n).rev() {
            let Some(gout) = slots[i].take() else {
                continue;
            };
            let step = &self.sched[i];
            if step.node.is_variable() {
                step.node.accumulate_grad(&gout);
            }
            if let Some(graph) = step.node.graph() {
                let parent_grads = (graph.backward)(&step.node, &gout);
                for (ps, pg) in step.parent_slots.iter().zip(parent_grads) {
                    let Some(pg) = pg else {
                        continue;
                    };
                    let Some(ps) = ps else {
                        // Gradient for an untracked parent: nothing to
                        // accumulate into, but the buffer is pool-backed.
                        arena::recycle(pg);
                        continue;
                    };
                    match slots[*ps].as_mut() {
                        Some(acc) => {
                            simd::add_assign(acc, &pg);
                            arena::recycle(pg);
                        }
                        None => slots[*ps] = Some(pg),
                    }
                }
            }
            arena::recycle(gout);
        }
        for g in slots.into_iter().flatten() {
            arena::recycle(g);
        }
    }

    /// Reject replaying this plan under a different worker topology.
    pub fn check_topology(&self, workers: usize) -> Result<(), PlanError> {
        if workers == self.topology {
            Ok(())
        } else {
            Err(PlanError::TopologyMismatch {
                planned: self.topology,
                current: workers,
            })
        }
    }

    /// Whether the current thread is the one that traced this plan.
    pub fn on_trace_thread(&self) -> bool {
        thread::current().id() == self.thread
    }

    /// The `i`-th output tensor handle (0 is the loss root).
    pub fn output(&self, i: usize) -> &Tensor {
        &self.outputs[i]
    }

    /// All output handles, root first.
    pub fn outputs(&self) -> &[Tensor] {
        &self.outputs
    }

    /// The declared input handles, in `trace` order.
    pub fn inputs(&self) -> &[Tensor] {
        &self.inputs
    }

    /// Number of forward instructions after fusion.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True when the plan records no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Number of fused chains the compiler formed.
    pub fn fused_count(&self) -> usize {
        self.fused
    }

    /// The worker topology recorded at trace time.
    pub fn topology(&self) -> usize {
        self.topology
    }
}

impl fmt::Debug for CompiledPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CompiledPlan({} instrs, {} fused, {} backward steps, topology {})",
            self.instrs.len(),
            self.fused,
            self.sched.len(),
            self.topology
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data_bits()
    }

    #[test]
    fn trace_replay_matches_eager_bitwise() {
        let w = Tensor::from_vec(vec![0.5, -1.5, 2.0, 0.25], &[2, 2]).requires_grad();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let step = |x: &Tensor, w: &Tensor| -> Vec<Tensor> {
            let h = x.matmul(w).gelu();
            let loss = h.square().sum_all();
            vec![loss, h]
        };
        let plan = trace(std::slice::from_ref(&x), 1, || step(&x, &w)).expect("trace");

        // Fresh data, replayed through the plan.
        let x2 = vec![-0.5, 4.0, 0.125, -3.0];
        x.set_data(&x2);
        plan.run().expect("replay");
        plan.backward();
        let plan_loss = bits(plan.output(0));
        let plan_h = bits(plan.output(1));
        let plan_grad: Vec<u32> = w
            .grad()
            .expect("grad")
            .iter()
            .map(|g| g.to_bits())
            .collect();

        // Eager reference on identical data.
        let w2 = Tensor::from_vec(w.to_vec(), &[2, 2]).requires_grad();
        let xe = Tensor::from_vec(x2, &[2, 2]);
        let outs = step(&xe, &w2);
        outs[0].backward();
        assert_eq!(plan_loss, bits(&outs[0]));
        assert_eq!(plan_h, bits(&outs[1]));
        let eager_grad: Vec<u32> = w2
            .grad()
            .expect("grad")
            .iter()
            .map(|g| g.to_bits())
            .collect();
        assert_eq!(plan_grad, eager_grad);
    }

    #[test]
    fn l2_normalize_chain_fuses_and_matches() {
        let x = Tensor::from_vec(vec![3.0, -4.0, 1.0, 2.0, -2.0, 0.5], &[2, 3]);
        let plan = trace(std::slice::from_ref(&x), 1, || {
            vec![x.l2_normalize(1).sum_all()]
        })
        .expect("trace");
        assert!(plan.fused_count() >= 1, "l2_normalize chain should fuse");
        let fresh = vec![0.1, 7.0, -0.3, 2.5, 2.5, -9.0];
        x.set_data(&fresh);
        plan.run().expect("replay");
        let eager = Tensor::from_vec(fresh, &[2, 3]).l2_normalize(1).sum_all();
        assert_eq!(bits(plan.output(0)), bits(&eager));
    }

    #[test]
    fn matmul_scale_chain_fuses_and_matches() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![0.5, -0.5, 1.5, 2.5], &[2, 2]);
        let plan = trace(&[a.clone(), b.clone()], 1, || {
            vec![a.matmul(&b).div_scalar(0.2).sum_all()]
        })
        .expect("trace");
        assert!(plan.fused_count() >= 1, "matmul→scale chain should fuse");
        a.set_data(&[9.0, -1.0, 0.25, 3.0]);
        plan.run().expect("replay");
        let ae = Tensor::from_vec(vec![9.0, -1.0, 0.25, 3.0], &[2, 2]);
        let eager = ae.matmul(&b).div_scalar(0.2).sum_all();
        assert_eq!(bits(plan.output(0)), bits(&eager));
    }

    #[test]
    fn matmul_bias_chain_fuses_and_matches() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let w = Tensor::from_vec(vec![0.5, -0.5, 1.5, 2.5], &[2, 2]).requires_grad();
        let b = Tensor::from_vec(vec![0.25, -0.75], &[2]).requires_grad();
        let plan = trace(std::slice::from_ref(&x), 1, || {
            vec![x.matmul(&w).add(&b).relu().sum_all()]
        })
        .expect("trace");
        assert!(plan.fused_count() >= 1, "matmul→bias chain should fuse");
        let fresh = vec![-2.0, 0.5, 4.0, 1.0, -1.0, 3.0];
        x.set_data(&fresh);
        plan.run().expect("replay");
        plan.backward();
        let pw: Vec<u32> = w
            .grad()
            .expect("w grad")
            .iter()
            .map(|g| g.to_bits())
            .collect();
        let pb: Vec<u32> = b
            .grad()
            .expect("b grad")
            .iter()
            .map(|g| g.to_bits())
            .collect();
        let loss = bits(plan.output(0));

        let xe = Tensor::from_vec(fresh, &[3, 2]);
        let we = Tensor::from_vec(w.to_vec(), &[2, 2]).requires_grad();
        let be = Tensor::from_vec(b.to_vec(), &[2]).requires_grad();
        let eager = xe.matmul(&we).add(&be).relu().sum_all();
        eager.backward();
        assert_eq!(loss, bits(&eager));
        let ew: Vec<u32> = we
            .grad()
            .expect("w grad")
            .iter()
            .map(|g| g.to_bits())
            .collect();
        let eb: Vec<u32> = be
            .grad()
            .expect("b grad")
            .iter()
            .map(|g| g.to_bits())
            .collect();
        assert_eq!(pw, ew);
        assert_eq!(pb, eb);
    }

    #[test]
    fn nested_trace_is_rejected() {
        let x = Tensor::ones(&[2]);
        let result = trace(std::slice::from_ref(&x), 1, || {
            let inner = trace(std::slice::from_ref(&x), 1, || vec![x.add(&x)]);
            assert_eq!(inner.err(), Some(TraceError::Nested));
            vec![x.add(&x)]
        });
        assert!(
            result.is_ok(),
            "outer trace survives the rejected inner one"
        );
        assert!(!is_tracing());
    }

    #[test]
    fn unhooked_op_is_detected() {
        let x = Tensor::ones(&[2]).requires_grad();
        let result = trace(&[], 1, || {
            // A hand-built node with no recorded instruction stands in for
            // an op that forgot its trace hook.
            let rogue = Tensor::from_op(
                vec![2.0, 2.0],
                &[2],
                vec![x.clone()],
                Box::new(|_, gout| vec![Some(gout.to_vec())]),
            );
            vec![rogue.sum_all()]
        });
        assert_eq!(result.err(), Some(TraceError::UntracedOps { missing: 1 }));
    }

    #[test]
    fn topology_and_thread_checks() {
        let x = Tensor::ones(&[2]);
        let plan = trace(std::slice::from_ref(&x), 4, || vec![x.add(&x).sum_all()]).expect("trace");
        assert!(plan.check_topology(4).is_ok());
        assert_eq!(
            plan.check_topology(1).err(),
            Some(PlanError::TopologyMismatch {
                planned: 4,
                current: 1
            })
        );
        let moved = std::thread::spawn(move || plan.run().err())
            .join()
            .expect("join");
        assert_eq!(moved, Some(PlanError::ThreadMismatch));
    }

    #[test]
    fn replay_steady_state_hits_arena() {
        let _scope = arena::enable();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let w = Tensor::from_vec(vec![0.1; 4], &[2, 2]).requires_grad();
        let plan = trace(std::slice::from_ref(&x), 1, || {
            vec![x.matmul(&w).gelu().square().sum_all()]
        })
        .expect("trace");
        // Warm up, then the pool must serve every replay buffer.
        for _ in 0..3 {
            plan.run().expect("replay");
            plan.backward();
            w.zero_grad();
        }
        let before = arena::stats();
        for _ in 0..10 {
            plan.run().expect("replay");
            plan.backward();
            w.zero_grad();
        }
        let after = arena::stats();
        assert_eq!(
            after.misses, before.misses,
            "steady-state replay must not miss the arena"
        );
    }
}
