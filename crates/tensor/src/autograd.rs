//! Reverse-mode autodiff engine: topological sweep + grad-mode toggling.
//!
//! Grad mode is a *per-thread* toggle: a worker thread can run its own
//! `no_grad` scope without affecting graphs being recorded elsewhere. The
//! sweep itself only touches the root's own ancestor graph, so separate
//! graphs can run `backward` concurrently on different threads.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};

use crate::arena;
use crate::simd;
use crate::tensor::Tensor;

thread_local! {
    static GRAD_ENABLED: Cell<bool> = const { Cell::new(true) };
}

/// Whether operations currently record the autograd graph.
pub fn is_grad_enabled() -> bool {
    GRAD_ENABLED.with(|c| c.get())
}

/// RAII guard that disables gradient tracking until dropped.
pub struct NoGradGuard {
    prev: bool,
}

impl Drop for NoGradGuard {
    fn drop(&mut self) {
        GRAD_ENABLED.with(|c| c.set(self.prev));
    }
}

/// Run `f` with gradient tracking disabled (inference mode).
///
/// ```
/// use aimts_tensor::{no_grad, Tensor};
/// let a = Tensor::ones(&[2]).requires_grad();
/// let out = no_grad(|| a.mul(&a));
/// assert!(!out.is_tracked());
/// ```
pub fn no_grad<R>(f: impl FnOnce() -> R) -> R {
    let _guard = push_no_grad();
    f()
}

/// Explicit guard variant of [`no_grad`] for scopes spanning statements.
pub fn push_no_grad() -> NoGradGuard {
    let prev = GRAD_ENABLED.with(|c| {
        let p = c.get();
        c.set(false);
        p
    });
    NoGradGuard { prev }
}

/// Topological (post-)order over the tracked ancestors of `root`: leaves
/// first, `root` last. `run_backward` sweeps it in reverse.
fn backward_order(root: &Tensor) -> Vec<Tensor> {
    // Iterative DFS post-order: children (parents in graph terms) first.
    let mut order: Vec<Tensor> = Vec::new();
    let mut visited: HashSet<u64> = HashSet::new();
    let mut stack: Vec<(Tensor, usize)> = vec![(root.clone(), 0)];
    while let Some((node, pi)) = stack.pop() {
        if pi == 0 && !visited.insert(node.inner.id) {
            continue;
        }
        let parents = node.op_parents();
        let mut advanced = false;
        for (j, p) in parents.iter().enumerate().skip(pi) {
            if p.is_tracked() && !visited.contains(&p.inner.id) {
                stack.push((node.clone(), j + 1));
                stack.push((p.clone(), 0));
                advanced = true;
                break;
            }
        }
        if !advanced {
            order.push(node);
        }
    }
    order
}

/// Reverse sweep. Builds a topological order over tracked ancestors of
/// `root`, then propagates `seed` backwards, accumulating into leaf
/// variables' `.grad`.
pub(crate) fn run_backward(root: &Tensor, seed: &[f32]) {
    if !root.is_tracked() {
        return;
    }
    let order = backward_order(root);
    // `order` is post-order: leaves first, root last → walk reversed.
    // Flowing gradient buffers come from (and return to) the thread-local
    // arena, so steady-state backward sweeps allocate nothing.
    let mut grads: HashMap<u64, Vec<f32>> = HashMap::new();
    grads.insert(root.inner.id, arena::copy_of(seed));
    for node in order.iter().rev() {
        let Some(gout) = grads.remove(&node.inner.id) else {
            continue;
        };
        if node.inner.is_variable {
            node.accumulate_grad(&gout);
        }
        if let Some(graph) = node.graph() {
            let parent_grads = (graph.backward)(node, &gout);
            debug_assert_eq!(parent_grads.len(), graph.parents.len());
            for (p, pg) in graph.parents.iter().zip(parent_grads) {
                let Some(pg) = pg else {
                    continue;
                };
                if !p.is_tracked() {
                    // No grad slot for this parent, but the buffer is
                    // pool-backed — return it instead of dropping it.
                    arena::recycle(pg);
                    continue;
                }
                debug_assert_eq!(pg.len(), p.numel(), "parent grad length mismatch");
                match grads.get_mut(&p.inner.id) {
                    Some(acc) => {
                        simd::add_assign(acc, &pg);
                        arena::recycle(pg);
                    }
                    None => {
                        grads.insert(p.inner.id, pg);
                    }
                }
            }
        }
        arena::recycle(gout);
    }
    for (_, g) in grads.drain() {
        arena::recycle(g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn no_grad_disables_tracking() {
        let a = Tensor::ones(&[2]).requires_grad();
        assert!(a.add(&a).is_tracked());
        let out = no_grad(|| a.add(&a));
        assert!(!out.is_tracked());
        assert!(is_grad_enabled());
    }

    #[test]
    fn no_grad_nests() {
        no_grad(|| {
            assert!(!is_grad_enabled());
            no_grad(|| assert!(!is_grad_enabled()));
            assert!(!is_grad_enabled());
        });
        assert!(is_grad_enabled());
    }

    #[test]
    fn diamond_graph_accumulates_both_paths() {
        // y = a*a + a*a -> dy/da = 4a
        let a = Tensor::from_vec(vec![3.0], &[1]).requires_grad();
        let sq = a.mul(&a);
        let y = sq.add(&sq).sum_all();
        y.backward();
        assert_eq!(a.grad().unwrap(), vec![12.0]);
    }

    #[test]
    fn grad_accumulates_across_backward_calls() {
        let a = Tensor::from_vec(vec![2.0], &[1]).requires_grad();
        a.mul(&a).sum_all().backward();
        a.mul(&a).sum_all().backward();
        assert_eq!(a.grad().unwrap(), vec![8.0]);
        a.zero_grad();
        assert!(a.grad().is_none());
    }

    #[test]
    fn shared_subgraph_reused_twice() {
        // z = (a+b) * (a+b); dz/da = 2(a+b)
        let a = Tensor::from_vec(vec![1.0], &[1]).requires_grad();
        let b = Tensor::from_vec(vec![2.0], &[1]).requires_grad();
        let s = a.add(&b);
        s.mul(&s).sum_all().backward();
        assert_eq!(a.grad().unwrap(), vec![6.0]);
        assert_eq!(b.grad().unwrap(), vec![6.0]);
    }
}
