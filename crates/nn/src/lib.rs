//! # aimts-nn
//!
//! Neural-network building blocks on top of [`aimts_tensor`]: a [`Module`]
//! trait, the layers needed by the AimTS encoders (linear, 1-D/2-D
//! convolution, batch/layer norm, dropout), weight initialization,
//! optimizers (SGD, [`Adam`]) with the paper's StepLR schedule, and
//! JSON checkpointing.
//!
//! ```
//! use aimts_nn::{Linear, Module, Adam, Optimizer};
//! use aimts_tensor::Tensor;
//!
//! let layer = Linear::new(4, 2, true, 0);
//! let x = Tensor::randn(&[8, 4], 1);
//! let y = layer.forward(&x);
//! assert_eq!(y.shape(), &[8, 2]);
//!
//! let mut opt = Adam::new(layer.parameters(), 1e-2);
//! y.square().mean_all().backward();
//! opt.step();
//! opt.zero_grad();
//! ```

// Library code must propagate errors, not panic: checkpoint load paths
// promise "loads never panic". A panic that cannot happen carries an
// `#[expect]` with the reason; tests are exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![cfg_attr(
    not(test),
    warn(
        clippy::float_cmp,
        clippy::float_cmp_const,
        clippy::let_underscore_must_use
    )
)]

mod checkpoint;
mod init;
mod layers;
mod module;
mod optim;
mod scheduler;

pub use checkpoint::{
    apply_named_tensors, apply_state_dict, atomic_write, atomic_write_failing_after, crc32,
    decode_adam_state, decode_named_tensors, decode_scheduler_state, encode_adam_state,
    encode_named_tensors, encode_scheduler_state, layout, load_state_dict, save_state_dict,
    sections, state_dict_of, Checkpoint, CheckpointError, SectionReader, SectionSpan,
    SectionWriter, StateDict, TensorEntry, TensorState, FORMAT_VERSION, HEADER_LEN, MAGIC,
};
pub use init::{kaiming_conv1d, kaiming_conv2d, kaiming_linear};
pub use layers::{
    Activation, BatchNorm1d, Conv1d, Conv2d, Dropout, LayerNorm, Linear, Mlp, Sequential,
};
pub use module::{AnyModule, Module, ParamLayout, Replicate};
pub use optim::{clip_grad_norm, grad_norm, Adam, AdamState, Optimizer, Sgd};
pub use scheduler::{CosineLr, SchedulerState, StepLr};
