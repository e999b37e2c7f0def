//! Versioned multi-model registry with hot atomic swap.
//!
//! The registry holds any number of *named slots* (requests route by
//! model name; `None` routes to [`DEFAULT_MODEL`]). Each slot holds
//! exactly one *current* [`ModelVersion`] behind an `RwLock<Arc<_>>`
//! (ArcSwap-style): readers take a shared lock just long enough to clone
//! the `Arc` — a pointer copy — and then execute entirely against their
//! own immutable handle. A swap validates the incoming bundle
//! *completely* before taking the write lock, so the flip itself is O(1)
//! and a defective bundle can never dislodge a healthy model: validation
//! errors surface as typed [`ServeError::Checkpoint`] values while the
//! old version keeps serving, and batches already holding the old `Arc`
//! finish on it untouched. Requests naming a slot that does not exist
//! get a typed [`ServeError::ModelNotFound`], never a panic.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use aimts::infer::InferenceModel;
use aimts::{Executor, FineTuned};
use aimts_data::MultiSeries;

use crate::ServeError;

/// The slot requests route to when they do not name a model.
pub const DEFAULT_MODEL: &str = "default";

/// A pre-classify hook installed on every model this registry freezes
/// (the chaos suite's poison-isolation seam; `None` in production).
pub type InferHook = Arc<dyn Fn(&[&MultiSeries]) + Send + Sync>;

/// One immutable, generation-stamped serving model.
pub struct ModelVersion {
    /// The slot this version serves under.
    pub name: String,
    /// Monotone per-slot swap counter: 1 for the slot's boot model, +1
    /// per successful swap of that slot.
    pub generation: u64,
    /// Where the model came from (bundle path or an in-process label).
    pub source: String,
    /// The frozen, lock-free classifier.
    pub model: InferenceModel,
}

/// One named slot: its current version and its generation counter.
struct Slot {
    current: RwLock<Arc<ModelVersion>>,
    generation: AtomicU64,
}

/// The registry: named slots, each atomically replaceable.
pub struct ModelRegistry {
    slots: RwLock<BTreeMap<String, Arc<Slot>>>,
    hook: Option<InferHook>,
}

fn read_lock<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn write_lock<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl ModelRegistry {
    /// An empty registry (no slots yet; every request is `ModelNotFound`
    /// until a model is registered).
    pub fn empty() -> Self {
        ModelRegistry {
            slots: RwLock::new(BTreeMap::new()),
            hook: None,
        }
    }

    /// Boot the registry from an in-process fine-tuned model installed
    /// into the [`DEFAULT_MODEL`] slot (generation 1). `_executor` has no
    /// effect (see [`Executor`]).
    pub fn from_tuned(tuned: &FineTuned, _executor: Executor, source: &str) -> Self {
        let reg = Self::empty();
        reg.register_tuned(DEFAULT_MODEL, tuned, source);
        reg
    }

    /// Boot the registry from a serving bundle on disk into the
    /// [`DEFAULT_MODEL`] slot (generation 1).
    pub fn from_bundle(path: &Path) -> Result<Self, ServeError> {
        let reg = Self::empty();
        reg.register_bundle(DEFAULT_MODEL, path)?;
        Ok(reg)
    }

    /// Install a pre-classify hook applied to every model frozen from
    /// now on (chaos test seam). Call before registering models.
    pub fn with_infer_hook(mut self, hook: InferHook) -> Self {
        self.hook = Some(hook);
        self
    }

    /// The current version of the [`DEFAULT_MODEL`] slot. Panics if the
    /// registry was built [`empty`](ModelRegistry::empty) and nothing was
    /// registered — use [`current_named`](ModelRegistry::current_named)
    /// for a typed error instead.
    pub fn current(&self) -> Arc<ModelVersion> {
        match self.current_named(None) {
            Ok(v) => v,
            Err(_) => panic!("registry has no `{DEFAULT_MODEL}` slot"),
        }
    }

    /// The current version of the named slot (`None` = default), or a
    /// typed [`ServeError::ModelNotFound`].
    pub fn current_named(&self, name: Option<&str>) -> Result<Arc<ModelVersion>, ServeError> {
        let name = name.unwrap_or(DEFAULT_MODEL);
        let slot = {
            let slots = read_lock(&self.slots);
            slots.get(name).map(Arc::clone)
        };
        match slot {
            Some(slot) => Ok(Arc::clone(&read_lock(&slot.current))),
            None => Err(ServeError::ModelNotFound(name.to_string())),
        }
    }

    /// Whether the named slot (`None` = default) exists.
    pub fn contains(&self, name: Option<&str>) -> bool {
        read_lock(&self.slots).contains_key(name.unwrap_or(DEFAULT_MODEL))
    }

    /// Generation of the default slot's current version (0 if absent).
    pub fn generation(&self) -> u64 {
        self.generation_named(None)
    }

    /// Generation of the named slot's current version (0 if absent).
    pub fn generation_named(&self, name: Option<&str>) -> u64 {
        let slots = read_lock(&self.slots);
        slots
            .get(name.unwrap_or(DEFAULT_MODEL))
            .map_or(0, |s| s.generation.load(Ordering::Acquire))
    }

    /// `(name, generation, source)` for every slot, in name order.
    pub fn models(&self) -> Vec<(String, u64, String)> {
        // Snapshot the slot handles first so the map lock is released
        // before any per-slot lock is taken (no nested guards).
        let handles: Vec<(String, Arc<Slot>)> = {
            let slots = read_lock(&self.slots);
            slots
                .iter()
                .map(|(name, slot)| (name.clone(), Arc::clone(slot)))
                .collect()
        };
        handles
            .into_iter()
            .map(|(name, slot)| {
                let v = read_lock(&slot.current);
                (name, v.generation, v.source.clone())
            })
            .collect()
    }

    /// Hot-swap the [`DEFAULT_MODEL`] slot to the bundle at `path`.
    ///
    /// The bundle is loaded, checksum-verified, and frozen *before* the
    /// write lock is taken; any defect returns a typed error and leaves
    /// the current version untouched. On success the slot's new
    /// generation number is returned and subsequent reads observe the
    /// new model; batches that already hold the old `Arc` finish on it.
    pub fn swap_from_bundle(&self, path: &Path) -> Result<u64, ServeError> {
        self.register_bundle(DEFAULT_MODEL, path)
    }

    /// Hot-swap the default slot to an in-process fine-tuned model.
    pub fn swap_tuned(&self, tuned: &FineTuned, source: &str) -> u64 {
        self.register_tuned(DEFAULT_MODEL, tuned, source)
    }

    /// Register or hot-swap the named slot from a bundle on disk. The
    /// slot is created at generation 1 if absent.
    pub fn register_bundle(&self, name: &str, path: &Path) -> Result<u64, ServeError> {
        let tuned = FineTuned::load_bundle(path)?;
        Ok(self.install(name, self.freeze(&tuned), &path.display().to_string()))
    }

    /// Register or hot-swap the named slot from an in-process model.
    pub fn register_tuned(&self, name: &str, tuned: &FineTuned, source: &str) -> u64 {
        self.install(name, self.freeze(tuned), source)
    }

    fn freeze(&self, tuned: &FineTuned) -> InferenceModel {
        let model = tuned.freeze();
        match &self.hook {
            Some(h) => model.with_pre_classify_hook(Arc::clone(h)),
            None => model,
        }
    }

    fn install(&self, name: &str, model: InferenceModel, source: &str) -> u64 {
        // Existing slot: clone its handle under the map's read lock, then
        // flip the version pointer — readers of other slots never stall.
        let existing = {
            let slots = read_lock(&self.slots);
            slots.get(name).map(Arc::clone)
        };
        let version = |generation: u64| {
            Arc::new(ModelVersion {
                name: name.to_string(),
                generation,
                source: source.to_string(),
                model,
            })
        };
        match existing {
            Some(slot) => {
                let generation = slot.generation.fetch_add(1, Ordering::AcqRel) + 1;
                *write_lock(&slot.current) = version(generation);
                generation
            }
            None => {
                // New slot: build it fully formed before insertion so no
                // reader can ever observe a placeholder. A racing install
                // of the same new name is resolved under the write lock.
                let mut slots = write_lock(&self.slots);
                match slots.get(name) {
                    Some(slot) => {
                        let generation = slot.generation.fetch_add(1, Ordering::AcqRel) + 1;
                        *write_lock(&slot.current) = version(generation);
                        generation
                    }
                    None => {
                        slots.insert(
                            name.to_string(),
                            Arc::new(Slot {
                                current: RwLock::new(version(1)),
                                generation: AtomicU64::new(1),
                            }),
                        );
                        1
                    }
                }
            }
        }
    }
}
