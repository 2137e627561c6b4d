//! Versioned model registry with atomic hot-swap and rollback.
//!
//! The active model lives behind `RwLock<Arc<ModelVersion>>`: readers clone
//! the `Arc` (a few ns under the read lock) and then run inference with no
//! lock held, so a swap never blocks in-flight batches — they simply finish
//! on the version they started with. Superseded versions are kept (bounded)
//! for `ModelRegistry::rollback`.
//!
//! Loading a snapshot that fails to parse leaves the active version
//! untouched — failed loads roll back for free because the swap only
//! happens after a fully validated [`IamEstimator::load_framed`] (length
//! cap and checksum first, then the payload).
//!
//! Both locks recover from poisoning rather than propagating the panic to
//! every later caller. Unlike the query cache there is nothing to discard:
//! each critical section only ever swaps or pushes fully formed
//! `Arc<ModelVersion>` values, so the protected state is valid even if the
//! holder panicked mid-section. Recovery is therefore take-and-continue;
//! occurrences are counted on the service's lock-recovery counter, which
//! the query cache shares.

use crate::error::ServeError;
use iam_core::IamEstimator;
use iam_obs::Counter;
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// How many superseded versions [`ModelRegistry`] retains for rollback.
pub(crate) const HISTORY_LIMIT: usize = 4;

/// One immutable, shareable trained model plus its registry metadata.
pub struct ModelVersion {
    /// Monotonically increasing version id (also tags cache entries).
    pub id: u64,
    /// Operator-supplied label (e.g. a training-run name).
    pub label: String,
    /// The trained estimator; only `&self` inference is used.
    pub model: IamEstimator,
}

/// Thread-safe registry of model versions. All methods take `&self`.
pub(crate) struct ModelRegistry {
    active: RwLock<Arc<ModelVersion>>,
    history: Mutex<Vec<Arc<ModelVersion>>>,
    next_id: AtomicU64,
    recoveries: Arc<Counter>,
}

impl ModelRegistry {
    /// Create a registry serving `model` as version 1, counting poisoned
    /// lock recoveries on `recoveries`.
    pub fn new(model: IamEstimator, label: &str, recoveries: Arc<Counter>) -> Self {
        let v = Arc::new(ModelVersion { id: 1, label: label.to_string(), model });
        ModelRegistry {
            active: RwLock::new(v),
            history: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(2),
            recoveries,
        }
    }

    // The three lock helpers below recover from poisoning with
    // `into_inner`: the guarded values (an Arc swap target and a Vec of
    // Arcs) are valid at every program point inside the critical sections,
    // so the contents can be used as-is.

    fn read_active(&self) -> RwLockReadGuard<'_, Arc<ModelVersion>> {
        self.active.read().unwrap_or_else(|poisoned| {
            self.active.clear_poison();
            self.recoveries.inc();
            poisoned.into_inner()
        })
    }

    fn write_active(&self) -> RwLockWriteGuard<'_, Arc<ModelVersion>> {
        self.active.write().unwrap_or_else(|poisoned| {
            self.active.clear_poison();
            self.recoveries.inc();
            poisoned.into_inner()
        })
    }

    fn lock_history(&self) -> MutexGuard<'_, Vec<Arc<ModelVersion>>> {
        self.history.lock().unwrap_or_else(|poisoned| {
            self.history.clear_poison();
            self.recoveries.inc();
            poisoned.into_inner()
        })
    }

    /// The currently active version (cheap: clones an `Arc`).
    pub fn current(&self) -> Arc<ModelVersion> {
        self.read_active().clone()
    }

    /// Atomically activate `model` as a new version; the previous version
    /// moves to the rollback history. Returns the new version id.
    pub fn install(&self, model: IamEstimator, label: &str) -> u64 {
        let id = self.next_id.fetch_add(1, Relaxed);
        let v = Arc::new(ModelVersion { id, label: label.to_string(), model });
        let old = {
            let mut active = self.write_active();
            std::mem::replace(&mut *active, v)
        };
        let mut h = self.lock_history();
        h.push(old);
        if h.len() > HISTORY_LIMIT {
            h.remove(0);
        }
        id
    }

    /// Parse a framed snapshot ([`IamEstimator::save_framed`]) and
    /// hot-swap it in. On a parse failure the active version is untouched
    /// (the error carries the reason).
    pub fn load<R: Read>(&self, r: &mut R, label: &str) -> Result<u64, ServeError> {
        let model = IamEstimator::load_framed(r).map_err(|e| ServeError::Load(e.to_string()))?;
        Ok(self.install(model, label))
    }

    /// Reactivate the most recently superseded version (the current one
    /// moves into the history, so two rollbacks in a row swap back and
    /// forth). The reactivated version keeps its original id — its old
    /// cache entries are valid again, because it is byte-identical.
    pub(crate) fn rollback(&self) -> Result<u64, ServeError> {
        let mut h = self.lock_history();
        let prev = h.pop().ok_or(ServeError::NoPreviousVersion)?;
        let id = prev.id;
        let old = {
            let mut active = self.write_active();
            std::mem::replace(&mut *active, prev)
        };
        h.push(old);
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iam_core::IamConfig;
    use iam_data::synth::Dataset;

    fn tiny_model(seed: u64) -> IamEstimator {
        let table = Dataset::Twi.generate(600, seed);
        let cfg = IamConfig {
            components: 4,
            hidden: vec![16, 16],
            embed_dim: 4,
            epochs: 1,
            samples: 50,
            seed,
            ..IamConfig::default()
        };
        IamEstimator::fit(&table, cfg)
    }

    #[test]
    fn install_and_rollback_cycle() {
        let reg = ModelRegistry::new(tiny_model(1), "v1", Arc::default());
        assert_eq!(reg.current().id, 1);
        assert_eq!(reg.current().label, "v1");

        let id2 = reg.install(tiny_model(2), "v2");
        assert_eq!(id2, 2);
        assert_eq!(reg.current().id, 2);
        assert_eq!(reg.lock_history().len(), 1);

        // rollback reactivates v1 with its original id
        assert_eq!(reg.rollback().unwrap(), 1);
        assert_eq!(reg.current().label, "v1");
        // and rolling back again swaps forward to v2
        assert_eq!(reg.rollback().unwrap(), 2);
        assert_eq!(reg.current().label, "v2");
    }

    #[test]
    fn rollback_without_history_errors() {
        let reg = ModelRegistry::new(tiny_model(3), "only", Arc::default());
        assert_eq!(reg.rollback(), Err(ServeError::NoPreviousVersion));
        assert_eq!(reg.current().id, 1, "failed rollback must not disturb the active model");
    }

    #[test]
    fn failed_load_keeps_active_version() {
        let reg = ModelRegistry::new(tiny_model(4), "v1", Arc::default());
        let err = reg.load(&mut &b"not a snapshot"[..], "bad").unwrap_err();
        assert!(matches!(err, ServeError::Load(_)));
        assert_eq!(reg.current().id, 1);
        assert_eq!(reg.lock_history().len(), 0, "no history entry for a failed load");
    }

    #[test]
    fn successful_load_swaps() {
        let m = tiny_model(5);
        let mut buf = Vec::new();
        m.save_framed(&mut buf).unwrap();
        let reg = ModelRegistry::new(tiny_model(6), "v1", Arc::default());
        let id = reg.load(&mut buf.as_slice(), "loaded").unwrap();
        assert_eq!(id, 2);
        assert_eq!(reg.current().label, "loaded");
    }

    #[test]
    fn poisoned_locks_recover_with_state_intact() {
        let reg = ModelRegistry::new(tiny_model(9), "v1", Arc::default());
        reg.install(tiny_model(10), "v2");

        // poison both the active RwLock and the history Mutex
        let res = std::thread::scope(|s| {
            s.spawn(|| {
                let _active = reg.active.write().unwrap();
                let _history = reg.history.lock().unwrap();
                panic!("poison the registry locks");
            })
            .join()
        });
        assert!(res.is_err(), "helper thread should have panicked");
        assert!(reg.active.is_poisoned());
        assert!(reg.history.is_poisoned());

        // every operation still works, and nothing was lost: the guarded
        // values are whole Arc swaps, valid even mid-panic
        assert_eq!(reg.current().id, 2);
        assert_eq!(reg.lock_history().len(), 1);
        assert_eq!(reg.rollback().unwrap(), 1);
        assert_eq!(reg.current().label, "v1");
        assert!(!reg.active.is_poisoned());
        assert!(!reg.history.is_poisoned());
        assert!(reg.recoveries.get() >= 2, "both locks should have recovered");
    }

    #[test]
    fn history_is_bounded() {
        let reg = ModelRegistry::new(tiny_model(7), "v1", Arc::default());
        for i in 0..(HISTORY_LIMIT + 3) {
            reg.install(tiny_model(8), &format!("v{}", i + 2));
        }
        assert_eq!(reg.lock_history().len(), HISTORY_LIMIT);
    }
}
