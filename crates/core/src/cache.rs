//! Concurrent cache of nominal measurements.
//!
//! Nominal responses `R(T)` depend only on the configuration and the
//! parameter vector — not on the fault — so one cache is shared across
//! the whole (multi-threaded) generation run. With 55 faults probing
//! overlapping parameter regions this roughly halves simulator work.
//!
//! The map is split into a fixed array of lock-sharded segments keyed
//! by the key's hash: thousand-fault campaigns fan their faults out
//! across every core, and every cell consults the nominal cache —
//! a single `RwLock<HashMap>` serializes exactly the hottest moment
//! (the warm-cache read storm right after the first tests complete).
//! Sixteen shards make those reads effectively contention-free while
//! keeping the type a drop-in replacement.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::config::Measurement;
use crate::CoreError;

/// Number of lock shards. A power of two so the shard pick is a mask;
/// comfortably above any realistic worker count's collision rate.
const SHARDS: usize = 16;

/// Cache key: configuration id plus the exact bit patterns of the
/// parameter vector (optimizers re-probe identical points across faults;
/// no quantization is needed beyond exactness).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    config_id: usize,
    param_bits: Vec<u64>,
}

impl Key {
    fn new(config_id: usize, params: &[f64]) -> Self {
        Key { config_id, param_bits: params.iter().map(|p| p.to_bits()).collect() }
    }

    /// Shard index of this key: a cheap FNV-style fold of the exact
    /// parameter bits. Shard *selection* only needs to spread load, so
    /// it must not pay a second full `SipHash` pass on top of the one
    /// the shard's `HashMap` performs anyway.
    fn shard(&self) -> usize {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = (self.config_id as u64) ^ 0xcbf2_9ce4_8422_2325;
        for bits in &self.param_bits {
            h = (h ^ bits).wrapping_mul(FNV_PRIME);
        }
        // Top bits have the best mixing after the final multiply.
        ((h >> 56) as usize) & (SHARDS - 1)
    }
}

/// Thread-safe, lock-sharded map from `(configuration, parameters)` to
/// the nominal [`Measurement`].
#[derive(Debug)]
pub struct NominalCache {
    shards: [RwLock<HashMap<Key, Arc<Measurement>>>; SHARDS],
}

impl Default for NominalCache {
    fn default() -> Self {
        NominalCache { shards: std::array::from_fn(|_| RwLock::new(HashMap::new())) }
    }
}

impl NominalCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        NominalCache::default()
    }

    /// Returns the cached measurement or computes and stores it.
    ///
    /// Concurrent callers may race to compute the same entry; the first
    /// stored value wins and later duplicates are discarded (the compute
    /// function must therefore be deterministic, which simulator runs
    /// are).
    ///
    /// # Errors
    ///
    /// Propagates the compute function's error without caching it.
    pub fn get_or_insert<F>(
        &self,
        config_id: usize,
        params: &[f64],
        compute: F,
    ) -> Result<Arc<Measurement>, CoreError>
    where
        F: FnOnce() -> Result<Measurement, CoreError>,
    {
        let key = Key::new(config_id, params);
        let shard = &self.shards[key.shard()];
        if let Some(hit) = shard.read().get(&key) {
            return Ok(Arc::clone(hit));
        }
        let value = Arc::new(compute()?);
        let mut guard = shard.write();
        let entry = guard.entry(key).or_insert_with(|| Arc::clone(&value));
        Ok(Arc::clone(entry))
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Drops all entries.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(v: f64) -> Result<Measurement, CoreError> {
        Ok(Measurement::scalar(v))
    }

    #[test]
    fn caches_by_config_and_params() {
        let cache = NominalCache::new();
        let a = cache.get_or_insert(1, &[0.5], || m(10.0)).unwrap();
        let b = cache.get_or_insert(1, &[0.5], || panic!("must not recompute")).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // Different params or config id miss.
        cache.get_or_insert(1, &[0.6], || m(11.0)).unwrap();
        cache.get_or_insert(2, &[0.5], || m(12.0)).unwrap();
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = NominalCache::new();
        let r = cache.get_or_insert(1, &[1.0], || {
            Err(CoreError::InvalidOptions { reason: "boom".into() })
        });
        assert!(r.is_err());
        assert!(cache.is_empty());
        // A later success at the same key works.
        cache.get_or_insert(1, &[1.0], || m(5.0)).unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn negative_zero_and_zero_are_distinct_keys() {
        // Bit-exact keying: -0.0 and 0.0 differ. This is deliberate —
        // optimizers produce exact repeats, not near-misses.
        let cache = NominalCache::new();
        cache.get_or_insert(1, &[0.0], || m(1.0)).unwrap();
        cache.get_or_insert(1, &[-0.0], || m(2.0)).unwrap();
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn clear_empties() {
        let cache = NominalCache::new();
        cache.get_or_insert(1, &[1.0], || m(1.0)).unwrap();
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn cache_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NominalCache>();
    }
}
