//! The daemon's two caches.
//!
//! * [`ResultCache`] — content-addressed: canonical request digest →
//!   the exact response bytes served for it. A hit replays the stored
//!   bytes, so hit and miss responses are byte-identical by
//!   construction.
//! * [`PlanCache`] — process-wide lift of the per-`Circuit` plan
//!   sharing: canonical deck digest → a compiled [`Circuit`] whose
//!   `StampPlan` (with the sparse templates, orderings and factor
//!   cache it builds lazily) is `Arc`-shared into every campaign that
//!   uses the same deck. A second raw-text memo level maps
//!   `H(raw deck + param overrides)` to the canonical digest so repeat
//!   decks skip the parse entirely.
//!
//! Both are bounded LRUs under a [`Mutex`]; capacities are small
//! enough that O(n) eviction scans are noise next to a campaign.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use castg_spice::Circuit;

use crate::digest::Digest;

/// A bounded least-recently-used map.
///
/// Recency is a monotonic counter per entry; eviction scans for the
/// minimum. With the daemon's capacities (tens to hundreds of entries)
/// this is simpler and no slower in practice than an intrusive list.
pub struct Lru<K, V> {
    map: HashMap<K, (V, u64)>,
    capacity: usize,
    tick: u64,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// Creates an LRU holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        Lru { map: HashMap::new(), capacity: capacity.max(1), tick: 0 }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some((value, stamp)) => {
                *stamp = tick;
                Some(value)
            }
            None => None,
        }
    }

    /// Inserts `key`, evicting the least-recently-used entry if full.
    pub fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (value, self.tick));
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// A response stored in the result cache: enough to replay it exactly.
#[derive(Clone)]
pub struct StoredResponse {
    /// HTTP status the original response carried.
    pub status: u16,
    /// The exact body bytes.
    pub body: Arc<Vec<u8>>,
    /// Hex form of the request digest (served in `X-Castg-Digest`).
    pub digest_hex: String,
}

/// Content-addressed result cache with hit/miss counters.
pub struct ResultCache {
    inner: Mutex<Lru<Digest, StoredResponse>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// Creates a result cache bounded to `capacity` responses.
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            inner: Mutex::new(Lru::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up a digest, counting the hit or miss.
    pub fn get(&self, digest: &Digest) -> Option<StoredResponse> {
        let mut inner = self.inner.lock().expect("result cache poisoned");
        match inner.get(digest) {
            Some(found) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(found.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a response under its digest.
    pub fn insert(&self, digest: Digest, response: StoredResponse) {
        self.inner.lock().expect("result cache poisoned").insert(digest, response);
    }

    /// (hits, misses, live entries).
    pub fn stats(&self) -> (u64, u64, usize) {
        let len = self.inner.lock().expect("result cache poisoned").len();
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed), len)
    }
}

/// A compiled deck held by the plan cache.
///
/// Cloning the [`Circuit`] shares its compiled `StampPlan` (an `Arc`
/// inside), so every campaign built from this entry reuses the same
/// plan, with its sparse templates, orderings and cached first
/// factorizations.
#[derive(Clone)]
pub struct PlanEntry {
    /// Compiled circuit (its plan already built).
    pub circuit: Circuit,
    /// Deck title, if the deck carried one.
    pub title: Option<String>,
    /// Resolved `.param` table in deck order.
    pub params: Vec<(String, f64)>,
    /// Canonical deck bytes (writer output, or raw bytes when the deck
    /// is not representable by the writer).
    pub canonical_deck: Arc<Vec<u8>>,
}

/// Process-wide plan cache with a raw-text memo level.
pub struct PlanCache {
    /// `H(raw deck text + param overrides)` → canonical deck digest.
    /// Lets byte-identical resubmissions skip the parse.
    raw_memo: Mutex<Lru<Digest, Digest>>,
    /// Canonical deck digest → compiled entry.
    plans: Mutex<Lru<Digest, PlanEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// Creates a plan cache bounded to `capacity` compiled decks (the
    /// raw memo gets 4× that — memo entries are two digests).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            raw_memo: Mutex::new(Lru::new(capacity.max(1) * 4)),
            plans: Mutex::new(Lru::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Memoized raw-text lookup: the canonical digest for this exact
    /// raw deck + overrides, if we have parsed it before.
    pub fn lookup_raw(&self, raw_key: &Digest) -> Option<Digest> {
        self.raw_memo.lock().expect("plan cache poisoned").get(raw_key).copied()
    }

    /// Records the raw-text → canonical mapping.
    pub fn memo_raw(&self, raw_key: Digest, canonical: Digest) {
        self.raw_memo.lock().expect("plan cache poisoned").insert(raw_key, canonical);
    }

    /// Looks up a compiled entry, counting the hit or miss.
    pub fn get(&self, canonical: &Digest) -> Option<PlanEntry> {
        let mut plans = self.plans.lock().expect("plan cache poisoned");
        match plans.get(canonical) {
            Some(entry) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a compiled entry.
    pub fn insert(&self, canonical: Digest, entry: PlanEntry) {
        self.plans.lock().expect("plan cache poisoned").insert(canonical, entry);
    }

    /// (hits, misses, live compiled decks).
    pub fn stats(&self) -> (u64, u64, usize) {
        let len = self.plans.lock().expect("plan cache poisoned").len();
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed), len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut lru: Lru<u32, &str> = Lru::new(2);
        lru.insert(1, "a");
        lru.insert(2, "b");
        assert_eq!(lru.get(&1), Some(&"a")); // refresh 1 → 2 is oldest
        lru.insert(3, "c");
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some(&"a"));
        assert_eq!(lru.get(&3), Some(&"c"));
    }

    #[test]
    fn lru_update_keeps_len() {
        let mut lru: Lru<u32, &str> = Lru::new(2);
        lru.insert(1, "a");
        lru.insert(1, "b");
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get(&1), Some(&"b"));
    }

    #[test]
    fn result_cache_counts() {
        let cache = ResultCache::new(4);
        let d = [7u8; 32];
        assert!(cache.get(&d).is_none());
        cache.insert(
            d,
            StoredResponse { status: 200, body: Arc::new(b"{}".to_vec()), digest_hex: "07".into() },
        );
        let hit = cache.get(&d).unwrap();
        assert_eq!(hit.status, 200);
        assert_eq!(*hit.body, b"{}".to_vec());
        assert_eq!(cache.stats(), (1, 1, 1));
    }
}
