//! Sharded LRU cache of query results, keyed on
//! [`RangeQuery::canonical_key`](iam_data::RangeQuery::canonical_key).
//!
//! Every entry is tagged with the model-version id it was computed under.
//! Lookups validate the tag against the *current* version, so results from
//! a superseded model can never be served — even for an insert that raced
//! with a hot-swap. The service additionally calls [`QueryCache::clear`] on
//! swap to free the stale entries eagerly.
//!
//! Each shard is a true O(1) LRU: a hash map into a slab of nodes threaded
//! on an intrusive doubly-linked list (no per-access allocation).
//!
//! A worker that panics while holding a shard lock poisons it; without
//! recovery every later request touching that shard would panic too. Since
//! a cache may always forget, recovery is clear-and-continue: the shard's
//! contents are dropped (its LRU links may be mid-mutation), the poison
//! flag is cleared, and the access proceeds on the now-empty shard.
//! Recoveries are counted on a counter handle the service shares with its
//! model registry and exposes as `iam_serve_lock_recoveries_total`. Hits
//! and misses are counted by the service, where it reads the cache.

use iam_obs::Counter;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

const NIL: usize = usize::MAX;

struct Node {
    key: u64,
    version: u64,
    value: f64,
    prev: usize,
    next: usize,
}

struct Shard {
    map: HashMap<u64, usize>,
    nodes: Vec<Node>,
    head: usize, // most recently used
    tail: usize, // least recently used
    free: Vec<usize>,
    cap: usize,
}

impl Shard {
    fn new(cap: usize) -> Self {
        Shard {
            map: HashMap::with_capacity(cap),
            nodes: Vec::with_capacity(cap),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            cap,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next].prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn get(&mut self, key: u64, version: u64) -> Option<f64> {
        let &i = self.map.get(&key)?;
        if self.nodes[i].version != version {
            // stale entry from a superseded model: drop it
            self.unlink(i);
            self.map.remove(&key);
            self.free.push(i);
            return None;
        }
        self.unlink(i);
        self.push_front(i);
        Some(self.nodes[i].value)
    }

    fn insert(&mut self, key: u64, version: u64, value: f64) {
        if let Some(&i) = self.map.get(&key) {
            self.nodes[i].version = version;
            self.nodes[i].value = value;
            self.unlink(i);
            self.push_front(i);
            return;
        }
        let slot = if let Some(i) = self.free.pop() {
            i
        } else if self.nodes.len() < self.cap {
            self.nodes.push(Node { key: 0, version: 0, value: 0.0, prev: NIL, next: NIL });
            self.nodes.len() - 1
        } else {
            // evict the least recently used entry and reuse its slot
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.unlink(lru);
            let old_key = self.nodes[lru].key;
            self.map.remove(&old_key);
            lru
        };
        self.nodes[slot].key = key;
        self.nodes[slot].version = version;
        self.nodes[slot].value = value;
        self.map.insert(key, slot);
        self.push_front(slot);
    }

    fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// A sharded, version-tagged LRU cache mapping canonical query keys to
/// selectivities. Capacity 0 disables the cache (all lookups miss, inserts
/// are dropped) without branching at call sites.
pub struct QueryCache {
    shards: Vec<Mutex<Shard>>,
    mask: usize,
    recoveries: Arc<Counter>,
}

impl QueryCache {
    /// `capacity` total entries spread over `shards` shards (both rounded
    /// up: shards to a power of two, per-shard capacity to ≥1).
    pub fn new(capacity: usize, shards: usize) -> Self {
        Self::with_recoveries(capacity, shards, Arc::default())
    }

    /// [`QueryCache::new`], counting poisoned-shard recoveries on
    /// `recoveries`.
    pub(crate) fn with_recoveries(
        capacity: usize,
        shards: usize,
        recoveries: Arc<Counter>,
    ) -> Self {
        if capacity == 0 {
            return QueryCache { shards: Vec::new(), mask: 0, recoveries };
        }
        let nshards = shards.clamp(1, 256).next_power_of_two();
        let per_shard = capacity.div_ceil(nshards).max(1);
        QueryCache {
            shards: (0..nshards).map(|_| Mutex::new(Shard::new(per_shard))).collect(),
            mask: nshards - 1,
            recoveries,
        }
    }

    /// Lock a shard, recovering from poisoning by clearing it: a panicking
    /// lock holder may have left the LRU links mid-mutation, and an empty
    /// shard is always a correct cache state.
    fn lock_shard<'a>(&self, m: &'a Mutex<Shard>) -> MutexGuard<'a, Shard> {
        match m.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                let mut g = poisoned.into_inner();
                g.clear();
                m.clear_poison();
                self.recoveries.inc();
                g
            }
        }
    }

    /// True when the cache was built with capacity 0.
    pub(crate) fn is_disabled(&self) -> bool {
        self.shards.is_empty()
    }

    #[inline]
    fn shard(&self, key: u64) -> &Mutex<Shard> {
        // canonical keys are FNV-mixed already; a Fibonacci multiply spreads
        // the high bits used for shard selection
        let i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask;
        &self.shards[i]
    }

    /// Look up `key`, but only accept a value computed under `version`.
    pub fn get(&self, key: u64, version: u64) -> Option<f64> {
        if self.is_disabled() {
            return None;
        }
        self.lock_shard(self.shard(key)).get(key, version)
    }

    /// Insert (or refresh) `key → value`, tagged with `version`.
    pub fn insert(&self, key: u64, version: u64, value: f64) {
        if self.is_disabled() {
            return;
        }
        self.lock_shard(self.shard(key)).insert(key, version, value);
    }

    /// Drop every entry (called on model swap).
    pub fn clear(&self) {
        for s in &self.shards {
            self.lock_shard(s).clear();
        }
    }

    /// Entries currently resident (sums shard sizes; O(shards)).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| self.lock_shard(s).map.len()).sum()
    }

    /// True when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let c = QueryCache::new(64, 4);
        assert_eq!(c.get(42, 1), None);
        c.insert(42, 1, 0.25);
        assert_eq!(c.get(42, 1), Some(0.25));
    }

    #[test]
    fn stale_version_misses_and_evicts() {
        let c = QueryCache::new(64, 1);
        c.insert(7, 1, 0.5);
        assert_eq!(c.get(7, 2), None, "entry from version 1 must not serve version 2");
        assert_eq!(c.len(), 0, "stale entry should be dropped on lookup");
        // and the slot is reusable
        c.insert(7, 2, 0.75);
        assert_eq!(c.get(7, 2), Some(0.75));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c = QueryCache::new(3, 1);
        c.insert(1, 1, 0.1);
        c.insert(2, 1, 0.2);
        c.insert(3, 1, 0.3);
        assert_eq!(c.get(1, 1), Some(0.1)); // touch 1 → LRU is now 2
        c.insert(4, 1, 0.4);
        assert_eq!(c.get(2, 1), None, "2 was least recently used");
        assert_eq!(c.get(1, 1), Some(0.1));
        assert_eq!(c.get(3, 1), Some(0.3));
        assert_eq!(c.get(4, 1), Some(0.4));
    }

    #[test]
    fn reinsert_updates_in_place() {
        let c = QueryCache::new(2, 1);
        c.insert(1, 1, 0.1);
        c.insert(1, 1, 0.9);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(1, 1), Some(0.9));
    }

    #[test]
    fn clear_empties_all_shards() {
        let c = QueryCache::new(64, 8);
        for k in 0..50u64 {
            c.insert(k, 1, k as f64);
        }
        assert!(!c.is_empty());
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(10, 1), None);
    }

    #[test]
    fn zero_capacity_disables() {
        let c = QueryCache::new(0, 8);
        assert!(c.is_disabled());
        c.insert(1, 1, 0.5);
        assert_eq!(c.get(1, 1), None);
        assert!(c.is_empty());
    }

    #[test]
    fn poisoned_shard_recovers_by_clearing() {
        let c = QueryCache::new(64, 1); // one shard so the poison is where we look
        c.insert(1, 1, 0.1);
        c.insert(2, 1, 0.2);
        let res = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = c.shards[0].lock().unwrap();
                panic!("poison the shard");
            })
            .join()
        });
        assert!(res.is_err(), "helper thread should have panicked");
        assert!(c.shards[0].is_poisoned());

        // the next access recovers: the shard comes back empty but usable
        assert_eq!(c.get(1, 1), None, "recovery drops the shard's contents");
        assert!(!c.shards[0].is_poisoned());
        c.insert(3, 1, 0.3);
        assert_eq!(c.get(3, 1), Some(0.3));
        assert_eq!(c.recoveries.get(), 1);
    }

    #[test]
    fn churn_stays_within_capacity() {
        let c = QueryCache::new(32, 4);
        for k in 0..10_000u64 {
            c.insert(k, 1, k as f64);
            if k % 3 == 0 {
                c.get(k / 2, 1);
            }
        }
        assert!(c.len() <= 32 + 4, "len {} exceeds capacity", c.len());
    }
}
