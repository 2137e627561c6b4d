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
//! Recoveries are counted and surfaced through the service metrics.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

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
    hits: AtomicU64,
    misses: AtomicU64,
    recoveries: AtomicU64,
}

impl QueryCache {
    /// `capacity` total entries spread over `shards` shards (both rounded
    /// up: shards to a power of two, per-shard capacity to ≥1).
    pub fn new(capacity: usize, shards: usize) -> Self {
        if capacity == 0 {
            return QueryCache {
                shards: Vec::new(),
                mask: 0,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                recoveries: AtomicU64::new(0),
            };
        }
        let nshards = shards.clamp(1, 256).next_power_of_two();
        let per_shard = capacity.div_ceil(nshards).max(1);
        QueryCache {
            shards: (0..nshards).map(|_| Mutex::new(Shard::new(per_shard))).collect(),
            mask: nshards - 1,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
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
                self.recoveries.fetch_add(1, Relaxed);
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
    /// Counts a hit or miss either way (disabled caches count nothing).
    pub fn get(&self, key: u64, version: u64) -> Option<f64> {
        if self.is_disabled() {
            return None;
        }
        let got = self.lock_shard(self.shard(key)).get(key, version);
        match got {
            Some(_) => self.hits.fetch_add(1, Relaxed),
            None => self.misses.fetch_add(1, Relaxed),
        };
        got
    }

    /// Insert (or refresh) `key → value`, tagged with `version`.
    pub fn insert(&self, key: u64, version: u64, value: f64) {
        if self.is_disabled() {
            return;
        }
        self.lock_shard(self.shard(key)).insert(key, version, value);
    }

    /// Drop every entry (called on model swap). Hit/miss counters survive.
    pub fn clear(&self) {
        for s in &self.shards {
            self.lock_shard(s).clear();
        }
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(Relaxed), self.misses.load(Relaxed))
    }

    /// Poisoned-lock recoveries since construction (each one dropped the
    /// contents of a single shard).
    pub(crate) fn recoveries(&self) -> u64 {
        self.recoveries.load(Relaxed)
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
        assert_eq!(c.stats(), (1, 1));
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
        assert_eq!(c.stats(), (0, 0), "disabled cache records nothing");
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
        assert_eq!(c.recoveries(), 1);
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
