//! Table→worker placement with R-way replication and a round-robin replica
//! rotation.
//!
//! Placement is deterministic: replica `i` of a table lands on worker
//! `(fnv(table) + i) mod N`, so the same cluster shape always produces the
//! same map (debuggable, and stable across coordinator restarts). Each
//! request takes the table's rotation from a per-table round-robin cursor;
//! the coordinator reorders it by how many of the batch's groups already
//! start on each replica, so the cursor is the tie-break between equally
//! loaded replicas. On failure the coordinator continues along the
//! rotation, so "retry on the alternate replica" and "balance across
//! replicas" are one ordering.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Index of a worker in the coordinator's membership list.
pub type WorkerId = usize;

/// One table's replica set plus its round-robin cursor.
struct TablePlacement {
    replicas: Vec<WorkerId>,
    cursor: AtomicUsize,
}

/// The cluster's table→worker map. All methods take `&self`; the map is
/// immutable after construction (membership changes rebuild it), only the
/// round-robin cursors mutate.
pub struct PlacementMap {
    tables: BTreeMap<String, TablePlacement>,
}

impl PlacementMap {
    /// Place `tables` across `nworkers` workers with `replicas`-way
    /// replication (clamped to the worker count — a 2-worker cluster
    /// cannot hold 3 distinct replicas).
    pub fn new<S: AsRef<str>>(tables: &[S], nworkers: usize, replicas: usize) -> PlacementMap {
        assert!(nworkers > 0, "placement needs at least one worker");
        let r = replicas.clamp(1, nworkers);
        let tables = tables
            .iter()
            .map(|t| {
                let t = t.as_ref();
                let base = iam_core::persist::fnv1a(t.as_bytes()) as usize;
                let replicas: Vec<WorkerId> = (0..r).map(|i| (base + i) % nworkers).collect();
                (t.to_string(), TablePlacement { replicas, cursor: AtomicUsize::new(0) })
            })
            .collect();
        PlacementMap { tables }
    }

    /// The replica set of `table` (empty slice when unknown).
    pub fn replicas(&self, table: &str) -> &[WorkerId] {
        self.tables.get(table).map(|p| p.replicas.as_slice()).unwrap_or(&[])
    }

    /// The full replica rotation for one request: every replica of
    /// `table`, starting at the round-robin cursor. The coordinator
    /// stable-sorts a batch group's rotation by load, so this order breaks
    /// ties between equally loaded replicas and, after the sort, is the
    /// failover order.
    pub fn rotation(&self, table: &str) -> Vec<WorkerId> {
        let Some(p) = self.tables.get(table) else { return Vec::new() };
        let n = p.replicas.len();
        let start = p.cursor.fetch_add(1, Relaxed) % n;
        (0..n).map(|i| p.replicas[(start + i) % n]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicas_are_distinct_and_bounded() {
        let pm = PlacementMap::new(&["a", "b", "c", "d"], 3, 2);
        for t in ["a", "b", "c", "d"] {
            let r = pm.replicas(t);
            assert_eq!(r.len(), 2);
            assert_ne!(r[0], r[1], "replicas of {t} must be distinct workers");
            assert!(r.iter().all(|&w| w < 3));
        }
        // replication factor clamps to the worker count
        let pm = PlacementMap::new(&["a"], 2, 5);
        assert_eq!(pm.replicas("a").len(), 2);
    }

    #[test]
    fn placement_is_deterministic() {
        let a = PlacementMap::new(&["x", "y"], 4, 2);
        let b = PlacementMap::new(&["x", "y"], 4, 2);
        assert_eq!(a.replicas("x"), b.replicas("x"));
        assert_eq!(a.replicas("y"), b.replicas("y"));
    }

    #[test]
    fn rotation_round_robins_and_covers_all_replicas() {
        let pm = PlacementMap::new(&["t"], 3, 3);
        let first = pm.rotation("t");
        let second = pm.rotation("t");
        assert_ne!(first[0], second[0], "consecutive requests start on different replicas");
        let mut sorted = first.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "rotation visits every replica exactly once");
    }

    #[test]
    fn unknown_table_is_empty() {
        let pm = PlacementMap::new(&["t"], 2, 1);
        assert!(pm.replicas("nope").is_empty());
        assert!(pm.rotation("nope").is_empty());
    }
}
