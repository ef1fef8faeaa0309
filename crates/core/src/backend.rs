//! Pluggable storage backends for the [`TrustEngine`](crate::store::TrustEngine).
//!
//! A [`TrustBackend`] holds the per-`(peer, task)` [`TrustRecord`]s of one
//! trust engine and nothing else — task definitions, usage logs and the
//! normalizer stay in the engine, which is what every consumer talks to.
//! Two implementations ship:
//!
//! * [`BTreeBackend`] — the original ordered map. Iteration order is the key
//!   order, making every simulation built on top bit-for-bit deterministic.
//!   The right default for experiments and small agents.
//! * [`ShardedBackend`] — records partitioned by peer across hash shards,
//!   so batched folds walk one small map at a time while it is hot in
//!   cache. Aimed at high-peer-count workloads where a single agent tracks
//!   thousands to millions of peers.
//!
//! ## The iterator contract
//!
//! `for_each_experience` visits a peer's records in **ascending `TaskId`
//! order**, and `known_peers` returns **each peer exactly once, ascending**
//! — even when the underlying map interleaves a peer's records with other
//! peers' (hash maps do). Both backends uphold this, and the engine's
//! regression tests pin it, because `TrustStore::known_peers` once assumed
//! records of one peer are adjacent, which only the B-tree layout
//! guarantees.

use crate::error::TrustError;
use crate::mutuality::UsageLog;
use crate::record::TrustRecord;
use crate::task::TaskId;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Storage of per-`(peer, task)` trust records.
///
/// `update` is the write primitive: it receives the existing record (or
/// `None` on first contact) and stores whatever the closure returns. The
/// engine builds `observe`, environment-aware updates and batching on top.
pub trait TrustBackend<P: Copy + Ord>: Default + Clone + fmt::Debug {
    /// A fresh, empty backend.
    fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the record for `(peer, task)`.
    fn get(&self, peer: P, task: TaskId) -> Option<TrustRecord>;

    /// Inserts or replaces the record for `(peer, task)`.
    fn insert(&mut self, peer: P, task: TaskId, rec: TrustRecord);

    /// Read-modify-write: stores `f(existing)` for `(peer, task)`.
    fn update(
        &mut self,
        peer: P,
        task: TaskId,
        f: &mut dyn FnMut(Option<TrustRecord>) -> TrustRecord,
    );

    /// Applies one read-modify-write per batch element; `f` receives the
    /// batch index and the existing record. Backends override this to
    /// amortize per-item lookup costs (shard routing, journal appends).
    fn update_batch(
        &mut self,
        items: &[(P, TaskId)],
        f: &mut dyn FnMut(usize, Option<TrustRecord>) -> TrustRecord,
    ) {
        for (i, &(peer, task)) in items.iter().enumerate() {
            self.update(peer, task, &mut |prior| f(i, prior));
        }
    }

    /// Visits every record held about `peer` in ascending `TaskId` order.
    fn for_each_experience(&self, peer: P, f: &mut dyn FnMut(TaskId, TrustRecord));

    /// Every peer with at least one record — each exactly once, ascending.
    fn known_peers(&self) -> Vec<P>;

    /// Number of `(peer, task)` records held.
    fn len(&self) -> usize;

    /// Whether no records are held.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every record.
    fn clear(&mut self);

    // ---- Durability hooks -------------------------------------------------
    //
    // Usage logs live in the engine, not the backend — but a *durable*
    // backend must still see them, or a restart would erase the §4.1
    // mutuality history. The engine calls these hooks on its log-mutating
    // paths; in-memory backends keep the no-op defaults.

    /// Durability hook: called by the engine after `peer`'s usage log
    /// changes, with the post-change state. Absolute state (not a delta),
    /// so journaling it twice is harmless and replay cannot double-count.
    /// In-memory backends ignore it.
    fn note_usage_log(&mut self, peer: P, log: UsageLog) {
        let _ = (peer, log);
    }

    /// Durability hook: usage logs recovered from persistent storage,
    /// replayed into the engine by [`TrustEngine::with_backend`]
    /// (each peer at most once, ascending). In-memory backends have none.
    ///
    /// [`TrustEngine::with_backend`]: crate::store::TrustEngine::with_backend
    fn recovered_usage_logs(&self) -> Vec<(P, UsageLog)> {
        Vec::new()
    }

    /// Durability hook: pushes buffered writes down to stable storage
    /// (honoring the backend's fsync policy) and surfaces any I/O failure
    /// recorded since the last flush. A no-op `Ok(())` for in-memory
    /// backends.
    fn flush(&mut self) -> Result<(), TrustError> {
        Ok(())
    }

    /// Durability hook: the **group-commit barrier**. The engine calls it
    /// once per write operation — after *all* of a batch's records and
    /// usage logs are appended — and a durable backend whose policy
    /// demands per-operation durability (the log backend under
    /// [`FsyncPolicy::Always`](crate::log::FsyncPolicy::Always)) issues
    /// one fsync covering everything appended since the last barrier.
    /// Everything acknowledged past a returned `Ok` is on disk; a batch of
    /// any size pays one syscall, not one per record. Reports (but does
    /// not consume) a sticky append failure — [`flush`](Self::flush) stays
    /// the surface-once point. A no-op `Ok(())` for in-memory backends
    /// and under the other fsync policies.
    fn commit_barrier(&mut self) -> Result<(), TrustError> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// BTreeBackend
// ---------------------------------------------------------------------------

/// The original deterministic ordered-map backend.
#[derive(Debug, Clone, PartialEq)]
pub struct BTreeBackend<P> {
    records: BTreeMap<(P, TaskId), TrustRecord>,
}

impl<P> Default for BTreeBackend<P> {
    fn default() -> Self {
        BTreeBackend { records: BTreeMap::new() }
    }
}

impl<P: Copy + Ord + fmt::Debug> TrustBackend<P> for BTreeBackend<P> {
    fn get(&self, peer: P, task: TaskId) -> Option<TrustRecord> {
        self.records.get(&(peer, task)).copied()
    }

    fn insert(&mut self, peer: P, task: TaskId, rec: TrustRecord) {
        self.records.insert((peer, task), rec);
    }

    fn update(
        &mut self,
        peer: P,
        task: TaskId,
        f: &mut dyn FnMut(Option<TrustRecord>) -> TrustRecord,
    ) {
        match self.records.get_mut(&(peer, task)) {
            Some(rec) => *rec = f(Some(*rec)),
            None => {
                self.records.insert((peer, task), f(None));
            }
        }
    }

    fn for_each_experience(&self, peer: P, f: &mut dyn FnMut(TaskId, TrustRecord)) {
        for (&(_, tid), &rec) in self.records.range((peer, TaskId(0))..=(peer, TaskId(u32::MAX))) {
            f(tid, rec);
        }
    }

    fn known_peers(&self) -> Vec<P> {
        let mut peers: Vec<P> = self.records.keys().map(|&(p, _)| p).collect();
        peers.dedup(); // key order makes a peer's records adjacent
        peers
    }

    fn len(&self) -> usize {
        self.records.len()
    }

    fn clear(&mut self) {
        self.records.clear();
    }
}

// ---------------------------------------------------------------------------
// ShardedBackend
// ---------------------------------------------------------------------------

/// Deterministic hasher: `std`'s SipHash with fixed keys, so shard layout
/// and iteration order are stable across runs (the default `RandomState`
/// would randomize them per process).
type FixedState = BuildHasherDefault<DefaultHasher>;

type Shard<P> = HashMap<P, BTreeMap<TaskId, TrustRecord>, FixedState>;

/// Hash-sharded backend: one small map per shard instead of one big one.
///
/// Records are partitioned by *peer* (not `(peer, task)`), so one peer's
/// records always live in a single shard: `for_each_experience` touches one
/// map, and the per-peer `BTreeMap` keeps the ascending-`TaskId` iterator
/// contract for free.
#[derive(Clone)]
pub struct ShardedBackend<P> {
    shards: Box<[Shard<P>]>,
    /// Total `(peer, task)` records, maintained on insert paths so `len`
    /// does not walk every shard.
    count: usize,
}

impl<P> ShardedBackend<P> {
    /// Default shard count.
    pub const DEFAULT_SHARDS: usize = 16;

    /// A backend with `shards` shards (rounded up to a power of two, min 1).
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        ShardedBackend { shards: (0..n).map(|_| Shard::default()).collect(), count: 0 }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

impl<P: Copy + Ord + Hash> ShardedBackend<P> {
    #[inline]
    fn shard_index(&self, peer: P) -> usize {
        let mut h = DefaultHasher::new();
        peer.hash(&mut h);
        (h.finish() as usize) & (self.shards.len() - 1)
    }

    fn upsert_in(
        shard: &mut Shard<P>,
        count: &mut usize,
        peer: P,
        task: TaskId,
        f: &mut dyn FnMut(Option<TrustRecord>) -> TrustRecord,
    ) {
        let per_peer = shard.entry(peer).or_default();
        match per_peer.get_mut(&task) {
            Some(rec) => *rec = f(Some(*rec)),
            None => {
                per_peer.insert(task, f(None));
                *count += 1;
            }
        }
    }
}

impl<P> Default for ShardedBackend<P> {
    fn default() -> Self {
        Self::with_shards(Self::DEFAULT_SHARDS)
    }
}

impl<P> fmt::Debug for ShardedBackend<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedBackend")
            .field("shards", &self.shards.len())
            .field("records", &self.count)
            .finish_non_exhaustive()
    }
}

impl<P: Copy + Ord + Hash + fmt::Debug> TrustBackend<P> for ShardedBackend<P> {
    fn get(&self, peer: P, task: TaskId) -> Option<TrustRecord> {
        self.shards[self.shard_index(peer)].get(&peer).and_then(|m| m.get(&task)).copied()
    }

    fn insert(&mut self, peer: P, task: TaskId, rec: TrustRecord) {
        let idx = self.shard_index(peer);
        if self.shards[idx].entry(peer).or_default().insert(task, rec).is_none() {
            self.count += 1;
        }
    }

    fn update(
        &mut self,
        peer: P,
        task: TaskId,
        f: &mut dyn FnMut(Option<TrustRecord>) -> TrustRecord,
    ) {
        let idx = self.shard_index(peer);
        Self::upsert_in(&mut self.shards[idx], &mut self.count, peer, task, f);
    }

    fn update_batch(
        &mut self,
        items: &[(P, TaskId)],
        f: &mut dyn FnMut(usize, Option<TrustRecord>) -> TrustRecord,
    ) {
        // Group by shard so each shard's map is walked while hot in cache.
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, &(peer, _)) in items.iter().enumerate() {
            by_shard[self.shard_index(peer)].push(i);
        }
        for (shard, indices) in self.shards.iter_mut().zip(by_shard) {
            for i in indices {
                let (peer, task) = items[i];
                Self::upsert_in(shard, &mut self.count, peer, task, &mut |prior| f(i, prior));
            }
        }
    }

    fn for_each_experience(&self, peer: P, f: &mut dyn FnMut(TaskId, TrustRecord)) {
        if let Some(per_peer) = self.shards[self.shard_index(peer)].get(&peer) {
            for (&tid, &rec) in per_peer {
                f(tid, rec);
            }
        }
    }

    fn known_peers(&self) -> Vec<P> {
        // `count` tallies (peer, task) records, an upper bound on distinct
        // peers: one up-front allocation instead of amortized growth from
        // empty (trustee search hammers this read path)
        let mut peers = Vec::with_capacity(self.count);
        for shard in self.shards.iter() {
            peers.extend(shard.keys().copied());
        }
        // a peer lives in exactly one shard, so sorting alone restores the
        // "each peer once, ascending" contract
        peers.sort_unstable();
        peers
    }

    fn len(&self) -> usize {
        self.count
    }

    fn clear(&mut self) {
        for shard in self.shards.iter_mut() {
            shard.clear();
        }
        self.count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TrustRecord;

    fn rec(s: f64) -> TrustRecord {
        TrustRecord::with_priors(s, 0.5, 0.1, 0.1)
    }

    fn exercise<B: TrustBackend<u32>>(mut b: B) {
        assert!(b.is_empty());
        b.insert(7, TaskId(1), rec(0.5));
        b.insert(3, TaskId(0), rec(0.25));
        b.insert(7, TaskId(0), rec(0.75));
        assert_eq!(b.len(), 3);
        assert_eq!(b.get(7, TaskId(1)).unwrap().s_hat, 0.5);
        assert!(b.get(7, TaskId(2)).is_none());
        assert!(b.get(99, TaskId(0)).is_none());

        // update hits the existing record…
        b.update(7, TaskId(1), &mut |prior| {
            let mut r = prior.expect("existing record");
            r.s_hat = 0.9;
            r
        });
        assert_eq!(b.get(7, TaskId(1)).unwrap().s_hat, 0.9);
        assert_eq!(b.len(), 3);
        // …and creates on first contact
        b.update(8, TaskId(5), &mut |prior| {
            assert!(prior.is_none());
            rec(1.0)
        });
        assert_eq!(b.len(), 4);

        // experiences ascend by task id
        let mut seen = Vec::new();
        b.for_each_experience(7, &mut |tid, r| seen.push((tid, r.s_hat)));
        assert_eq!(seen, vec![(TaskId(0), 0.75), (TaskId(1), 0.9)]);

        // peers ascend, each exactly once
        assert_eq!(b.known_peers(), vec![3, 7, 8]);

        b.clear();
        assert_eq!(b.len(), 0);
        assert!(b.known_peers().is_empty());
    }

    #[test]
    fn btree_backend_contract() {
        exercise(BTreeBackend::<u32>::default());
    }

    #[test]
    fn sharded_backend_contract() {
        exercise(ShardedBackend::<u32>::default());
        exercise(ShardedBackend::<u32>::with_shards(1));
        exercise(ShardedBackend::<u32>::with_shards(3)); // rounds to 4
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedBackend::<u32>::with_shards(0).shard_count(), 1);
        assert_eq!(ShardedBackend::<u32>::with_shards(5).shard_count(), 8);
        assert_eq!(ShardedBackend::<u32>::with_shards(16).shard_count(), 16);
    }

    #[test]
    fn batch_updates_match_loop() {
        let items: Vec<(u32, TaskId)> = (0..100).map(|i| (i % 13, TaskId(i / 13))).collect();
        let mut a = ShardedBackend::<u32>::default();
        let mut b = ShardedBackend::<u32>::default();
        for &(p, t) in &items {
            a.update(p, t, &mut |prior| match prior {
                Some(mut r) => {
                    r.interactions += 1;
                    r
                }
                None => rec(0.5),
            });
        }
        b.update_batch(&items, &mut |_, prior| match prior {
            Some(mut r) => {
                r.interactions += 1;
                r
            }
            None => rec(0.5),
        });
        assert_eq!(a.len(), b.len());
        for &(p, t) in &items {
            assert_eq!(a.get(p, t), b.get(p, t));
        }
    }

    #[test]
    fn clone_is_deep() {
        let mut a = ShardedBackend::<u32>::default();
        a.insert(1, TaskId(0), rec(0.5));
        let mut b = a.clone();
        b.insert(2, TaskId(0), rec(0.6));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 2);
    }
}
