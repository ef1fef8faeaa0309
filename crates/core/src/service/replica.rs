//! Epoch-snapshotted read replicas: the read-optimized query tier.
//!
//! Every query API before this one serializes through an actor mailbox —
//! correct (read-your-awaited-writes) but wrong for the read-dominated
//! traffic a production SIoT deployment actually sees, where millions of
//! `trustworthiness`/`known_peers`/`task_records` lookups ride a thin
//! write stream. This module lets reads leave the write path entirely:
//!
//! * Each shard actor **publishes** an immutable, epoch-stamped
//!   [`ReadSnapshot`] of its read state at the end of every drain cycle
//!   that folded commits. Publication is cheap — the snapshot is a
//!   copy-on-write tree sharing its nodes with the actor's working copy,
//!   so publishing clones an `Arc`, not the records, and what it costs
//!   the write path is one node copy per *distinct* tree node the commits
//!   between two publications touched (not one per commit) — and it never
//!   blocks the write path: the shared slot is swapped under a
//!   pointer-sized critical section.
//! * A [`ReplicaHandle`] serves `trustworthiness` / `record` /
//!   `known_peers` / `task_records` directly off the latest snapshots with
//!   **zero mailbox traffic** — reads scale independently of the actors
//!   and keep answering (from the last published state) even while a shard
//!   is saturated or after the service stopped.
//! * Callers that want staleness *bounds* rather than raw snapshots use
//!   [`Freshness::Snapshot`] on the ordinary service handles: the read is
//!   served from the snapshot only while it is missing at most
//!   `max_epoch_lag` of the shard's folds, and falls through to the mailbox
//!   (a fresh read) otherwise. See [`Freshness`] for the full consistency
//!   menu — those docs are the single normative statement of the
//!   guarantees.
//!
//! ## Epochs and staleness
//!
//! Snapshots are stamped with the **drain epoch** they were published at —
//! the same per-shard counter that stamps [`Cut`] replies and shows up in
//! [`ShardStats::drains`] — using the number the publishing drain cycle
//! *completes* as. Staleness, though, is counted in **mutating folds**,
//! not drain cycles: the slot carries a fold counter the actor advances
//! once per non-empty commit fold, each snapshot remembers the count it
//! was built at, and their difference — *how many commit folds the
//! snapshot is missing* — is the lag that [`Freshness::Snapshot`] bounds.
//! (Drain cycles would be the wrong unit: read-only traffic spins the
//! drain counter without changing any record, and whether consecutive
//! queries share a drain cycle is a scheduling accident.) Under
//! [`ServiceOptions::publish_every`] ` = K` the lag never exceeds `K - 1`.
//! Drain cycles that folded nothing do **not** publish and do not advance
//! the fold counter, so a read-only or freshly spawned service never
//! looks stale and broadcasts never force a publication round.
//!
//! With the default [`ServiceOptions::publish_every`] ` = 1` every
//! mutating drain publishes before it acks, so an awaited commit is
//! already visible to snapshot reads when the ack arrives; larger values
//! amortize publication on write-hot shards and widen the lag the
//! bounded-staleness check can observe.
//!
//! ```
//! use siot_core::prelude::*;
//! use siot_core::service::{block_on, Freshness, ServiceOptions, TrustService};
//!
//! let task = Task::uniform(TaskId(0), [CharacteristicId(0)]).unwrap();
//! let service = TrustService::spawn(TrustStore::<u32>::new(), ServiceOptions::default());
//! let handle = service.handle();
//! let replica = handle.replica();
//!
//! block_on(async {
//!     let request = DelegationRequest::new(7, &task, Goal::ANY, Context::amicable(task.id()))
//!         .committed();
//!     handle.complete(request, DelegationOutcome::succeeded(0.9, 0.1)).await.unwrap();
//! });
//! // the awaited commit was published before its ack: zero-mailbox reads
//! // see it without touching the actor
//! assert_eq!(replica.known_peers().value, vec![7]);
//! assert!(replica.record(7, task.id()).is_some());
//! service.shutdown().unwrap();
//! // the last published state keeps answering after shutdown
//! assert_eq!(replica.known_peers().value, vec![7]);
//! ```
//!
//! [`Cut`]: super::Cut
//! [`Freshness`]: super::Freshness
//! [`Freshness::Snapshot`]: super::Freshness::Snapshot
//! [`ShardStats::drains`]: super::ShardStats::drains
//! [`ShardStats::published_epoch`]: super::ShardStats::published_epoch
//! [`ServiceOptions::publish_every`]: super::ServiceOptions::publish_every

use super::{Cut, ShardStats};
use crate::delegation::DelegationReceipt;
use crate::record::TrustRecord;
use crate::task::TaskId;
use crate::tw::{Normalizer, Trustworthiness};
use std::cmp::Ordering as CmpOrdering;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// A copy-on-write AVL map from peer to its task records.
//
// Ownership rule — the one thing that decides whether a node is copied or
// mutated: **a node may be mutated only through an `Arc` whose strong
// count is 1**, which `Arc::make_mut` reads and nothing else records. The
// actor's working copy and every published `ReadSnapshot` are `PeerMap`s
// over the same nodes; publishing clones the root `Arc`, so the root is
// then shared, and the first upsert afterwards clones it (`make_mut`),
// which in turn makes its two children shared, and so on down the search
// path: a node reachable from a snapshot is always cloned before it is
// written, so a published snapshot never changes. The clone is owned by
// the working copy alone, so every later upsert through it — until the
// next publication shares the root again — mutates it in place, rotations
// included (they rewire owned nodes, they allocate nothing). A peer's
// record vector sits behind its own `Arc` under the same rule.
//
// What a publication costs, then: one node copy per *distinct* path node
// touched between two publications (a drain of several hundred receipts
// copies the top of the tree once, not once per receipt), one `Arc` clone
// of the root to publish, and freeing that same set of replaced nodes when
// the previous snapshot's last reader drops it. Nodes no upsert touched
// stay shared between the working copy and every snapshot (SymanticWeft
// ADR-0005's frame: immutable units, convergence without coordination).
// ---------------------------------------------------------------------------

type Recs = Arc<Vec<(TaskId, TrustRecord)>>;
type Link<P> = Option<Arc<Node<P>>>;
/// One peer's seed records, in visit order.
type Group<P> = (P, Vec<(TaskId, TrustRecord)>);

#[derive(Debug, Clone)]
struct Node<P> {
    peer: P,
    /// This peer's records, ascending by task — small (one entry per task
    /// the peer was ever delegated), shared with published snapshots until
    /// the next fold touches this peer.
    recs: Recs,
    height: u8,
    left: Link<P>,
    right: Link<P>,
}

impl<P> Node<P> {
    fn fix_height(&mut self) {
        self.height = 1 + height(&self.left).max(height(&self.right));
    }
}

fn height<P>(link: &Link<P>) -> u8 {
    link.as_ref().map_or(0, |n| n.height)
}

/// Lifts `top`'s left child into its place (`top` becomes that child's
/// right child), copying only what a snapshot still shares.
fn rotate_right<P: Copy>(top: &mut Arc<Node<P>>) {
    let node = Arc::make_mut(top);
    let mut lifted = node.left.take().expect("a right rotation has a left child");
    node.left = Arc::make_mut(&mut lifted).right.take();
    node.fix_height();
    std::mem::swap(top, &mut lifted);
    // `top` is the lifted child, made unique above; `lifted` the old top
    let node = Arc::make_mut(top);
    node.right = Some(lifted);
    node.fix_height();
}

/// Mirror image of [`rotate_right`].
fn rotate_left<P: Copy>(top: &mut Arc<Node<P>>) {
    let node = Arc::make_mut(top);
    let mut lifted = node.right.take().expect("a left rotation has a right child");
    node.right = Arc::make_mut(&mut lifted).left.take();
    node.fix_height();
    std::mem::swap(top, &mut lifted);
    let node = Arc::make_mut(top);
    node.left = Some(lifted);
    node.fix_height();
}

/// Restores the AVL invariant at `top` after one child grew by a level.
/// Inserts add at most one level, so the single/double rotations of
/// textbook AVL insertion are exhaustive (records are never deleted
/// through the service, so no deletion rebalancing exists).
fn rebalance<P: Copy>(top: &mut Arc<Node<P>>) {
    let node = Arc::make_mut(top);
    let (hl, hr) = (height(&node.left), height(&node.right));
    if hl > hr + 1 {
        let left = node.left.as_mut().expect("left height >= 2 implies a left child");
        if height(&left.left) < height(&left.right) {
            rotate_left(left);
        }
        rotate_right(top);
    } else if hr > hl + 1 {
        let right = node.right.as_mut().expect("right height >= 2 implies a right child");
        if height(&right.right) < height(&right.left) {
            rotate_right(right);
        }
        rotate_left(top);
    } else {
        node.height = 1 + hl.max(hr);
    }
}

/// What one [`upsert`] did to the subtree it was given.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Upserted {
    /// An existing `(peer, task)` record was overwritten.
    Replaced,
    /// A known peer gained a record for a new task.
    NewRecord,
    /// A node was inserted; `taller` while the insertion still raised the
    /// height of the subtree being returned from.
    NewPeer { taller: bool },
}

/// Copy-on-write upsert: every node on the search path is made unique
/// (`Arc::make_mut` — cloned if a snapshot shares it, untouched if the
/// working copy already owns it) and then written in place.
fn upsert<P: Copy + Ord>(link: &mut Link<P>, peer: P, task: TaskId, rec: TrustRecord) -> Upserted {
    let Some(top) = link else {
        let recs = Arc::new(vec![(task, rec)]);
        *link = Some(Arc::new(Node { peer, recs, height: 1, left: None, right: None }));
        return Upserted::NewPeer { taller: true };
    };
    let node = Arc::make_mut(top);
    let below = match peer.cmp(&node.peer) {
        CmpOrdering::Equal => {
            let recs = Arc::make_mut(&mut node.recs);
            return match recs.binary_search_by_key(&task, |&(t, _)| t) {
                Ok(i) => {
                    recs[i].1 = rec;
                    Upserted::Replaced
                }
                Err(i) => {
                    recs.insert(i, (task, rec));
                    Upserted::NewRecord
                }
            };
        }
        CmpOrdering::Less => upsert(&mut node.left, peer, task, rec),
        CmpOrdering::Greater => upsert(&mut node.right, peer, task, rec),
    };
    if below != (Upserted::NewPeer { taller: true }) {
        return below;
    }
    let before = node.height;
    rebalance(top);
    Upserted::NewPeer { taller: top.height > before }
}

/// Builds the balanced tree over the next `n` groups of an ascending
/// stream in O(n): the middle group becomes the root, so sibling subtrees
/// differ by at most one node and hence at most one level.
fn build<P>(groups: &mut impl Iterator<Item = Group<P>>, n: usize) -> Link<P> {
    if n == 0 {
        return None;
    }
    let left = build(groups, n / 2);
    let (peer, recs) = groups.next().expect("the caller counted the groups");
    let right = build(groups, n - n / 2 - 1);
    let height = 1 + height(&left).max(height(&right));
    Some(Arc::new(Node { peer, recs: Arc::new(recs), height, left, right }))
}

/// Puts seed groups that arrived out of order into the shape [`build`]
/// takes — one group per peer, ascending, its records strictly ascending
/// by task — keeping the last-visited record of a repeated key, as
/// sequential upserts would.
fn merge_groups<P: Ord>(mut groups: Vec<Group<P>>) -> Vec<Group<P>> {
    // both sorts are stable: visit order survives among equal keys
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    let mut merged: Vec<Group<P>> = Vec::with_capacity(groups.len());
    for (peer, recs) in groups {
        match merged.last_mut() {
            Some((last, into)) if *last == peer => into.extend(recs),
            _ => merged.push((peer, recs)),
        }
    }
    for (_, recs) in &mut merged {
        recs.sort_by_key(|&(task, _)| task);
        recs.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = later.1;
            }
            same
        });
    }
    merged
}

/// The snapshot's record store: cloning is O(1) (the root `Arc`) and
/// shares every node; an upsert copies the search-path nodes a clone still
/// shares and writes the rest in place.
#[derive(Debug, Clone)]
struct PeerMap<P> {
    root: Link<P>,
    /// Nodes in the tree — what `known_peers` / `task_records` size their
    /// output by.
    peers: usize,
    records: usize,
}

impl<P> Default for PeerMap<P> {
    fn default() -> Self {
        PeerMap { root: None, peers: 0, records: 0 }
    }
}

impl<P: Copy + Ord> PeerMap<P> {
    /// The map holding every `(peer, task, record)` triple `seed` visits,
    /// later visits of one key overwriting earlier ones, built bottom-up
    /// in O(n) when the stream ascends strictly by `(peer, task)` — which
    /// the [`TrustBackend`](crate::backend::TrustBackend) iterator
    /// contract delivers. A stream that does not is sorted and merged into
    /// that shape first, then built the same way.
    fn from_seed(seed: impl FnOnce(&mut dyn FnMut(P, TaskId, TrustRecord))) -> Self {
        let mut groups: Vec<Group<P>> = Vec::new();
        let mut ascending = true;
        seed(&mut |peer, task, rec| match groups.last_mut() {
            Some((last, recs)) if *last == peer => {
                ascending &= recs.last().is_some_and(|&(t, _)| t < task);
                recs.push((task, rec));
            }
            last => {
                ascending &= last.is_none_or(|(p, _)| *p < peer);
                groups.push((peer, vec![(task, rec)]));
            }
        });
        if !ascending {
            groups = merge_groups(groups);
        }
        let peers = groups.len();
        let records = groups.iter().map(|(_, recs)| recs.len()).sum();
        PeerMap { root: build(&mut groups.into_iter(), peers), peers, records }
    }

    fn upsert(&mut self, peer: P, task: TaskId, rec: TrustRecord) {
        match upsert(&mut self.root, peer, task, rec) {
            Upserted::Replaced => {}
            Upserted::NewRecord => self.records += 1,
            Upserted::NewPeer { .. } => {
                self.peers += 1;
                self.records += 1;
            }
        }
    }

    fn get(&self, peer: P) -> Option<&Recs> {
        let mut cur = &self.root;
        while let Some(n) = cur {
            match peer.cmp(&n.peer) {
                CmpOrdering::Equal => return Some(&n.recs),
                CmpOrdering::Less => cur = &n.left,
                CmpOrdering::Greater => cur = &n.right,
            }
        }
        None
    }

    /// In-order (ascending-peer) visit.
    fn for_each(&self, f: &mut impl FnMut(P, &[(TaskId, TrustRecord)])) {
        fn walk<P: Copy>(link: &Link<P>, f: &mut impl FnMut(P, &[(TaskId, TrustRecord)])) {
            if let Some(n) = link {
                walk(&n.left, f);
                f(n.peer, &n.recs);
                walk(&n.right, f);
            }
        }
        walk(&self.root, f);
    }
}

// ---------------------------------------------------------------------------
// ReadSnapshot: the immutable unit the actor publishes.
// ---------------------------------------------------------------------------

/// One shard's immutable, epoch-stamped read state: every `(peer, task)`
/// record the shard had folded when the stamping drain cycle completed,
/// plus the normalizer to derive Eq. 18 trustworthiness. Published by the
/// shard actor (see the [module docs](self)), shared by `Arc` — reading
/// never copies records and never touches the actor.
#[derive(Debug, Clone)]
pub struct ReadSnapshot<P> {
    epoch: u64,
    /// The slot's mutating-fold count when this snapshot was built — the
    /// baseline the bounded-staleness check measures lag from.
    folds: u64,
    normalizer: Normalizer,
    map: PeerMap<P>,
}

impl<P: Copy + Ord> ReadSnapshot<P> {
    /// The drain epoch this snapshot was published at — comparable with
    /// [`Cut`] epochs and [`ShardStats::drains`]: if this
    /// epoch is ≥ a cut's epoch for the same shard, the snapshot observed
    /// at least everything that cut did.
    ///
    /// [`ShardStats::drains`]: super::ShardStats::drains
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The normalization operator the owning engine derives Eq. 18
    /// trustworthiness with.
    pub fn normalizer(&self) -> Normalizer {
        self.normalizer
    }

    /// The record for `(peer, task)` as of [`epoch`](Self::epoch), if any
    /// interaction had happened.
    pub fn record(&self, peer: P, task: TaskId) -> Option<TrustRecord> {
        let recs = self.map.get(peer)?;
        recs.binary_search_by_key(&task, |&(t, _)| t).ok().map(|i| recs[i].1)
    }

    /// Eq. 18 trustworthiness toward `(peer, task)` as of
    /// [`epoch`](Self::epoch).
    pub fn trustworthiness(&self, peer: P, task: TaskId) -> Option<Trustworthiness> {
        self.record(peer, task).map(|r| r.trustworthiness(self.normalizer))
    }

    /// Peers with at least one record — each exactly once, ascending.
    pub fn known_peers(&self) -> Vec<P> {
        let mut out = Vec::with_capacity(self.map.peers);
        self.map.for_each(&mut |peer, _| out.push(peer));
        out
    }

    /// Every `(peer, record)` pair held for `task`, ascending by peer.
    pub fn task_records(&self, task: TaskId) -> Vec<(P, TrustRecord)> {
        let mut out = Vec::with_capacity(self.map.peers);
        self.map.for_each(&mut |peer, recs| {
            if let Ok(i) = recs.binary_search_by_key(&task, |&(t, _)| t) {
                out.push((peer, recs[i].1));
            }
        });
        out
    }

    /// How many `(peer, task)` records the snapshot holds.
    pub fn record_count(&self) -> usize {
        self.map.records
    }
}

// ---------------------------------------------------------------------------
// ReplicaSlot: the publication point shared between actor and readers.
// ---------------------------------------------------------------------------

/// The `Arc`-swap slot one shard publishes through. Readers
/// [`load`](Self::load) the current snapshot; the actor
/// [`publish`](Self::publish)es a new one. The mutex guards only the
/// pointer swap itself — a pointer-sized critical section on either side,
/// never held across record access or publication building — so the write
/// path is never meaningfully blocked by readers. (A raw `AtomicPtr` of
/// `Arc`s cannot be loaded safely without hazard-pointer machinery; the
/// swap-only mutex is the safe std-only spelling of the same shape.)
#[derive(Debug)]
pub(crate) struct ReplicaSlot<P> {
    current: Mutex<Arc<ReadSnapshot<P>>>,
    /// Epoch of the newest fold the actor applied (advanced before the
    /// fold's receipts are acked) — what a forced publication stamps its
    /// snapshot with.
    last_fold: AtomicU64,
    /// Count of mutating folds the actor has applied. The lag that
    /// [`Freshness::Snapshot`](super::Freshness::Snapshot) bounds is
    /// `folds - snapshot.folds`: how many commit folds the published
    /// snapshot is missing. Fold *counts* rather than drain epochs so
    /// read-only traffic — which spins the drain counter without changing
    /// a record — never makes a caught-up snapshot look stale.
    folds: AtomicU64,
}

impl<P: Copy + Ord> ReplicaSlot<P> {
    pub(crate) fn new(normalizer: Normalizer) -> Arc<Self> {
        let initial = ReadSnapshot { epoch: 0, folds: 0, normalizer, map: PeerMap::default() };
        Arc::new(ReplicaSlot {
            current: Mutex::new(Arc::new(initial)),
            last_fold: AtomicU64::new(0),
            folds: AtomicU64::new(0),
        })
    }

    /// The latest published snapshot.
    pub(crate) fn load(&self) -> Arc<ReadSnapshot<P>> {
        Arc::clone(&self.current.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// The latest snapshot, only while it is missing at most
    /// `max_epoch_lag` of the actor's mutating folds — `None` means "too
    /// stale, fall through to the mailbox".
    pub(crate) fn fresh_within(&self, max_epoch_lag: u64) -> Option<Arc<ReadSnapshot<P>>> {
        let snap = self.load();
        // the fold counter is read after loading: folds landing in between
        // only make this check stricter than the loaded snapshot deserves
        if self.folds.load(Ordering::Acquire).saturating_sub(snap.folds) <= max_epoch_lag {
            Some(snap)
        } else {
            None
        }
    }

    /// Mutating folds the published snapshot is missing — the lag
    /// [`Freshness::Snapshot`](super::Freshness::Snapshot) bounds.
    pub(crate) fn lag(&self) -> u64 {
        let snap_folds = self.current.lock().unwrap_or_else(|e| e.into_inner()).folds;
        self.folds.load(Ordering::Acquire).saturating_sub(snap_folds)
    }

    fn note_fold(&self, epoch: u64) {
        self.last_fold.store(epoch, Ordering::Release);
        self.folds.fetch_add(1, Ordering::AcqRel);
    }

    fn publish(&self, snapshot: ReadSnapshot<P>) {
        let next = Arc::new(snapshot);
        *self.current.lock().unwrap_or_else(|e| e.into_inner()) = next;
    }
}

// ---------------------------------------------------------------------------
// Publisher: the actor-side half.
// ---------------------------------------------------------------------------

/// The actor's working copy of its read state plus the publication policy.
/// Owned by the actor thread; `apply` mirrors each fold receipt (the
/// receipt carries the absolute post-fold record, so no engine re-read),
/// `folded` advances the fold epoch and publishes per
/// [`ServiceOptions::publish_every`](super::ServiceOptions::publish_every).
///
/// Ownership: the working copy may write a tree node in place exactly
/// while no published snapshot shares it, which the node's `Arc` strong
/// count says and nothing else tracks (see the tree's comment above).
/// `publish` clones the root, so the first `apply` after it copies each
/// node on its path once and every further `apply` before the next
/// `publish` writes those copies in place: a publication interval costs
/// one copy per distinct path node it touched, plus freeing the same set
/// when the snapshot it replaced is dropped — by `publish` itself unless a
/// reader still holds it.
#[derive(Debug)]
pub(crate) struct Publisher<P> {
    slot: Arc<ReplicaSlot<P>>,
    map: PeerMap<P>,
    normalizer: Normalizer,
    publish_every: u64,
    /// Folds applied since the last publication.
    dirty: u64,
}

impl<P: Copy + Ord> Publisher<P> {
    /// A publisher over `slot`, seeded with the engine's pre-existing
    /// records (`seed` visits every `(peer, task, record)` triple — the
    /// engine/backend read seam) so a reopened durable engine serves its
    /// recovered state from epoch 0. The seed tree is built in one O(n)
    /// pass, not by n upserts.
    pub(crate) fn new(
        slot: Arc<ReplicaSlot<P>>,
        publish_every: u64,
        seed: impl FnOnce(&mut dyn FnMut(P, TaskId, TrustRecord)),
    ) -> Self {
        let normalizer = slot.load().normalizer;
        let map = PeerMap::from_seed(seed);
        if map.records > 0 {
            slot.publish(ReadSnapshot { epoch: 0, folds: 0, normalizer, map: map.clone() });
        }
        Publisher { slot, map, normalizer, publish_every: publish_every.max(1), dirty: 0 }
    }

    /// Mirrors one fold receipt into the working copy.
    pub(crate) fn apply(&mut self, receipt: &DelegationReceipt<P>) {
        self.map.upsert(receipt.trustee, receipt.task, receipt.record);
    }

    /// Called once per non-empty fold, with the epoch the folding drain
    /// cycle completes as: advances the fold epoch (so staleness checks
    /// see the pending state), publishes if the policy says so, and
    /// mirrors the published epoch into `stats`.
    pub(crate) fn folded(&mut self, epoch: u64, stats: &mut ShardStats) {
        self.slot.note_fold(epoch);
        self.dirty += 1;
        if self.dirty >= self.publish_every {
            self.publish(epoch, stats);
        }
    }

    /// Publishes the working copy regardless of policy, at the epoch of
    /// the newest applied fold (the shutdown path: the last published
    /// state outlives the actor).
    pub(crate) fn force_publish(&mut self, stats: &mut ShardStats) {
        if self.dirty > 0 {
            let epoch = self.slot.last_fold.load(Ordering::Acquire);
            self.publish(epoch, stats);
        }
    }

    fn publish(&mut self, epoch: u64, stats: &mut ShardStats) {
        self.slot.publish(ReadSnapshot {
            epoch,
            // actor thread: every note_fold happened-before this publish,
            // so the counter names exactly the folds the map contains
            folds: self.slot.folds.load(Ordering::Acquire),
            normalizer: self.normalizer,
            map: self.map.clone(),
        });
        stats.published_epoch = epoch;
        self.dirty = 0;
    }
}

// ---------------------------------------------------------------------------
// ReplicaHandle: the zero-mailbox reader.
// ---------------------------------------------------------------------------

/// A read replica over a service's shards: serves `trustworthiness` /
/// `record` / `known_peers` / `task_records` directly off the latest
/// published [`ReadSnapshot`]s — zero mailbox traffic, so reads cost the
/// actors nothing and keep answering (from the last published state) even
/// while shards are saturated, reconnecting, or stopped.
///
/// Obtained from [`TrustServiceHandle::replica`] (one shard) or
/// [`ShardedTrustServiceHandle::replica`] (one slot per shard). All
/// methods are synchronous — there is nothing to await. For reads with an
/// explicit staleness *bound* (fall through to a fresh mailbox read when
/// too stale), use [`Freshness::Snapshot`] on the ordinary handles
/// instead.
///
/// [`TrustServiceHandle::replica`]: super::TrustServiceHandle::replica
/// [`ShardedTrustServiceHandle::replica`]: super::ShardedTrustServiceHandle::replica
/// [`Freshness::Snapshot`]: super::Freshness::Snapshot
#[derive(Debug)]
pub struct ReplicaHandle<P> {
    slots: Arc<[Arc<ReplicaSlot<P>>]>,
}

impl<P> Clone for ReplicaHandle<P> {
    fn clone(&self) -> Self {
        ReplicaHandle { slots: Arc::clone(&self.slots) }
    }
}

impl<P: Copy + Ord> ReplicaHandle<P> {
    pub(crate) fn over(slots: Arc<[Arc<ReplicaSlot<P>>]>) -> Self {
        ReplicaHandle { slots }
    }

    /// How many shard snapshots this replica reads over.
    pub fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// The latest published snapshot of every shard, in shard order.
    pub fn snapshots(&self) -> Vec<Arc<ReadSnapshot<P>>> {
        self.slots.iter().map(|s| s.load()).collect()
    }

    /// The worst per-shard lag (mutating folds the published snapshot is
    /// missing) across the replica — `0` means every shard's snapshot
    /// reflects its last fold.
    pub fn max_lag(&self) -> u64 {
        self.slots.iter().map(|s| s.lag()).max().unwrap_or(0)
    }

    /// Peers with at least one record across all shards — each exactly
    /// once, ascending — merged from the latest snapshots and stamped
    /// with their epochs (shard order).
    pub fn known_peers(&self) -> Cut<Vec<P>> {
        let snaps = self.snapshots();
        let epochs = snaps.iter().map(|s| s.epoch()).collect();
        let mut peers: Vec<P> = snaps.iter().flat_map(|s| s.known_peers()).collect();
        peers.sort_unstable();
        Cut { epochs, value: peers }
    }

    /// Every `(peer, record)` pair held for `task` across all shards,
    /// ascending by peer, merged from the latest snapshots and
    /// epoch-stamped.
    pub fn task_records(&self, task: TaskId) -> Cut<Vec<(P, TrustRecord)>> {
        let snaps = self.snapshots();
        let epochs = snaps.iter().map(|s| s.epoch()).collect();
        let mut records: Vec<(P, TrustRecord)> =
            snaps.iter().flat_map(|s| s.task_records(task)).collect();
        records.sort_unstable_by_key(|&(peer, _)| peer);
        Cut { epochs, value: records }
    }
}

impl<P: Copy + Ord + Hash> ReplicaHandle<P> {
    /// The slot owning `peer` under the stable shard routing (single-slot
    /// replicas route everything to their one slot).
    fn slot_of(&self, peer: P) -> &ReplicaSlot<P> {
        if self.slots.len() == 1 {
            &self.slots[0]
        } else {
            &self.slots[super::sharded::shard_index(&peer, self.slots.len())]
        }
    }

    /// The record for `(peer, task)` from the owning shard's latest
    /// snapshot.
    pub fn record(&self, peer: P, task: TaskId) -> Option<TrustRecord> {
        self.slot_of(peer).load().record(peer, task)
    }

    /// Eq. 18 trustworthiness toward `(peer, task)` from the owning
    /// shard's latest snapshot.
    pub fn trustworthiness(&self, peer: P, task: TaskId) -> Option<Trustworthiness> {
        self.slot_of(peer).load().trustworthiness(peer, task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn rec(interactions: u64) -> TrustRecord {
        TrustRecord { interactions, ..TrustRecord::default() }
    }

    #[test]
    fn peer_map_upserts_and_iterates_sorted() {
        let mut map: PeerMap<u32> = PeerMap::default();
        // adversarial order: ascending inserts are the AVL worst case
        for peer in 0..256u32 {
            map.upsert(peer, TaskId(0), rec(1));
        }
        for peer in (0..256u32).rev() {
            map.upsert(peer, TaskId(1), rec(2));
        }
        assert_eq!(map.records, 512);
        let mut seen = Vec::new();
        map.for_each(&mut |peer, recs| {
            assert_eq!(recs.len(), 2);
            seen.push(peer);
        });
        assert_eq!(seen, (0..256u32).collect::<Vec<_>>());
        // replacement does not grow the map
        map.upsert(7, TaskId(0), rec(9));
        assert_eq!(map.records, 512);
        assert_eq!(map.get(7).unwrap()[0].1.interactions, 9);
    }

    /// Asserts the AVL invariant below `link` and returns its height.
    fn check_avl<P>(link: &Link<P>) -> u8 {
        match link {
            None => 0,
            Some(n) => {
                let (hl, hr) = (check_avl(&n.left), check_avl(&n.right));
                assert!(hl.abs_diff(hr) <= 1, "AVL invariant");
                assert_eq!(n.height, 1 + hl.max(hr));
                n.height
            }
        }
    }

    /// Every `((peer, task), record)` entry in iteration order, after
    /// checking the tree's shape and its two counters.
    fn entries(map: &PeerMap<u32>) -> Vec<((u32, TaskId), TrustRecord)> {
        check_avl(&map.root);
        let (mut peers, mut out) = (0, Vec::new());
        map.for_each(&mut |peer, recs| {
            peers += 1;
            out.extend(recs.iter().map(|&(task, rec)| ((peer, task), rec)));
        });
        assert_eq!(map.peers, peers);
        assert_eq!(map.records, out.len());
        out
    }

    /// The nodes on the search path to `peer`, root first, by address —
    /// an `Arc` clone would itself share the node and force a copy.
    fn path(map: &PeerMap<u32>, peer: u32) -> Vec<*const Node<u32>> {
        let (mut cur, mut out) = (&map.root, Vec::new());
        while let Some(n) = cur {
            out.push(Arc::as_ptr(n));
            match peer.cmp(&n.peer) {
                CmpOrdering::Equal => break,
                CmpOrdering::Less => cur = &n.left,
                CmpOrdering::Greater => cur = &n.right,
            }
        }
        out
    }

    #[test]
    fn peer_map_stays_balanced() {
        let mut map: PeerMap<u32> = PeerMap::default();
        for peer in 0..4096u32 {
            map.upsert(peer, TaskId(0), rec(1));
        }
        let h = check_avl(&map.root);
        // 1.44 * log2(4096) ≈ 18
        assert!(h <= 18, "height {h} for 4096 keys");
    }

    proptest! {
        /// Random interleavings of upserts and publications against a
        /// `BTreeMap` model: the working copy tracks the model step by
        /// step, and every published clone still equals the model as of
        /// its own publication after all later upserts.
        #[test]
        fn cow_map_matches_a_btreemap_model(
            steps in prop::collection::vec((0u8..6, 0u32..40, 0u32..3, 0u64..1000), 1..300),
        ) {
            let mut map: PeerMap<u32> = PeerMap::default();
            let mut model: BTreeMap<(u32, TaskId), TrustRecord> = BTreeMap::new();
            let mut published = Vec::new();
            for (op, peer, task, interactions) in steps {
                if op == 0 {
                    published.push((map.clone(), model.clone()));
                } else {
                    map.upsert(peer, TaskId(task), rec(interactions));
                    model.insert((peer, TaskId(task)), rec(interactions));
                }
                prop_assert_eq!(entries(&map), model.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>());
            }
            for (snapshot, as_of) in published {
                prop_assert_eq!(entries(&snapshot), as_of.into_iter().collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn owned_path_is_written_in_place_until_the_next_publication() {
        let mut map: PeerMap<u32> = PeerMap::default();
        for peer in 0..1024u32 {
            map.upsert(peer, TaskId(0), rec(1));
        }
        let published = map.clone();
        let before = (path(&published, 700), entries(&published));

        map.upsert(700, TaskId(0), rec(2));
        let first = path(&map, 700);
        assert_eq!(first.len(), before.0.len());
        for (copied, shared) in first.iter().zip(&before.0) {
            assert_ne!(copied, shared, "a node the snapshot shares is copied, not written");
        }

        map.upsert(700, TaskId(0), rec(3));
        assert_eq!(path(&map, 700), first, "an owned path is written in place, root included");
        assert_eq!(map.get(700).unwrap()[0].1.interactions, 3);

        // the snapshot's path nodes are where and what they were
        assert_eq!(path(&published, 700), before.0);
        assert_eq!(entries(&published), before.1);

        // publishing again shares the root: the next upsert copies anew
        let republished = map.clone();
        map.upsert(700, TaskId(0), rec(4));
        assert_ne!(path(&map, 700)[0], first[0]);
        assert_eq!(republished.get(700).unwrap()[0].1.interactions, 3);
    }

    #[test]
    fn bulk_seed_builds_the_map_sequential_upserts_would() {
        // ascending seeds of every small size: the O(n) build is balanced
        for n in 0..130u32 {
            let bulk = PeerMap::from_seed(|sink| {
                for peer in 0..n {
                    sink(peer, TaskId(0), rec(1));
                    sink(peer, TaskId(2), rec(2));
                }
            });
            assert_eq!(bulk.peers, n as usize);
            assert_eq!(entries(&bulk).len(), 2 * n as usize);
        }

        // an unsorted seed that repeats keys: peers descending, tasks
        // descending within a peer, and a second pass overwriting half
        let mut seed = Vec::new();
        for peer in (0..200u32).rev() {
            for task in (0..3u32).rev() {
                seed.push((peer * 7 % 200, TaskId(task), rec(u64::from(peer))));
            }
        }
        for peer in (0..200u32).step_by(2) {
            seed.push((peer, TaskId(1), rec(9_000 + u64::from(peer))));
        }
        let mut sequential: PeerMap<u32> = PeerMap::default();
        for &(peer, task, rec) in &seed {
            sequential.upsert(peer, task, rec);
        }

        let slot: Arc<ReplicaSlot<u32>> = ReplicaSlot::new(Normalizer::UNIT);
        let mut publisher = Publisher::new(Arc::clone(&slot), 1, |sink| {
            for &(peer, task, rec) in &seed {
                sink(peer, task, rec);
            }
        });
        let seeded = slot.load();
        assert_eq!(seeded.epoch(), 0);
        assert_eq!(entries(&seeded.map), entries(&sequential));
        assert_eq!(seeded.known_peers(), (0..200u32).collect::<Vec<_>>());

        // bulk-built nodes take in-place writes like any others, and the
        // seeded snapshot does not see them
        publisher.map.upsert(3, TaskId(1), rec(1));
        sequential.upsert(3, TaskId(1), rec(1));
        assert_eq!(entries(&publisher.map), entries(&sequential));
        assert_ne!(entries(&seeded.map), entries(&sequential));
    }

    #[test]
    fn published_clones_share_structure_with_the_working_copy() {
        let mut map: PeerMap<u32> = PeerMap::default();
        for peer in 0..1024u32 {
            map.upsert(peer, TaskId(0), rec(1));
        }
        let published = map.clone();
        map.upsert(0, TaskId(0), rec(2));
        // the published snapshot still sees the old value...
        assert_eq!(published.get(0).unwrap()[0].1.interactions, 1);
        assert_eq!(map.get(0).unwrap()[0].1.interactions, 2);
        // ...and untouched subtrees are the same allocation
        let (a, b) = (published.root.as_ref().unwrap(), map.root.as_ref().unwrap());
        assert!(
            Arc::ptr_eq(&a.right.clone().unwrap(), &b.right.clone().unwrap())
                || Arc::ptr_eq(&a.left.clone().unwrap(), &b.left.clone().unwrap()),
            "one side of the root must be shared after a single-key update"
        );
    }

    #[test]
    fn slot_staleness_accounting() {
        let slot: Arc<ReplicaSlot<u32>> = ReplicaSlot::new(Normalizer::UNIT);
        let mut stats = ShardStats::default();
        let mut publisher = Publisher::new(Arc::clone(&slot), 3, |_| {});
        assert_eq!(slot.lag(), 0);
        assert!(slot.fresh_within(0).is_some(), "fresh spawn is never stale");

        publisher.apply(&DelegationReceipt {
            trustee: 5u32,
            task: TaskId(0),
            record: rec(1),
            trustworthiness: Trustworthiness::new(0.5),
            fulfilled: true,
        });
        publisher.folded(1, &mut stats);
        // publish_every = 3: fold noted, nothing published yet
        assert_eq!(slot.lag(), 1);
        assert!(slot.fresh_within(0).is_none(), "lag 1 > bound 0");
        assert!(slot.fresh_within(1).is_some());
        assert_eq!(slot.load().record_count(), 0, "still the empty epoch-0 snapshot");

        publisher.folded(2, &mut stats);
        publisher.folded(3, &mut stats);
        assert_eq!(slot.lag(), 0, "third fold published");
        assert_eq!(stats.published_epoch, 3);
        assert_eq!(slot.load().record(5, TaskId(0)).unwrap().interactions, 1);
    }
}
