//! The sharded service tier: N independent trust actors behind one
//! routing handle.
//!
//! A single [`TrustService`] actor serializes every commit through one
//! mailbox — correct, but a bottleneck once many requesters report
//! concurrently. [`ShardedTrustService::spawn_sharded`] partitions the
//! engine instead: N actor threads, each owning its **own**
//! [`TrustEngine`] over its own backend (durable ones included — see
//! [`TrustEngine::open_shard`] for per-shard journal directories), with
//! peers assigned to shards by a stable hash of the trustee.
//!
//! ```text
//!                                ┌── shard 0: actor + TrustEngine ──┐
//! ShardedTrustServiceHandle ─────┼── shard 1: actor + TrustEngine ──┤
//!   route(peer) = H(peer) mod N  ├── shard 2: actor + TrustEngine ──┤
//!   (Clone + Send)               └── shard 3: actor + TrustEngine ──┘
//! ```
//!
//! ## Routing rule
//!
//! Every operation that names a trustee — [`evaluate`], [`commit`],
//! [`submit`], [`submit_batch`], [`complete`], [`trustworthiness`],
//! [`record`] — is **peer-targeted**: it goes to exactly the shard that
//! owns `hash(peer) % N` and never crosses shards. The hash is the std
//! `DefaultHasher` with its fixed default keys (the same choice as the
//! in-memory [`ShardedBackend`](crate::backend::ShardedBackend)), so the
//! peer→shard layout is deterministic across runs and across processes —
//! which is what lets a durable deployment reopen each shard's directory
//! and find every peer exactly where it left it. Reopen with the **same
//! shard count**: records do not migrate.
//!
//! Because one peer's history lives entirely inside one shard, all
//! single-actor guarantees hold per peer: commits for a peer fold in
//! mailbox order, and a caller that awaited its commit ack reads its own
//! write on any subsequent query for that peer.
//!
//! ## Broadcast queries and the consistency story
//!
//! [`known_peers`], [`task_records`] and [`shard_stats`] have no single
//! owning shard: they **fan out** to every shard and merge. Since shards
//! are disjoint by construction the merge is a plain union (sorted by
//! peer) — but the shards answer from N mailboxes that drain
//! independently, so the caller chooses what "one answer" means via
//! [`Freshness`] — parallel-but-independent instants ([`Relaxed`]), one
//! linearizable global cut ([`Aligned`]), or bounded-staleness snapshot
//! reads that skip the mailboxes entirely ([`Snapshot`]). The [`Freshness`]
//! variant docs are the normative statement of each guarantee; the
//! [`replica`](super::replica) module covers how snapshots are published.
//!
//! [`Relaxed`]: Freshness::Relaxed
//! [`Aligned`]: Freshness::Aligned
//! [`Snapshot`]: Freshness::Snapshot
//!
//! If any shard stopped, a broadcast fails with the typed
//! [`TrustError::ServiceStopped`] instead of silently merging the
//! survivors — and an aligned round aborts its rendezvous so the live
//! shards degrade gracefully instead of blocking forever.
//!
//! ## Batches and backpressure
//!
//! [`submit_batch`] splits a caller batch into per-shard vectors and ships
//! each as **one** vectored message, so every shard folds its sub-batch in
//! a single `commit_batch_receipts` storage pass; the receipts are
//! re-stitched into the caller's original order. Backpressure stays per
//! shard — a saturated shard blocks only submitters routed to it — and is
//! observable via [`shard_stats`]: per-shard live mailbox depth plus
//! drained-commit-batch sizes ([`ShardStats`]).
//!
//! [`evaluate`]: TrustApi::evaluate
//! [`commit`]: TrustApi::commit
//! [`submit`]: TrustApi::submit
//! [`submit_batch`]: ShardedTrustServiceHandle::submit_batch
//! [`complete`]: TrustApi::complete
//! [`trustworthiness`]: TrustApi::trustworthiness
//! [`record`]: TrustApi::record
//! [`known_peers`]: TrustApi::known_peers
//! [`task_records`]: TrustApi::task_records
//! [`shard_stats`]: ShardedTrustServiceHandle::shard_stats
//!
//! ```
//! use siot_core::prelude::*;
//! use siot_core::service::{block_on, Freshness, ServiceOptions, ShardedTrustService};
//!
//! let task = Task::uniform(TaskId(0), [CharacteristicId(0)]).unwrap();
//! let service = ShardedTrustService::spawn_sharded(4, ServiceOptions::default(), |_shard| {
//!     let mut engine: TrustStore<u32> = TrustStore::new();
//!     engine.register_task(task.clone());
//!     engine
//! });
//! let handle = service.handle();
//!
//! block_on(async {
//!     // peer-targeted: each commit goes straight to its owning shard
//!     for peer in 0..8u32 {
//!         let request =
//!             DelegationRequest::new(peer, &task, Goal::ANY, Context::amicable(task.id()))
//!                 .committed();
//!         handle.complete(request, DelegationOutcome::succeeded(0.9, 0.1)).await.unwrap();
//!     }
//!     // broadcast: fan out, merge — here as one aligned global cut
//!     let peers = handle.known_peers_with(Freshness::Aligned).await.unwrap();
//!     assert_eq!(peers.len(), 8);
//! });
//!
//! let engines = service.shutdown().unwrap();
//! assert_eq!(engines.iter().map(|e| e.record_count()).sum::<usize>(), 8);
//! ```

use super::{
    Command, Cut, Message, Pending, Rendezvous, ServiceOptions, ShardStats, TrustApi, TrustService,
    TrustServiceHandle,
};
use crate::backend::TrustBackend;
use crate::delegation::{
    CompletedDelegation, DelegationOutcome, DelegationReceipt, DelegationRequest,
    EvaluatedDelegation,
};
use crate::error::TrustError;
use crate::record::TrustRecord;
use crate::store::TrustEngine;
use crate::task::{Task, TaskId};
use crate::tw::Trustworthiness;
use std::collections::hash_map::DefaultHasher;
use std::future::Future;
use std::hash::{Hash, Hasher};
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};

/// The explicit per-query consistency choice, for broadcast *and*
/// peer-targeted reads across every serving tier (in-process, sharded,
/// remote, fleet). **These variant docs are the normative statement of
/// the guarantees** — the tier docs reference them rather than restating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Freshness {
    /// One mailbox round per shard involved, fanned out in parallel for
    /// broadcasts: per-shard **read-your-awaited-writes** (queued commits
    /// fold before the answer), but the N shard answers are taken at
    /// independent instants — a batch still in flight across two shards
    /// may appear in one and not (yet) the other. Cheap; the default.
    #[default]
    Relaxed,
    /// A linearizable global cut: all shards rendezvous — queues folded,
    /// nothing mutating — and answer from the same instant, so the merge
    /// is a state that actually existed. Holds every shard for a barrier;
    /// reserve it for audits and rankings that need cross-shard
    /// exactness. On a single actor (or a peer-targeted read) it is the
    /// same mailbox round as `Relaxed`.
    Aligned,
    /// A **bounded-staleness snapshot read**: answered from the shard's
    /// latest published [`ReadSnapshot`](super::ReadSnapshot) — zero
    /// mailbox traffic, zero actor work — provided the snapshot is
    /// missing at most `max_epoch_lag` of the shard's mutating folds; a
    /// staler shard **falls through** to the `Relaxed` mailbox read
    /// (fresh, read-your-awaited-writes) for its part of the answer. With
    /// the default [`publish_every = 1`] the snapshot is published before
    /// each fold's acks, so `Snapshot { max_epoch_lag: 0 }` still reads
    /// your own awaited writes while the actor keeps up, and degrades to
    /// the mailbox — never to a silently stale answer — when it does not.
    /// See the [`replica`](super::replica) module docs for the epoch and
    /// lag scheme.
    ///
    /// [`publish_every = 1`]: super::ServiceOptions::publish_every
    Snapshot {
        /// The largest acceptable number of the shard's mutating folds
        /// the snapshot may be missing (read-only drains never count).
        /// `0` = only a snapshot covering every applied fold;
        /// `u64::MAX` = always take the snapshot. Under
        /// [`publish_every`](super::ServiceOptions::publish_every)` = K`
        /// the lag never exceeds `K - 1`.
        max_epoch_lag: u64,
    },
}

impl Freshness {
    /// Shorthand for [`Freshness::Snapshot`] with the given bound.
    pub fn snapshot(max_epoch_lag: u64) -> Self {
        Freshness::Snapshot { max_epoch_lag }
    }
}

/// The stable peer→shard assignment: std `DefaultHasher` (SipHash with
/// fixed keys — deterministic across runs and processes) reduced mod `n`.
/// The fleet tier reuses the same rule to route peers across *nodes*, so
/// a peer's home is computable from the address list alone.
pub(crate) fn shard_index<P: Hash>(peer: &P, n: usize) -> usize {
    let mut h = DefaultHasher::new();
    peer.hash(&mut h);
    (h.finish() % n as u64) as usize
}

/// A cloneable, `Send` routing handle over every shard of a
/// [`ShardedTrustService`] — its [`TrustApi`] routes peer-targeted
/// operations to the owning shard and fans broadcasts out. See the
/// [module docs](self) for the routing rule and the consistency story.
#[derive(Debug)]
pub struct ShardedTrustServiceHandle<P> {
    shards: Arc<[TrustServiceHandle<P>]>,
    /// Serializes [`Freshness::Aligned`] send-rounds across handle clones:
    /// two concurrent rendezvous enqueued in different per-shard orders
    /// would deadlock (shard 0 standing in rendezvous A while shard 1
    /// stands in B); holding this lock while a round's N queries are sent
    /// keeps every shard's mailbox order consistent.
    aligner: Arc<Mutex<()>>,
}

impl<P> Clone for ShardedTrustServiceHandle<P> {
    fn clone(&self) -> Self {
        ShardedTrustServiceHandle {
            shards: Arc::clone(&self.shards),
            aligner: Arc::clone(&self.aligner),
        }
    }
}

impl<P> From<TrustServiceHandle<P>> for ShardedTrustServiceHandle<P> {
    /// A one-shard router over a single actor — how a plain
    /// [`TrustService`] is served where a routing handle is expected (the
    /// wire server takes one).
    fn from(handle: TrustServiceHandle<P>) -> Self {
        ShardedTrustServiceHandle { shards: Arc::from([handle]), aligner: Arc::default() }
    }
}

impl<P: Copy + Ord + Hash + Send + Sync + 'static> ShardedTrustServiceHandle<P> {
    /// How many shards this handle routes over.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns `peer` — `hash(peer) % shard_count()`, stable
    /// across runs. Exposed so callers (benches, dashboards) can attribute
    /// per-shard stats to the peers behind them.
    pub fn shard_of(&self, peer: P) -> usize {
        shard_index(&peer, self.shards.len())
    }

    fn shard(&self, peer: P) -> &TrustServiceHandle<P> {
        &self.shards[self.shard_of(peer)]
    }

    /// Splits `batch` into per-shard vectors, ships each as **one**
    /// vectored sub-batch (one `commit_batch_receipts` storage pass per
    /// shard), and resolves to the receipts re-stitched in the caller's
    /// original order. The sub-batches are sent eagerly — every shard
    /// folds in parallel while the caller awaits.
    ///
    /// An empty batch resolves immediately (no round trips), even after
    /// shutdown.
    pub fn submit_batch(
        &self,
        batch: Vec<CompletedDelegation<P>>,
    ) -> impl Future<Output = Result<Vec<DelegationReceipt<P>>, TrustError>> {
        let n = self.shards.len();
        let total = batch.len();
        let mut per_shard: Vec<Vec<CompletedDelegation<P>>> = (0..n).map(|_| Vec::new()).collect();
        let mut origins: Vec<Vec<usize>> = (0..n).map(|_| Vec::new()).collect();
        for (i, completed) in batch.into_iter().enumerate() {
            let s = shard_index(&completed.trustee(), n);
            per_shard[s].push(completed);
            origins[s].push(i);
        }
        // eager sends: every shard's sub-batch is in flight before the
        // caller's first poll
        type Routed<P> = Vec<(Vec<usize>, Pending<Vec<DelegationReceipt<P>>>)>;
        let routed: Routed<P> = per_shard
            .into_iter()
            .zip(origins)
            .zip(self.shards.iter())
            .filter(|((sub, _), _)| !sub.is_empty())
            .map(|((sub, origin), shard)| (origin, shard.submit_batch(sub)))
            .collect();
        async move {
            let mut stitched: Vec<Option<DelegationReceipt<P>>> =
                (0..total).map(|_| None).collect();
            for (origin, pending) in routed {
                let receipts = pending.await?;
                for (i, receipt) in origin.into_iter().zip(receipts) {
                    stitched[i] = Some(receipt);
                }
            }
            Ok(stitched
                .into_iter()
                .map(|r| r.expect("each shard returns one receipt per submitted session"))
                .collect())
        }
    }

    /// [`TrustApi::record_with`], sent now to the owning shard: under
    /// [`Freshness::Snapshot`] the shard's latest published snapshot
    /// answers (zero mailbox traffic) while within the staleness bound,
    /// falling through to the fresh mailbox read otherwise.
    pub fn record_with(
        &self,
        peer: P,
        task: TaskId,
        freshness: Freshness,
    ) -> Pending<Option<TrustRecord>> {
        self.shard(peer).record_round_with(peer, task, freshness)
    }

    /// [`TrustApi::trustworthiness_with`], sent now to the owning shard —
    /// see [`record_with`](Self::record_with).
    pub fn trustworthiness_with(
        &self,
        peer: P,
        task: TaskId,
        freshness: Freshness,
    ) -> Pending<Option<Trustworthiness>> {
        self.shard(peer).trustworthiness_round_with(peer, task, freshness)
    }

    /// A zero-mailbox [`ReplicaHandle`](super::ReplicaHandle) over every
    /// shard's published snapshots — the read-replica tier (see the
    /// [`replica`](super::replica) module docs).
    pub fn replica(&self) -> super::ReplicaHandle<P> {
        super::ReplicaHandle::over(
            self.shards.iter().map(|shard| std::sync::Arc::clone(shard.slot())).collect(),
        )
    }

    /// [`TrustApi::known_peers_with`], answered as an epoch-stamped
    /// [`Cut`]: the per-shard drain-cycle counters name the instant(s) the
    /// answer was taken at — under [`Freshness::Aligned`], one global
    /// instant. The sends happen in this call; the future only merges. The
    /// wire tier ships the epochs to remote clients verbatim.
    pub fn known_peers_cut(
        &self,
        freshness: Freshness,
    ) -> impl Future<Output = Result<Cut<Vec<P>>, TrustError>> + Send + 'static {
        let fan = self.broadcast(
            freshness,
            |shard, align| shard.known_peers_in(align),
            |snapshot| (snapshot.epoch(), snapshot.known_peers()),
        );
        async move {
            let (epochs, per_shard) = split_epochs(fan.await?);
            // shards are disjoint by construction: the union is a plain merge
            let mut peers: Vec<P> = per_shard.into_iter().flatten().collect();
            peers.sort_unstable();
            Ok(Cut { epochs, value: peers })
        }
    }

    /// [`TrustApi::task_records_with`] as an epoch-stamped [`Cut`] — see
    /// [`known_peers_cut`](Self::known_peers_cut).
    pub fn task_records_cut(
        &self,
        task: TaskId,
        freshness: Freshness,
    ) -> impl Future<Output = Result<Cut<Vec<(P, TrustRecord)>>, TrustError>> + Send + 'static {
        let fan = self.broadcast(
            freshness,
            |shard, align| shard.task_records_in(task, align),
            |snapshot| (snapshot.epoch(), snapshot.task_records(task)),
        );
        async move {
            let (epochs, per_shard) = split_epochs(fan.await?);
            let mut records: Vec<(P, TrustRecord)> = per_shard.into_iter().flatten().collect();
            records.sort_unstable_by_key(|&(peer, _)| peer);
            Ok(Cut { epochs, value: records })
        }
    }

    /// Per-shard saturation counters, indexed by shard: live mailbox depth
    /// and capacity plus drained-commit-batch bookkeeping. The backpressure
    /// dashboard — a shard whose `mailbox_depth` pins near its
    /// `mailbox_capacity` is the one blocking its submitters.
    pub fn shard_stats(
        &self,
    ) -> impl Future<Output = Result<Vec<ShardStats>, TrustError>> + Send + 'static {
        FanOut::new(self.shards.iter().map(|shard| shard.stats_in()).collect(), None)
    }

    /// One message per shard, all sent before this returns.
    fn fan_out<R>(&self, send: impl FnMut(&TrustServiceHandle<P>) -> Pending<R>) -> FanOut<R> {
        FanOut::new(self.shards.iter().map(send).collect(), None)
    }

    /// One broadcast round: send the query to every shard (with a shared
    /// rendezvous when aligned), await all replies concurrently. Under
    /// [`Freshness::Snapshot`] each shard within the staleness bound is
    /// answered from its published snapshot via `snap` — already resolved,
    /// zero mailbox traffic — and only the too-stale shards get a (relaxed)
    /// mailbox round via `send`.
    fn broadcast<R>(
        &self,
        freshness: Freshness,
        mut send: impl FnMut(&TrustServiceHandle<P>, Option<Arc<Rendezvous>>) -> Pending<R>,
        mut snap: impl FnMut(&super::ReadSnapshot<P>) -> R,
    ) -> FanOut<R> {
        match freshness {
            Freshness::Relaxed => self.fan_out(|shard| send(shard, None)),
            Freshness::Snapshot { .. } => {
                self.fan_out(|shard| match shard.snapshot_for(freshness) {
                    Some(snapshot) => Pending::ready(snap(&snapshot)),
                    None => send(shard, None),
                })
            }
            Freshness::Aligned => {
                let rv = Rendezvous::new(self.shards.len());
                // hold the aligner across the whole send round (dropped
                // before the await): once all N queries are enqueued, the
                // per-shard mailbox orders are fixed and a second round
                // cannot interleave ahead on some shards and behind on
                // others
                let _round = self.aligner.lock().unwrap_or_else(|e| e.into_inner());
                let pending =
                    self.shards.iter().map(|shard| send(shard, Some(Arc::clone(&rv)))).collect();
                FanOut::new(pending, Some(rv))
            }
        }
    }
}

/// Every operation sends now — peer-targeted ones to the owning shard,
/// broadcasts to every shard — so the order of calls is the order each
/// mailbox sees, which the wire server relies on to keep a connection's
/// requests in arrival order.
impl<P: Copy + Ord + Hash + Send + Sync + 'static> TrustApi<P> for ShardedTrustServiceHandle<P> {
    fn submit(
        &self,
        completed: CompletedDelegation<P>,
    ) -> impl Future<Output = Result<DelegationReceipt<P>, TrustError>> + Send + 'static {
        self.shard(completed.trustee()).submit(completed)
    }

    fn submit_batch(
        &self,
        batch: Vec<CompletedDelegation<P>>,
    ) -> impl Future<Output = Result<Vec<DelegationReceipt<P>>, TrustError>> + Send + 'static {
        ShardedTrustServiceHandle::submit_batch(self, batch)
    }

    /// Runs inside the shard that owns the request's trustee — it holds
    /// that peer's entire history, so the evaluation sees exactly what an
    /// unsharded engine would.
    fn evaluate(
        &self,
        request: DelegationRequest<P>,
    ) -> impl Future<Output = Result<EvaluatedDelegation<P>, TrustError>> + Send + 'static {
        self.shard(request.trustee()).evaluate(request)
    }

    fn complete(
        &self,
        request: DelegationRequest<P>,
        outcome: DelegationOutcome,
    ) -> impl Future<Output = Result<DelegationReceipt<P>, TrustError>> + Send + 'static {
        self.shard(request.trustee()).complete(request, outcome)
    }

    /// A task is configuration every shard must share, whatever peers it
    /// owns: the definition is broadcast.
    fn register_task(
        &self,
        task: Task,
    ) -> impl Future<Output = Result<(), TrustError>> + Send + 'static {
        let registered = self.fan_out(|shard| {
            let task = task.clone();
            shard.request(|reply| Message::Command(Command::RegisterTask { task, reply }))
        });
        async move {
            registered.await?;
            Ok(())
        }
    }

    fn record_with(
        &self,
        peer: P,
        task: TaskId,
        freshness: Freshness,
    ) -> impl Future<Output = Result<Option<TrustRecord>, TrustError>> + Send + 'static {
        ShardedTrustServiceHandle::record_with(self, peer, task, freshness)
    }

    fn trustworthiness_with(
        &self,
        peer: P,
        task: TaskId,
        freshness: Freshness,
    ) -> impl Future<Output = Result<Option<Trustworthiness>, TrustError>> + Send + 'static {
        ShardedTrustServiceHandle::trustworthiness_with(self, peer, task, freshness)
    }

    fn known_peers_with(
        &self,
        freshness: Freshness,
    ) -> impl Future<Output = Result<Vec<P>, TrustError>> + Send + 'static {
        let cut = self.known_peers_cut(freshness);
        async move { Ok(cut.await?.value) }
    }

    fn task_records_with(
        &self,
        task: TaskId,
        freshness: Freshness,
    ) -> impl Future<Output = Result<Vec<(P, TrustRecord)>, TrustError>> + Send + 'static {
        let cut = self.task_records_cut(task, freshness);
        async move { Ok(cut.await?.value) }
    }

    fn shard_stats(
        &self,
    ) -> impl Future<Output = Result<Vec<ShardStats>, TrustError>> + Send + 'static {
        ShardedTrustServiceHandle::shard_stats(self)
    }

    fn flush(&self) -> impl Future<Output = Result<(), TrustError>> + Send + 'static {
        let flushed =
            self.fan_out(|shard| shard.request(|reply| Message::Command(Command::Flush { reply })));
        async move { flushed.await?.into_iter().collect() }
    }

    /// The stops are sent to every shard at once, so the shards drain in
    /// parallel; the first flush error is returned.
    fn shutdown(&self) -> impl Future<Output = Result<(), TrustError>> + Send + 'static {
        let stops: Vec<_> = self.shards.iter().map(TrustServiceHandle::stop).collect();
        async move {
            for stop in stops {
                stop.await?;
            }
            Ok(())
        }
    }
}

/// Splits a fan-out of epoch-stamped per-shard answers into the epoch
/// vector (shard order) and the answers.
fn split_epochs<T>(per_shard: Vec<(u64, T)>) -> (Vec<u64>, Vec<T>) {
    let mut epochs = Vec::with_capacity(per_shard.len());
    let mut values = Vec::with_capacity(per_shard.len());
    for (epoch, value) in per_shard {
        epochs.push(epoch);
        values.push(value);
    }
    (epochs, values)
}

/// Joins one broadcast round: polls every shard's [`Pending`] concurrently
/// (a dead shard must not leave the others un-polled — under an aligned
/// round they are blocked in the rendezvous until everyone is served) and
/// resolves to the replies in shard order. The first shard error resolves
/// the whole round to that error, aborting the rendezvous so live shards
/// degrade to answering unaligned instead of blocking forever; dropping
/// the future mid-round aborts likewise.
pub(crate) struct FanOut<R> {
    slots: Vec<FanOutSlot<R>>,
    align: Option<Arc<Rendezvous>>,
}

enum FanOutSlot<R> {
    Waiting(Pending<R>),
    Done(Option<R>),
}

impl<R> FanOut<R> {
    pub(crate) fn new(pending: Vec<Pending<R>>, align: Option<Arc<Rendezvous>>) -> Self {
        FanOut { slots: pending.into_iter().map(FanOutSlot::Waiting).collect(), align }
    }
}

// Slots hold `Pending`s (themselves `Unpin`) or owned values — freely
// movable, so the join future is `Unpin` for every `R`.
impl<R> Unpin for FanOut<R> {}

impl<R> Future for FanOut<R> {
    type Output = Result<Vec<R>, TrustError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut done = true;
        for slot in &mut this.slots {
            if let FanOutSlot::Waiting(pending) = slot {
                match Pin::new(pending).poll(cx) {
                    Poll::Ready(Ok(value)) => *slot = FanOutSlot::Done(Some(value)),
                    Poll::Ready(Err(e)) => {
                        if let Some(rv) = this.align.take() {
                            rv.abort();
                        }
                        return Poll::Ready(Err(e));
                    }
                    Poll::Pending => done = false,
                }
            }
        }
        if !done {
            return Poll::Pending;
        }
        // completed normally: disarm the drop-abort
        this.align = None;
        let merged = this
            .slots
            .iter_mut()
            .map(|slot| match slot {
                FanOutSlot::Done(value) => {
                    value.take().expect("a resolved FanOut is not re-polled")
                }
                FanOutSlot::Waiting(_) => unreachable!("all slots done"),
            })
            .collect();
        Poll::Ready(Ok(merged))
    }
}

impl<R> Drop for FanOut<R> {
    fn drop(&mut self) {
        if let Some(rv) = self.align.take() {
            rv.abort();
        }
    }
}

/// A running sharded trust service: the N shard actors plus the first
/// routing handle. See the [module docs](self).
#[derive(Debug)]
pub struct ShardedTrustService<P, B = crate::backend::BTreeBackend<P>> {
    services: Vec<TrustService<P, B>>,
    handle: ShardedTrustServiceHandle<P>,
}

impl<P, B> ShardedTrustService<P, B>
where
    P: Copy + Ord + Hash + Send + Sync + 'static,
    B: TrustBackend<P> + Send + 'static,
{
    /// Spawns `shards.max(1)` independent actors, each owning the engine
    /// `make_engine(shard)` builds for it. Build per-shard state inside
    /// the closure — for the durable case, one journal directory per shard
    /// via [`TrustEngine::open_shard`] (use
    /// [`try_spawn_sharded`](Self::try_spawn_sharded) when construction
    /// can fail). Register shared task definitions either in the closure
    /// or once through [`TrustApi::register_task`].
    pub fn spawn_sharded(
        shards: usize,
        options: ServiceOptions,
        mut make_engine: impl FnMut(usize) -> TrustEngine<P, B>,
    ) -> Self {
        Self::try_spawn_sharded(shards, options, |shard| Ok(make_engine(shard)))
            .expect("infallible engine construction")
    }

    /// [`spawn_sharded`](Self::spawn_sharded) for fallible engine
    /// construction (opening durable shard directories). If a later shard
    /// fails to open, the already-spawned shards are shut down cleanly
    /// before the error is returned.
    pub fn try_spawn_sharded(
        shards: usize,
        options: ServiceOptions,
        mut make_engine: impl FnMut(usize) -> Result<TrustEngine<P, B>, TrustError>,
    ) -> Result<Self, TrustError> {
        let shards = shards.max(1);
        let mut services = Vec::with_capacity(shards);
        for shard in 0..shards {
            match make_engine(shard) {
                Ok(engine) => services.push(TrustService::spawn_named(
                    engine,
                    options,
                    format!("siot-trust-shard-{shard}"),
                )),
                Err(e) => {
                    for service in services {
                        let _ = service.shutdown();
                    }
                    return Err(e);
                }
            }
        }
        let handles: Arc<[TrustServiceHandle<P>]> =
            services.iter().map(|service| service.handle()).collect();
        Ok(ShardedTrustService {
            services,
            handle: ShardedTrustServiceHandle {
                shards: handles,
                aligner: Arc::new(Mutex::new(())),
            },
        })
    }

    /// A new routing handle over all shards.
    pub fn handle(&self) -> ShardedTrustServiceHandle<P> {
        self.handle.clone()
    }

    /// How many shard actors are running.
    pub fn shard_count(&self) -> usize {
        self.services.len()
    }

    /// A direct handle to one shard's actor — an escape hatch for tests
    /// and diagnostics (e.g. stopping a single shard to exercise degraded
    /// broadcasts). Routine traffic goes through [`handle`](Self::handle).
    pub fn shard_handle(&self, shard: usize) -> TrustServiceHandle<P> {
        self.services[shard].handle()
    }

    /// Gracefully stops every shard and hands the engines back in shard
    /// order — each shard drains, folds and acks everything queued, and
    /// flushes its backend. The stop messages are broadcast before the
    /// first join, so the shards drain in parallel. On the first shard
    /// whose final flush failed, that error is returned (remaining engines
    /// are dropped, their journals flushing on drop as usual).
    pub fn shutdown(self) -> Result<Vec<TrustEngine<P, B>>, TrustError> {
        let stops: Vec<_> = self.handle.shards.iter().map(TrustServiceHandle::stop).collect();
        let mut engines = Vec::with_capacity(self.services.len());
        for (service, stop) in self.services.into_iter().zip(stops) {
            let flushed = super::block_on(stop);
            engines.push(service.thread.join().map_err(|_| TrustError::WorkerPanicked)?);
            flushed?;
        }
        Ok(engines)
    }
}

#[cfg(test)]
mod tests {
    use super::super::block_on;
    use super::*;
    use crate::context::Context;
    use crate::goal::Goal;
    use crate::store::TrustStore;
    use crate::task::CharacteristicId;

    fn task(id: u32) -> Task {
        Task::uniform(TaskId(id), [CharacteristicId(0)]).unwrap()
    }

    fn spawn(shards: usize) -> ShardedTrustService<u32> {
        let t = task(0);
        ShardedTrustService::spawn_sharded(shards, ServiceOptions::default(), |_| {
            let mut engine: TrustStore<u32> = TrustStore::new();
            engine.register_task(t.clone());
            engine
        })
    }

    fn completed(peer: u32, q: f64) -> CompletedDelegation<u32> {
        let t = task(0);
        let scratch: TrustStore<u32> = TrustStore::new();
        DelegationRequest::new(peer, &t, Goal::ANY, Context::amicable(t.id()))
            .committed()
            .activate(&scratch)
            .finish(DelegationOutcome::succeeded(q, 0.1))
            .unwrap()
    }

    #[test]
    fn routing_is_stable_and_partitions_every_peer() {
        let service = spawn(4);
        let handle = service.handle();
        assert_eq!(handle.shard_count(), 4);
        for peer in 0..64u32 {
            let s = handle.shard_of(peer);
            assert!(s < 4);
            assert_eq!(s, handle.shard_of(peer), "stable routing");
            // the same assignment the in-memory sharded backend would make,
            // modulo the reduction: both hash with DefaultHasher::new()
            assert_eq!(s, shard_index(&peer, 4));
        }
        block_on(async {
            for peer in 0..64u32 {
                handle.commit(completed(peer, 0.9)).await.unwrap();
            }
        });
        let engines = service.shutdown().unwrap();
        // every peer landed exactly on its routed shard
        for (shard, engine) in engines.iter().enumerate() {
            for peer in engine.known_peers() {
                assert_eq!(shard_index(&peer, 4), shard);
            }
        }
        assert_eq!(engines.iter().map(|e| e.record_count()).sum::<usize>(), 64);
    }

    #[test]
    fn one_shard_is_a_plain_service() {
        let service = spawn(1);
        let handle = service.handle();
        block_on(async {
            handle.commit(completed(3, 0.8)).await.unwrap();
            assert_eq!(handle.known_peers().await.unwrap(), vec![3]);
            assert!(handle.trustworthiness(3, TaskId(0)).await.unwrap().is_some());
        });
        let engines = service.shutdown().unwrap();
        assert_eq!(engines.len(), 1);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let service = spawn(0);
        assert_eq!(service.shard_count(), 1);
        service.shutdown().unwrap();
    }

    #[test]
    fn submit_batch_stitches_receipts_in_caller_order() {
        let service = spawn(3);
        let handle = service.handle();
        let peers: Vec<u32> = (0..40).collect();
        let batch: Vec<_> = peers.iter().map(|&p| completed(p, 0.9)).collect();
        let receipts = block_on(handle.submit_batch(batch)).unwrap();
        assert_eq!(receipts.len(), peers.len());
        // receipt i is peer i's — the per-shard sub-batches were re-stitched
        for (i, receipt) in receipts.iter().enumerate() {
            assert_eq!(receipt.trustee, peers[i]);
            assert_eq!(receipt.record.interactions, 1);
        }
        service.shutdown().unwrap();
    }

    #[test]
    fn empty_batch_resolves_without_round_trips_even_after_shutdown() {
        let service = spawn(2);
        let handle = service.handle();
        assert_eq!(block_on(handle.submit_batch(Vec::new())).unwrap(), vec![]);
        service.shutdown().unwrap();
        // nothing to commit: still succeeds once every shard is gone…
        assert_eq!(block_on(handle.submit_batch(Vec::new())).unwrap(), vec![]);
        // …while a non-empty batch fails typed
        let err = block_on(handle.submit_batch(vec![completed(1, 0.5)])).unwrap_err();
        assert_eq!(err, TrustError::ServiceStopped);
    }

    #[test]
    fn broadcasts_merge_and_align_across_shards() {
        let service = spawn(4);
        let handle = service.handle();
        block_on(async {
            handle.register_task(task(1)).await.unwrap();
            let batch: Vec<_> = (0..32u32).map(|p| completed(p, 0.7)).collect();
            handle.submit_batch(batch).await.unwrap();
            for freshness in [Freshness::Relaxed, Freshness::Aligned] {
                let peers = handle.known_peers_with(freshness).await.unwrap();
                assert_eq!(peers, (0..32u32).collect::<Vec<_>>(), "{freshness:?}");
                let records = handle.task_records_with(TaskId(0), freshness).await.unwrap();
                assert_eq!(records.len(), 32);
                assert!(records.windows(2).all(|w| w[0].0 < w[1].0), "ascending by peer");
            }
            // the task broadcast reached every shard: peers on any shard
            // evaluate task 1 by inference from task 0 history
            let evaluated = handle
                .evaluate(DelegationRequest::new(
                    5,
                    &task(1),
                    Goal::ANY,
                    Context::amicable(TaskId(1)),
                ))
                .await
                .unwrap();
            assert!(evaluated.would_delegate());
        });
        service.shutdown().unwrap();
    }

    #[test]
    fn shard_stats_expose_per_shard_commit_counts() {
        let service = spawn(2);
        let handle = service.handle();
        block_on(async {
            let batch: Vec<_> = (0..24u32).map(|p| completed(p, 0.9)).collect();
            handle.submit_batch(batch).await.unwrap();
            let stats = handle.shard_stats().await.unwrap();
            assert_eq!(stats.len(), 2);
            assert_eq!(stats.iter().map(|s| s.committed).sum::<u64>(), 24);
            for s in &stats {
                assert!(s.commit_batches >= 1);
                assert!(s.largest_commit_batch >= s.last_commit_batch);
                assert_eq!(s.mailbox_depth, 0, "drained when the stats query was served");
                assert_eq!(
                    s.mailbox_capacity,
                    ServiceOptions::default().mailbox,
                    "capacity reported so remote callers can compute saturation"
                );
            }
        });
        service.shutdown().unwrap();
    }

    #[test]
    fn cuts_are_epoch_stamped_and_monotone() {
        let service = spawn(3);
        let handle = service.handle();
        block_on(async {
            let batch: Vec<_> = (0..12u32).map(|p| completed(p, 0.9)).collect();
            handle.submit_batch(batch).await.unwrap();
            let first = handle.known_peers_cut(Freshness::Aligned).await.unwrap();
            assert_eq!(first.epochs.len(), 3, "one epoch per shard");
            assert_eq!(first.value.len(), 12);
            // more work, then a later cut: every shard's epoch is >= —
            // per-shard drain counters only move forward
            let batch: Vec<_> = (12..24u32).map(|p| completed(p, 0.9)).collect();
            handle.submit_batch(batch).await.unwrap();
            let second = handle.task_records_cut(TaskId(0), Freshness::Aligned).await.unwrap();
            assert_eq!(second.value.len(), 24);
            for (a, b) in first.epochs.iter().zip(&second.epochs) {
                assert!(b >= a, "epochs are monotone per shard");
            }
        });
        service.shutdown().unwrap();
    }

    #[test]
    fn concurrent_aligned_rounds_do_not_deadlock() {
        let service = spawn(3);
        block_on(async {
            let batch: Vec<_> = (0..30u32).map(|p| completed(p, 0.8)).collect();
            service.handle().submit_batch(batch).await.unwrap();
        });
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let handle = service.handle();
                scope.spawn(move || {
                    for _ in 0..25 {
                        let peers = block_on(handle.known_peers_with(Freshness::Aligned)).unwrap();
                        assert_eq!(peers.len(), 30);
                    }
                });
            }
        });
        service.shutdown().unwrap();
    }
}
