//! An async command/query facade over the trust engine: the trust
//! *process* served to many concurrent requesters.
//!
//! Every API before this one drives a `&mut TrustEngine` synchronously —
//! fine for a simulation loop, wrong for anything network-facing, where
//! folding observations must not block request threads. The SIoT
//! trust-management literature treats trust computation as a **shared
//! service** queried by many autonomous objects at once; this module gives
//! the engine that shape:
//!
//! ```text
//! TrustServiceHandle ──┐                         ┌──────────────────────┐
//! TrustServiceHandle ──┼── bounded MPSC mailbox ─▶  actor thread        │
//! TrustServiceHandle ──┘   Command<P> / Query<P> │  owns TrustEngine<P,B>│
//!        (Clone + Send,                          │  drains → commit_batch│
//!         methods are async fns)                 └──────────────────────┘
//! ```
//!
//! * A [`TrustService::spawn`] takes **ownership** of an engine over any
//!   [`TrustBackend`] — including the durable
//!   [`LogBackend`](crate::log_backend::LogBackend) — and moves it onto a
//!   dedicated actor thread. The actor is the **only** way several
//!   writers reach one engine: no backend takes writes through `&self`.
//! * [`TrustApi`] is the **one surface** every tier serves: this actor's
//!   [`TrustServiceHandle`], the [`sharded`] router, the [`remote`] client
//!   and the [`fleet`] router all implement it, so code written against
//!   the trait runs on any of them. Handles are `Clone + Send + Sync`, and
//!   every operation returns a plain owned [`std::future::Future`] — no
//!   runtime required. Drive them with [`block_on`] (re-exported here from
//!   the vendored `futures` shim) or any executor.
//! * The **delegation session is the wire unit**: a handle
//!   [`evaluate`](TrustApi::evaluate)s a
//!   [`DelegationRequest`] inside the actor, the caller turns the
//!   [`Decision`](crate::delegation::Decision) into an
//!   [`ActiveDelegation`](crate::delegation::ActiveDelegation) it finishes
//!   locally, and the resulting [`CompletedDelegation`] — one-shot and
//!   pre-validated by construction — travels back through
//!   [`commit`](TrustApi::commit).
//! * The actor **batches the mailbox drain**: adjacent commits in one
//!   drain fold through a single
//!   [`commit_batch_receipts`](TrustEngine::commit_batch_receipts) storage
//!   pass (one shard-routed backend pass, not one per wakeup), and
//!   every caller still gets its own [`DelegationReceipt`]. Queries are
//!   answered in arrival order, so a caller that awaited its commit ack
//!   always reads its own write.
//! * **Graceful shutdown**: [`TrustApi::shutdown`] (or dropping every
//!   handle) drains the mailbox, commits everything queued, flushes the
//!   backend — on a durable engine no acked commit is lost — and only then
//!   stops. [`TrustService::shutdown`] additionally hands the engine back
//!   for inspection or reuse.
//!
//! Backpressure is by bounded mailbox: once `ServiceOptions::mailbox`
//! messages are queued, submitting threads block in `send` until the actor
//! drains — the service sheds load onto its callers instead of growing an
//! unbounded queue. Saturation is observable: [`TrustApi::shard_stats`]
//! reports the live mailbox depth and the drained-commit-batch sizes
//! ([`ShardStats`]), so callers can see when they are the bottleneck.
//!
//! One actor is still one thread. When a single mailbox becomes the serial
//! bottleneck, the [`sharded`] tier partitions the engine across N
//! independent actors by a stable hash of the trustee peer —
//! [`ShardedTrustService::spawn_sharded`] — behind one routing
//! [`ShardedTrustServiceHandle`] with the same API plus fan-out/merge
//! broadcast queries. A single actor is served over the wire as a
//! one-shard router (`ShardedTrustServiceHandle::from(handle)`).
//!
//! ```
//! use siot_core::prelude::*;
//! use siot_core::service::{block_on, ServiceOptions, TrustService};
//!
//! let mut engine: TrustStore<u32> = TrustStore::new();
//! let task = Task::uniform(TaskId(0), [CharacteristicId(0)]).unwrap();
//! engine.register_task(task.clone());
//!
//! let service = TrustService::spawn(engine, ServiceOptions::default());
//! let handle = service.handle();
//!
//! block_on(async {
//!     // the session lifecycle over the wire: evaluate in the actor,
//!     // finish locally, commit the completion back
//!     let request = DelegationRequest::new(7, &task, Goal::profitable(), Context::amicable(task.id()))
//!         .with_prior(TrustRecord::with_priors(1.0, 1.0, 0.0, 0.0));
//!     let Decision::Delegate(active) = handle.delegate(request).await.unwrap() else {
//!         unreachable!("optimistic prior delegates")
//!     };
//!     let completed = active.finish(DelegationOutcome::succeeded(0.9, 0.2)).unwrap();
//!     let receipt = handle.commit(completed).await.unwrap();
//!     assert!(receipt.fulfilled);
//!     assert!(handle.trustworthiness(7, task.id()).await.unwrap().unwrap().value() > 0.5);
//! });
//!
//! let engine = service.shutdown().unwrap();
//! assert_eq!(engine.record_count(), 1);
//! ```

use crate::backend::TrustBackend;
use crate::delegation::{
    CompletedDelegation, DelegationOutcome, DelegationReceipt, DelegationRequest,
    EvaluatedDelegation,
};
use crate::error::TrustError;
use crate::record::{ForgettingFactors, TrustRecord};
use crate::store::TrustEngine;
use crate::task::{Task, TaskId};
use crate::tw::Trustworthiness;
use futures::channel::oneshot;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll};
use std::thread::JoinHandle;
use std::time::Instant;

mod api;
pub mod fault;
pub mod fleet;
pub mod remote;
pub mod replica;
pub mod sharded;

pub use api::TrustApi;
pub use fault::{Fault, FaultPlan, FaultProxy};
pub use fleet::{FleetCut, FleetOptions, FleetTrustHandle, NodeStats};
pub use futures::executor::block_on;
pub use remote::{DedupWindow, RemotePending, RemoteTrustServer, RemoteTrustServiceHandle};
pub use replica::{ReadSnapshot, ReplicaHandle};
pub use sharded::{Freshness, ShardedTrustService, ShardedTrustServiceHandle};

use replica::{Publisher, ReplicaSlot};

/// A consistent answer to a broadcast query, named by the **epoch vector**
/// at which it was taken: one drain-cycle counter per shard (see
/// [`ShardStats::drains`]), sampled at the instant each shard answered.
///
/// Epochs are per-shard monotone, so two cuts from the same handle are
/// comparable shard-wise: if every epoch of cut B is ≥ the matching epoch
/// of cut A, B observed at least everything A did. Under
/// [`Freshness::Aligned`] the vector names one global instant — all shards
/// stood in the rendezvous together when these epochs were sampled — which
/// is what lets a *remote* client reason about alignment without sharing
/// the server's clock: the epoch scheme is the wire form of the
/// consistency story.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cut<T> {
    /// Per-shard drain-cycle counters at the instant each shard answered,
    /// in shard order. A single-actor service reports one epoch.
    pub epochs: Vec<u64>,
    /// The merged answer.
    pub value: T,
}

/// Construction knobs for a [`TrustService`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceOptions {
    /// Forgetting factors every commit folds with — engine policy, fixed
    /// at spawn so all requesters blend history identically.
    pub betas: ForgettingFactors,
    /// Mailbox capacity (minimum 1): messages queued beyond it block the
    /// submitting thread until the actor drains.
    pub mailbox: usize,
    /// Publish a [`ReadSnapshot`] after every `publish_every`-th drain
    /// cycle that folded commits (minimum 1; the default `1` publishes at
    /// the end of every mutating drain, *before* the drain's receipts are
    /// acked, so an awaited commit is already visible to snapshot reads).
    /// Larger values amortize publication on write-hot shards at the cost
    /// of replica staleness — the lag [`Freshness::Snapshot`] bounds. A
    /// larger value also widens the interval over which the mirror reuses
    /// the nodes it already copied: a tree node is copied at most once
    /// between two publications, however many commits rewrite it. See
    /// the [`replica`] module docs. Drains that fold nothing never
    /// publish.
    pub publish_every: u64,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions { betas: ForgettingFactors::figures(), mailbox: 1024, publish_every: 1 }
    }
}

/// Saturation counters for one service actor ("shard" because the sharded
/// tier reports one of these per shard — a plain [`TrustService`] is the
/// one-shard case).
///
/// Returned, one per shard, by [`TrustApi::shard_stats`]. The commit counters are the
/// actor's own bookkeeping (consistent with the mailbox order at the moment
/// the stats query was served); `mailbox_depth` is sampled from the live
/// send counter, so it reflects messages enqueued *after* the query too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Messages sent into the mailbox and not yet picked up by the actor —
    /// the backpressure signal: pinned near the mailbox capacity means
    /// submitters are blocking.
    pub mailbox_depth: usize,
    /// The mailbox's capacity ([`ServiceOptions::mailbox`], clamped to at
    /// least 1) — reported alongside the depth so *remote* callers can
    /// compute the saturation ratio `mailbox_depth / mailbox_capacity`
    /// without knowing the server's configuration.
    pub mailbox_capacity: usize,
    /// Mailbox drain cycles the actor has completed.
    pub drains: u64,
    /// Commit storage passes (`commit_batch_receipts` calls) the actor ran.
    pub commit_batches: u64,
    /// Sessions folded in total.
    pub committed: u64,
    /// Largest single commit batch folded in one storage pass — how much
    /// batching the drain actually achieved under load.
    pub largest_commit_batch: usize,
    /// Size of the most recent commit batch.
    pub last_commit_batch: usize,
    /// The drain epoch of the last published [`ReadSnapshot`] (`0` until
    /// the first publication) — staleness observable next to
    /// `mailbox_depth`: compare against [`drains`](Self::drains) to see
    /// how far snapshot readers trail this shard's write path. Reported
    /// to remote clients like every other counter.
    pub published_epoch: u64,
    /// Cumulative nanoseconds the actor spent in each stage of its commit
    /// storage passes — the write path's cost split, read off the clock
    /// five times per pass (never per commit). Divide by
    /// [`committed`](Self::committed) for a per-commit figure. `fold_ns`:
    /// the engine's `commit_batch_receipts` plus the group-commit barrier.
    pub fold_ns: u64,
    /// Mirroring the pass's receipts into the replica's working copy (see
    /// [`replica`]): the node copies and in-place writes.
    pub mirror_ns: u64,
    /// Noting the fold and, when [`ServiceOptions::publish_every`] says
    /// so, swapping the new [`ReadSnapshot`] in — which also frees the
    /// nodes only the replaced snapshot still held.
    pub publish_ns: u64,
    /// Sending the receipts back to their submitters.
    pub ack_ns: u64,
}

impl ShardStats {
    /// Mailbox saturation in `[0, 1]`: `mailbox_depth / mailbox_capacity`.
    /// The load-shedding signal a fleet dashboard actually wants — near
    /// `1.0` this shard is the one blocking its submitters.
    pub fn saturation(&self) -> f64 {
        // capacity is clamped to at least 1 at spawn, but a zero from a
        // hand-built value must not poison a dashboard with NaN
        self.mailbox_depth as f64 / (self.mailbox_capacity.max(1)) as f64
    }
}

/// A cross-shard rendezvous: every party blocks in [`arrive`](Self::arrive)
/// until all `parties` have arrived (or the rendezvous is aborted), then
/// all proceed. The [`Freshness::Aligned`] broadcast primitive — while all
/// shard actors stand inside the rendezvous simultaneously, none is
/// mutating, so the answers they compute immediately after form one
/// consistent global cut.
#[derive(Debug)]
pub(crate) struct Rendezvous {
    parties: usize,
    state: Mutex<RendezvousState>,
    cv: Condvar,
}

#[derive(Debug)]
struct RendezvousState {
    arrived: usize,
    aborted: bool,
}

impl Rendezvous {
    fn new(parties: usize) -> Arc<Self> {
        Arc::new(Rendezvous {
            parties,
            state: Mutex::new(RendezvousState { arrived: 0, aborted: false }),
            cv: Condvar::new(),
        })
    }

    /// Blocks until every party arrived or [`abort`](Self::abort) ran.
    fn arrive(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.arrived += 1;
        if st.arrived >= self.parties || st.aborted {
            self.cv.notify_all();
            return;
        }
        while st.arrived < self.parties && !st.aborted {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Releases every blocked party without waiting for the stragglers —
    /// called when a shard can no longer arrive (stopped before its query),
    /// so the live shards degrade to answering unaligned instead of
    /// deadlocking. The merge that requested alignment discards their
    /// answers and surfaces the typed error.
    fn abort(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.aborted = true;
        self.cv.notify_all();
    }
}

/// State-mutating requests served by the actor.
enum Command<P> {
    /// Fold one finished session. Batched with adjacent commits per drain.
    Commit { completed: CompletedDelegation<P>, reply: oneshot::Sender<DelegationReceipt<P>> },
    /// Fold a whole pre-built batch of finished sessions in one message:
    /// the vectored wire unit of [`TrustServiceHandle::submit_batch`] (and
    /// of the sharded tier's per-shard sub-batches). Joins the drain's
    /// pending batch, so the shard still runs one
    /// `commit_batch_receipts` storage pass; the receipts come back as one
    /// vector in batch order.
    CommitMany {
        batch: Vec<CompletedDelegation<P>>,
        reply: oneshot::Sender<Vec<DelegationReceipt<P>>>,
    },
    /// The whole session in one message: the actor activates the request
    /// (committed — the decision was the caller's), validates the outcome,
    /// and folds it in the same drain batch as adjacent commits.
    Complete {
        request: DelegationRequest<P>,
        outcome: DelegationOutcome,
        reply: oneshot::Sender<Result<DelegationReceipt<P>, TrustError>>,
    },
    /// Register (or replace) a task definition in the actor's engine.
    RegisterTask { task: Task, reply: oneshot::Sender<()> },
    /// Push engine state down to stable storage.
    Flush { reply: oneshot::Sender<Result<(), TrustError>> },
    /// Drain the mailbox, flush the backend, stop the actor.
    Shutdown { reply: oneshot::Sender<Result<(), TrustError>> },
}

/// Read-only requests served by the actor.
enum Query<P> {
    /// Run the §3.3 evaluation against the actor's engine.
    Evaluate { request: DelegationRequest<P>, reply: oneshot::Sender<EvaluatedDelegation<P>> },
    /// Eq. 18 trustworthiness toward `(peer, task)`.
    Trustworthiness { peer: P, task: TaskId, reply: oneshot::Sender<Option<Trustworthiness>> },
    /// The raw record for `(peer, task)`.
    Record { peer: P, task: TaskId, reply: oneshot::Sender<Option<TrustRecord>> },
    /// Every peer with at least one record. `align` is the sharded tier's
    /// [`Freshness::Aligned`] rendezvous: when set, the actor folds its
    /// pending commits, arrives, and answers only once every shard stands
    /// at the same cut. The reply is stamped with the actor's drain-cycle
    /// **epoch** ([`ShardStats::drains`] at answer time) — the wire tier's
    /// cross-process consistency token (see [`Cut`]).
    KnownPeers { align: Option<Arc<Rendezvous>>, reply: oneshot::Sender<(u64, Vec<P>)> },
    /// Every `(peer, record)` pair held for one task — a single atomic
    /// snapshot (one round trip, consistent against concurrent commits).
    /// `align` and the epoch stamp as in [`Query::KnownPeers`].
    TaskRecords {
        task: TaskId,
        align: Option<Arc<Rendezvous>>,
        reply: oneshot::Sender<(u64, Vec<(P, TrustRecord)>)>,
    },
    /// The actor's saturation counters ([`ShardStats`]).
    Stats { reply: oneshot::Sender<ShardStats> },
}

enum Message<P> {
    Command(Command<P>),
    Query(Query<P>),
}

/// A reply obligation for one or more elements of the pending commit batch.
enum Ack<P> {
    Commit(oneshot::Sender<DelegationReceipt<P>>),
    Complete(oneshot::Sender<Result<DelegationReceipt<P>, TrustError>>),
    /// A vectored submission: the next `len` receipts belong to this
    /// caller, in its batch order.
    Many {
        reply: oneshot::Sender<Vec<DelegationReceipt<P>>>,
        len: usize,
    },
}

/// The future of one actor round trip: eagerly sent on creation, resolves
/// when the actor replies. [`TrustError::ServiceStopped`] if the actor is
/// gone — before the send or before the reply.
pub struct Pending<R> {
    state: PendingState<R>,
}

enum PendingState<R> {
    Waiting(oneshot::Receiver<R>),
    /// The send itself failed; the error is taken on the resolving poll.
    Failed(Option<TrustError>),
    /// Resolved without an actor round trip (e.g. an empty batch).
    Ready(Option<R>),
}

impl<R> Pending<R> {
    fn waiting(rx: oneshot::Receiver<R>) -> Self {
        Pending { state: PendingState::Waiting(rx) }
    }

    fn failed(err: TrustError) -> Self {
        Pending { state: PendingState::Failed(Some(err)) }
    }

    fn ready(value: R) -> Self {
        Pending { state: PendingState::Ready(Some(value)) }
    }
}

// No self-references: the state is a oneshot receiver or an owned value,
// both freely movable, so the future is `Unpin` for every `R`.
impl<R> Unpin for Pending<R> {}

impl<R> Future for Pending<R> {
    type Output = Result<R, TrustError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        match &mut self.get_mut().state {
            PendingState::Waiting(rx) => Pin::new(rx)
                .poll(cx)
                .map(|r| r.map_err(|oneshot::Canceled| TrustError::ServiceStopped)),
            PendingState::Failed(err) => {
                Poll::Ready(Err(err.take().expect("a resolved Pending is not re-polled")))
            }
            PendingState::Ready(value) => {
                Poll::Ready(Ok(value.take().expect("a resolved Pending is not re-polled")))
            }
        }
    }
}

/// A cloneable, `Send` handle to a running [`TrustService`] actor — the
/// one-actor [`TrustApi`]. Every operation sends its message when called
/// and returns a future that resolves when the actor replies.
#[derive(Debug)]
pub struct TrustServiceHandle<P> {
    tx: SyncSender<Message<P>>,
    /// Messages enqueued and not yet picked up by the actor — incremented
    /// before every send, decremented by the actor per message received.
    /// The live half of [`ShardStats::mailbox_depth`].
    depth: Arc<AtomicUsize>,
    /// The actor's snapshot publication point — the read-replica tier's
    /// zero-mailbox seam (see [`replica`]).
    slot: Arc<ReplicaSlot<P>>,
}

impl<P> Clone for TrustServiceHandle<P> {
    fn clone(&self) -> Self {
        TrustServiceHandle {
            tx: self.tx.clone(),
            depth: Arc::clone(&self.depth),
            slot: Arc::clone(&self.slot),
        }
    }
}

impl<P: Copy + Ord + Send + Sync + 'static> TrustServiceHandle<P> {
    /// Sends one message, blocking briefly if the mailbox is full.
    fn request<R>(&self, build: impl FnOnce(oneshot::Sender<R>) -> Message<P>) -> Pending<R> {
        let (tx, rx) = oneshot::channel();
        // increment before the send so the counter never under-reports: the
        // actor only decrements messages it actually received
        self.depth.fetch_add(1, Ordering::Relaxed);
        match self.tx.send(build(tx)) {
            Ok(()) => Pending::waiting(rx),
            Err(_) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                Pending::failed(TrustError::ServiceStopped)
            }
        }
    }

    /// Eagerly submits a whole batch of finished sessions as **one**
    /// message and returns the future of their receipts, in batch order.
    /// The actor folds the batch through a single
    /// `commit_batch_receipts` storage pass (merged with whatever else its
    /// drain finds), so a vectored submission costs one channel hop and one
    /// oneshot instead of one per session — the wire shape the sharded
    /// tier's per-shard sub-batches use.
    ///
    /// An empty batch resolves immediately with an empty receipt vector —
    /// no mailbox round trip, and (having nothing to commit) it succeeds
    /// even after the service stopped.
    pub fn submit_batch(
        &self,
        batch: Vec<CompletedDelegation<P>>,
    ) -> Pending<Vec<DelegationReceipt<P>>> {
        if batch.is_empty() {
            return Pending::ready(Vec::new());
        }
        self.request(|reply| Message::Command(Command::CommitMany { batch, reply }))
    }

    /// The latest published [`ReadSnapshot`] — zero mailbox traffic,
    /// infallible (the last published state keeps answering after the
    /// service stopped). See the [`replica`] module docs.
    pub fn read_snapshot(&self) -> Arc<ReadSnapshot<P>> {
        self.slot.load()
    }

    /// A zero-mailbox [`ReplicaHandle`] over this service's snapshots.
    pub fn replica(&self) -> ReplicaHandle<P> {
        ReplicaHandle::over(vec![Arc::clone(&self.slot)].into())
    }

    /// The publication slot — the sharded tier's access to this shard's
    /// snapshots.
    pub(crate) fn slot(&self) -> &Arc<ReplicaSlot<P>> {
        &self.slot
    }

    /// The published snapshot when `freshness` accepts one and it is within
    /// the staleness bound; `None` means the actor answers. `Relaxed` and
    /// `Aligned` are both the ordinary mailbox read on a single actor.
    pub(crate) fn snapshot_for(&self, freshness: Freshness) -> Option<Arc<ReadSnapshot<P>>> {
        match freshness {
            Freshness::Snapshot { max_epoch_lag } => self.slot.fresh_within(max_epoch_lag),
            Freshness::Relaxed | Freshness::Aligned => None,
        }
    }

    /// The eager record read: a snapshot hit resolves without any actor
    /// round trip.
    pub(crate) fn record_round_with(
        &self,
        peer: P,
        task: TaskId,
        freshness: Freshness,
    ) -> Pending<Option<TrustRecord>> {
        match self.snapshot_for(freshness) {
            Some(snap) => Pending::ready(snap.record(peer, task)),
            None => self.request(|reply| Message::Query(Query::Record { peer, task, reply })),
        }
    }

    /// The eager trustworthiness read; see [`Self::record_round_with`].
    pub(crate) fn trustworthiness_round_with(
        &self,
        peer: P,
        task: TaskId,
        freshness: Freshness,
    ) -> Pending<Option<Trustworthiness>> {
        match self.snapshot_for(freshness) {
            Some(snap) => Pending::ready(snap.trustworthiness(peer, task)),
            None => {
                self.request(|reply| Message::Query(Query::Trustworthiness { peer, task, reply }))
            }
        }
    }

    /// Every known peer, epoch-stamped, with an optional rendezvous — the
    /// sharded tier's aligned fan-out seam.
    fn known_peers_in(&self, align: Option<Arc<Rendezvous>>) -> Pending<(u64, Vec<P>)> {
        self.request(|reply| Message::Query(Query::KnownPeers { align, reply }))
    }

    /// Every `(peer, record)` pair for `task`, epoch-stamped, with an
    /// optional rendezvous — see [`Self::known_peers_in`].
    fn task_records_in(
        &self,
        task: TaskId,
        align: Option<Arc<Rendezvous>>,
    ) -> Pending<(u64, Vec<(P, TrustRecord)>)> {
        self.request(|reply| Message::Query(Query::TaskRecords { task, align, reply }))
    }

    /// The actor's saturation counters, sent now.
    fn stats_in(&self) -> Pending<ShardStats> {
        self.request(|reply| Message::Query(Query::Stats { reply }))
    }

    /// The eager stop: the actor drains, flushes and exits. An actor that
    /// is already gone — another handle stopped it, and its drain and
    /// flush still happened — counts as stopped.
    fn stop(&self) -> impl Future<Output = Result<(), TrustError>> + Send + 'static {
        let stopped = self.request(|reply| Message::Command(Command::Shutdown { reply }));
        async move { stopped.await.unwrap_or(Ok(())) }
    }
}

impl<P: Copy + Ord + Send + Sync + 'static> TrustApi<P> for TrustServiceHandle<P> {
    fn submit(
        &self,
        completed: CompletedDelegation<P>,
    ) -> impl Future<Output = Result<DelegationReceipt<P>, TrustError>> + Send + 'static {
        self.request(|reply| Message::Command(Command::Commit { completed, reply }))
    }

    fn submit_batch(
        &self,
        batch: Vec<CompletedDelegation<P>>,
    ) -> impl Future<Output = Result<Vec<DelegationReceipt<P>>, TrustError>> + Send + 'static {
        TrustServiceHandle::submit_batch(self, batch)
    }

    fn evaluate(
        &self,
        request: DelegationRequest<P>,
    ) -> impl Future<Output = Result<EvaluatedDelegation<P>, TrustError>> + Send + 'static {
        self.request(|reply| Message::Query(Query::Evaluate { request, reply }))
    }

    fn complete(
        &self,
        request: DelegationRequest<P>,
        outcome: DelegationOutcome,
    ) -> impl Future<Output = Result<DelegationReceipt<P>, TrustError>> + Send + 'static {
        let completed =
            self.request(|reply| Message::Command(Command::Complete { request, outcome, reply }));
        async move { completed.await? }
    }

    fn register_task(
        &self,
        task: Task,
    ) -> impl Future<Output = Result<(), TrustError>> + Send + 'static {
        self.request(|reply| Message::Command(Command::RegisterTask { task, reply }))
    }

    fn record_with(
        &self,
        peer: P,
        task: TaskId,
        freshness: Freshness,
    ) -> impl Future<Output = Result<Option<TrustRecord>, TrustError>> + Send + 'static {
        self.record_round_with(peer, task, freshness)
    }

    fn trustworthiness_with(
        &self,
        peer: P,
        task: TaskId,
        freshness: Freshness,
    ) -> impl Future<Output = Result<Option<Trustworthiness>, TrustError>> + Send + 'static {
        self.trustworthiness_round_with(peer, task, freshness)
    }

    fn known_peers_with(
        &self,
        freshness: Freshness,
    ) -> impl Future<Output = Result<Vec<P>, TrustError>> + Send + 'static {
        let peers = match self.snapshot_for(freshness) {
            Some(snap) => Pending::ready((snap.epoch(), snap.known_peers())),
            None => self.known_peers_in(None),
        };
        async move { Ok(peers.await?.1) }
    }

    fn task_records_with(
        &self,
        task: TaskId,
        freshness: Freshness,
    ) -> impl Future<Output = Result<Vec<(P, TrustRecord)>, TrustError>> + Send + 'static {
        let records = match self.snapshot_for(freshness) {
            Some(snap) => Pending::ready((snap.epoch(), snap.task_records(task))),
            None => self.task_records_in(task, None),
        };
        async move { Ok(records.await?.1) }
    }

    fn shard_stats(
        &self,
    ) -> impl Future<Output = Result<Vec<ShardStats>, TrustError>> + Send + 'static {
        let stats = self.stats_in();
        async move { Ok(vec![stats.await?]) }
    }

    fn flush(&self) -> impl Future<Output = Result<(), TrustError>> + Send + 'static {
        let flushed = self.request(|reply| Message::Command(Command::Flush { reply }));
        async move { flushed.await? }
    }

    fn shutdown(&self) -> impl Future<Output = Result<(), TrustError>> + Send + 'static {
        self.stop()
    }
}

/// A running trust service: the actor thread owning the engine, plus the
/// first [`TrustServiceHandle`]. See the [module docs](self).
#[derive(Debug)]
pub struct TrustService<P, B = crate::backend::BTreeBackend<P>> {
    handle: TrustServiceHandle<P>,
    thread: JoinHandle<TrustEngine<P, B>>,
}

impl<P, B> TrustService<P, B>
where
    P: Copy + Ord + Send + Sync + 'static,
    B: TrustBackend<P> + Send + 'static,
{
    /// Takes ownership of `engine` and moves it onto a dedicated actor
    /// thread. Register task definitions before spawning (or via
    /// [`TrustApi::register_task`]).
    pub fn spawn(engine: TrustEngine<P, B>, options: ServiceOptions) -> Self {
        Self::spawn_named(engine, options, "siot-trust-service".into())
    }

    /// [`Self::spawn`] with an explicit actor-thread name — the sharded
    /// tier names each shard's thread after its index.
    fn spawn_named(engine: TrustEngine<P, B>, options: ServiceOptions, name: String) -> Self {
        let capacity = options.mailbox.max(1);
        let (tx, rx) = std::sync::mpsc::sync_channel(capacity);
        let betas = options.betas;
        let depth = Arc::new(AtomicUsize::new(0));
        let actor_depth = Arc::clone(&depth);
        // the replica seam: seed the publisher with the engine's recovered
        // records (a reopened durable engine serves its state from epoch 0)
        // and hand the shared slot to both the actor and every handle
        let slot = ReplicaSlot::new(engine.normalizer());
        let publisher = Publisher::new(Arc::clone(&slot), options.publish_every, |sink| {
            engine.for_each_stored_record(sink)
        });
        let thread = std::thread::Builder::new()
            .name(name)
            .spawn(move || actor(engine, rx, betas, actor_depth, capacity, publisher))
            .expect("actor thread spawns");
        TrustService { handle: TrustServiceHandle { tx, depth, slot }, thread }
    }

    /// A zero-mailbox [`ReplicaHandle`] over this service's published
    /// snapshots — see the [`replica`] module docs.
    pub fn read_replica(&self) -> ReplicaHandle<P> {
        self.handle.replica()
    }

    /// A new handle to the running actor.
    pub fn handle(&self) -> TrustServiceHandle<P> {
        self.handle.clone()
    }

    /// Gracefully stops the actor ([`TrustApi::shutdown`]) and
    /// hands the engine back. If the final durable flush failed, its error
    /// is returned instead and the engine is dropped — the journal retries
    /// the flush on drop, and callers that must keep the engine on flush
    /// failure can `flush().await` through the handle first.
    pub fn shutdown(self) -> Result<TrustEngine<P, B>, TrustError> {
        let flushed = block_on(self.handle.stop());
        let engine = self.thread.join().map_err(|_| TrustError::WorkerPanicked)?;
        flushed.map(|()| engine)
    }
}

/// The actor loop: block on the first message, drain greedily, batch
/// adjacent commits through one `commit_batch_receipts` pass, answer
/// queries in arrival order. Exits — flushing first — on shutdown or once
/// every handle is gone; either way the engine is returned to
/// [`TrustService::shutdown`]'s `join`.
fn actor<P: Copy + Ord, B: TrustBackend<P>>(
    mut engine: TrustEngine<P, B>,
    rx: Receiver<Message<P>>,
    betas: ForgettingFactors,
    depth: Arc<AtomicUsize>,
    mailbox_capacity: usize,
    mut publisher: Publisher<P>,
) -> TrustEngine<P, B> {
    let mut pending: Vec<CompletedDelegation<P>> = Vec::new();
    let mut acks: Vec<Ack<P>> = Vec::new();
    let mut stats = ShardStats { mailbox_capacity, ..ShardStats::default() };
    'serve: loop {
        let Ok(first) = rx.recv() else {
            // every handle dropped: nothing is queued (recv only errs on
            // empty + disconnected) — flush best-effort, leave the last
            // state published for surviving replicas, and stop
            publisher.force_publish(&mut stats);
            let _ = engine.flush();
            break 'serve;
        };
        let mut next = Some(first);
        let mut stop: Vec<oneshot::Sender<Result<(), TrustError>>> = Vec::new();
        // one drain: the blocking message plus everything already queued
        loop {
            depth.fetch_sub(1, Ordering::Relaxed);
            match next.take() {
                Some(Message::Command(cmd)) => match cmd {
                    Command::Commit { completed, reply } => {
                        pending.push(completed);
                        acks.push(Ack::Commit(reply));
                    }
                    Command::CommitMany { batch, reply } => {
                        let len = batch.len();
                        pending.extend(batch);
                        acks.push(Ack::Many { reply, len });
                    }
                    Command::Complete { request, outcome, reply } => {
                        // activation against current state: for a committed
                        // session the evaluation gates nothing and the fold
                        // depends only on outcome + context, so joining the
                        // batch is exactly sequential semantics
                        match request.activate(&engine).finish(outcome) {
                            Ok(completed) => {
                                pending.push(completed);
                                acks.push(Ack::Complete(reply));
                            }
                            Err(e) => {
                                let _ = reply.send(Err(e));
                            }
                        }
                    }
                    Command::RegisterTask { task, reply } => {
                        engine.register_task(task);
                        let _ = reply.send(());
                    }
                    Command::Flush { reply } => {
                        flush_batch(
                            &mut engine,
                            &mut pending,
                            &mut acks,
                            &betas,
                            &mut stats,
                            &mut publisher,
                        );
                        let _ = reply.send(engine.flush());
                    }
                    Command::Shutdown { reply } => stop.push(reply),
                },
                Some(Message::Query(query)) => {
                    // strict arrival order: queued commits fold before the
                    // query is answered, so awaited writes are always read
                    flush_batch(
                        &mut engine,
                        &mut pending,
                        &mut acks,
                        &betas,
                        &mut stats,
                        &mut publisher,
                    );
                    match query {
                        Query::Evaluate { request, reply } => {
                            let _ = reply.send(request.evaluate(&engine));
                        }
                        Query::Trustworthiness { peer, task, reply } => {
                            let _ = reply.send(engine.trustworthiness(peer, task));
                        }
                        Query::Record { peer, task, reply } => {
                            let _ = reply.send(engine.record(peer, task));
                        }
                        Query::KnownPeers { align, reply } => {
                            // aligned: stand in the rendezvous until every
                            // shard has folded its queue and stopped
                            // mutating, then answer from that global cut
                            if let Some(rv) = align {
                                rv.arrive();
                            }
                            let _ = reply.send((stats.drains, engine.known_peers()));
                        }
                        Query::TaskRecords { task, align, reply } => {
                            if let Some(rv) = align {
                                rv.arrive();
                            }
                            let records = engine
                                .known_peers()
                                .into_iter()
                                .filter_map(|peer| engine.record(peer, task).map(|rec| (peer, rec)))
                                .collect();
                            let _ = reply.send((stats.drains, records));
                        }
                        Query::Stats { reply } => {
                            let _ = reply.send(ShardStats {
                                mailbox_depth: depth.load(Ordering::Relaxed),
                                ..stats
                            });
                        }
                    }
                }
                None => {}
            }
            match rx.try_recv() {
                Ok(msg) => next = Some(msg),
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }
        // the drain's accumulated commit batch: one storage pass, receipts
        // fanned back out per caller
        flush_batch(&mut engine, &mut pending, &mut acks, &betas, &mut stats, &mut publisher);
        stats.drains += 1;
        if !stop.is_empty() {
            // publish whatever the policy still held back: the last
            // published state keeps serving replicas after the actor exits
            publisher.force_publish(&mut stats);
            let flushed = engine.flush();
            for reply in stop {
                let _ = reply.send(flushed.clone());
            }
            break 'serve;
        }
    }
    engine
}

/// Folds the pending commit batch in one storage pass and acks every
/// submitter with its receipt(s).
fn flush_batch<P: Copy + Ord, B: TrustBackend<P>>(
    engine: &mut TrustEngine<P, B>,
    pending: &mut Vec<CompletedDelegation<P>>,
    acks: &mut Vec<Ack<P>>,
    betas: &ForgettingFactors,
    stats: &mut ShardStats,
    publisher: &mut Publisher<P>,
) {
    if pending.is_empty() {
        return;
    }
    let folded = pending.len();
    stats.committed += folded as u64;
    stats.commit_batches += 1;
    stats.largest_commit_batch = stats.largest_commit_batch.max(folded);
    stats.last_commit_batch = folded;
    let started = Instant::now();
    let receipts = engine.commit_batch_receipts(std::mem::take(pending), betas);
    // ack-after-sync: `commit_batch_receipts` ends with the group-commit
    // barrier, so by this line every frame of the drained batch is covered
    // by one fsync (under FsyncPolicy::Always). The explicit barrier
    // restates the seam — it is free when already clean — and only then do
    // the held receipts go back to their callers: an acked receipt is a
    // durable receipt.
    let _ = engine.commit_barrier();
    let folded_at = Instant::now();
    // publish-before-ack: each receipt carries the absolute post-fold
    // record, so the replica mirror folds from the receipts alone; with
    // the default policy the snapshot is published here, so an awaited
    // commit is already visible to snapshot reads when its ack lands
    for receipt in &receipts {
        publisher.apply(receipt);
    }
    let mirrored_at = Instant::now();
    publisher.folded(stats.drains + 1, stats);
    let published_at = Instant::now();
    let mut receipts = receipts.into_iter();
    for ack in acks.drain(..) {
        match ack {
            Ack::Commit(reply) => {
                let _ = reply.send(receipts.next().expect("one receipt per commit"));
            }
            Ack::Complete(reply) => {
                let _ = reply.send(Ok(receipts.next().expect("one receipt per commit")));
            }
            Ack::Many { reply, len } => {
                let _ = reply.send(receipts.by_ref().take(len).collect());
            }
        }
    }
    let nanos = |from: Instant, to: Instant| (to - from).as_nanos() as u64;
    stats.fold_ns += nanos(started, folded_at);
    stats.mirror_ns += nanos(folded_at, mirrored_at);
    stats.publish_ns += nanos(mirrored_at, published_at);
    stats.ack_ns += nanos(published_at, Instant::now());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ShardedBackend;
    use crate::context::Context;
    use crate::delegation::Decision;
    use crate::goal::Goal;
    use crate::record::Observation;
    use crate::store::TrustStore;
    use crate::task::CharacteristicId;

    fn task(id: u32) -> Task {
        Task::uniform(TaskId(id), [CharacteristicId(0)]).unwrap()
    }

    fn committed_request(peer: u32, t: &Task) -> DelegationRequest<u32> {
        DelegationRequest::new(peer, t, Goal::ANY, Context::amicable(t.id())).committed()
    }

    #[test]
    fn session_lifecycle_over_the_wire() {
        let mut engine: TrustStore<u32> = TrustStore::new();
        let t = task(0);
        engine.register_task(t.clone());
        let service = TrustService::spawn(engine, ServiceOptions::default());
        let handle = service.handle();

        block_on(async {
            let request =
                DelegationRequest::new(7, &t, Goal::profitable(), Context::amicable(t.id()))
                    .with_prior(TrustRecord::with_priors(1.0, 1.0, 0.0, 0.0));
            let Decision::Delegate(active) = handle.delegate(request).await.unwrap() else {
                panic!("optimistic prior delegates")
            };
            let completed = active.finish(DelegationOutcome::succeeded(0.9, 0.2)).unwrap();
            let receipt = handle.commit(completed).await.unwrap();
            assert!(receipt.fulfilled);
            assert_eq!(receipt.record.interactions, 1);

            // read-your-write: the awaited commit is visible to queries
            let tw = handle.trustworthiness(7, t.id()).await.unwrap().unwrap();
            assert!(tw.value() > 0.5);
            assert_eq!(handle.known_peers().await.unwrap(), vec![7]);
            assert!(handle.record(9, t.id()).await.unwrap().is_none());
            let snapshot = handle.task_records(t.id()).await.unwrap();
            assert_eq!(snapshot.len(), 1);
            assert_eq!(snapshot[0].0, 7);
            assert_eq!(snapshot[0].1, receipt.record);
        });

        let engine = service.shutdown().unwrap();
        assert_eq!(engine.record_count(), 1);
        assert_eq!(engine.usage_log(7).responsive, 1);
    }

    #[test]
    fn complete_is_one_round_trip_and_validates() {
        let service = TrustService::spawn(TrustStore::<u32>::new(), ServiceOptions::default());
        let handle = service.handle();
        let t = task(0);
        block_on(async {
            let receipt = handle
                .complete(committed_request(3, &t), DelegationOutcome::failed(0.8, 0.3).abusive())
                .await
                .unwrap();
            assert!(!receipt.fulfilled);

            let bad = DelegationOutcome::observed(Observation {
                success_rate: f64::NAN,
                gain: 0.0,
                damage: 0.0,
                cost: 0.0,
            });
            let err = handle.complete(committed_request(3, &t), bad).await.unwrap_err();
            assert!(matches!(err, TrustError::OutOfUnitRange { .. }));
        });
        let engine = service.shutdown().unwrap();
        assert_eq!(engine.record(3, t.id()).unwrap().interactions, 1, "invalid outcome not folded");
        assert_eq!(engine.usage_log(3).abusive, 1);
    }

    #[test]
    fn pipelined_submissions_match_sequential_commits() {
        let t = task(0);
        let betas = ServiceOptions::default().betas;
        let outcomes: Vec<(u32, f64)> =
            (0..200u32).map(|i| (i % 9, (i % 7) as f64 / 6.0)).collect();

        // reference: the same stream folded synchronously
        let mut reference: TrustStore<u32> = TrustStore::new();
        for &(peer, q) in &outcomes {
            let scratch: TrustStore<u32> = TrustStore::new();
            let completed = committed_request(peer, &t)
                .activate(&scratch)
                .finish(DelegationOutcome::succeeded(q, 0.1))
                .unwrap();
            reference.commit(completed, &betas);
        }

        let service = TrustService::spawn(TrustStore::<u32>::new(), ServiceOptions::default());
        let handle = service.handle();
        let scratch: TrustStore<u32> = TrustStore::new();
        let pending: Vec<_> = outcomes
            .iter()
            .map(|&(peer, q)| {
                let completed = committed_request(peer, &t)
                    .activate(&scratch)
                    .finish(DelegationOutcome::succeeded(q, 0.1))
                    .unwrap();
                handle.submit(completed)
            })
            .collect();
        for p in pending {
            block_on(p).unwrap();
        }
        let engine = service.shutdown().unwrap();
        assert_eq!(engine.record_count(), reference.record_count());
        for peer in reference.known_peers() {
            assert_eq!(engine.record(peer, t.id()), reference.record(peer, t.id()));
            assert_eq!(engine.usage_log(peer), reference.usage_log(peer));
        }
    }

    #[test]
    fn concurrent_handles_commit_through_a_sharded_backend() {
        let engine: TrustEngine<u32, ShardedBackend<u32>> = TrustEngine::new();
        let service = TrustService::spawn(engine, ServiceOptions::default());
        let t = task(0);
        std::thread::scope(|scope| {
            for worker in 0..4u32 {
                let handle = service.handle();
                let t = t.clone();
                scope.spawn(move || {
                    for i in 0..50u32 {
                        let peer = worker * 1000 + i;
                        block_on(handle.complete(
                            committed_request(peer, &t),
                            DelegationOutcome::succeeded(0.8, 0.1),
                        ))
                        .unwrap();
                    }
                });
            }
        });
        let engine = service.shutdown().unwrap();
        assert_eq!(engine.record_count(), 200);
        assert_eq!(engine.known_peers().len(), 200);
    }

    #[test]
    fn requests_after_shutdown_fail_typed() {
        let service = TrustService::spawn(TrustStore::<u32>::new(), ServiceOptions::default());
        let handle = service.handle();
        let spare = handle.clone();
        let engine = service.shutdown().unwrap();
        assert_eq!(engine.record_count(), 0);
        block_on(async {
            assert_eq!(spare.known_peers().await.unwrap_err(), TrustError::ServiceStopped);
            assert_eq!(handle.flush().await.unwrap_err(), TrustError::ServiceStopped);
            let t = task(0);
            let scratch: TrustStore<u32> = TrustStore::new();
            let completed = committed_request(1, &t)
                .activate(&scratch)
                .finish(DelegationOutcome::succeeded(0.5, 0.1))
                .unwrap();
            assert_eq!(spare.commit(completed).await.unwrap_err(), TrustError::ServiceStopped);
        });
    }

    #[test]
    fn dropping_every_handle_stops_the_actor() {
        let service = TrustService::spawn(TrustStore::<u32>::new(), ServiceOptions::default());
        let t = task(0);
        let handle = service.handle();
        block_on(handle.complete(committed_request(2, &t), DelegationOutcome::succeeded(0.9, 0.1)))
            .unwrap();
        drop(handle);
        // TrustService::shutdown still works: its own handle is the last one
        let engine = service.shutdown().unwrap();
        assert_eq!(engine.record(2, t.id()).unwrap().interactions, 1);
    }

    #[test]
    fn register_task_enables_inference_queries() {
        let service = TrustService::spawn(TrustStore::<u32>::new(), ServiceOptions::default());
        let handle = service.handle();
        let gps = task(0);
        let image = Task::uniform(TaskId(1), [CharacteristicId(1)]).unwrap();
        let combined =
            Task::uniform(TaskId(2), [CharacteristicId(0), CharacteristicId(1)]).unwrap();
        block_on(async {
            handle.register_task(gps.clone()).await.unwrap();
            handle.register_task(image.clone()).await.unwrap();
            for t in [&gps, &image] {
                handle
                    .complete(committed_request(5, t), DelegationOutcome::succeeded(1.0, 0.0))
                    .await
                    .unwrap();
            }
            let evaluated = handle
                .evaluate(DelegationRequest::new(
                    5,
                    &combined,
                    Goal::profitable(),
                    Context::amicable(combined.id()),
                ))
                .await
                .unwrap();
            assert_eq!(evaluated.basis(), crate::delegation::EvaluationBasis::Inferred);
            assert!(evaluated.would_delegate());
        });
        service.shutdown().unwrap();
    }
}
