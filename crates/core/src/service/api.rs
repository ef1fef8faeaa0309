//! [`TrustApi`]: the one serving surface, implemented by every tier.

use super::{Freshness, ShardStats};
use crate::delegation::{
    CompletedDelegation, Decision, DelegationOutcome, DelegationReceipt, DelegationRequest,
    EvaluatedDelegation,
};
use crate::error::TrustError;
use crate::record::TrustRecord;
use crate::task::{Task, TaskId};
use crate::tw::Trustworthiness;
use std::future::Future;

/// The trust process served to many requesters: one delegation session
/// per unit of work, the same operations on every tier.
///
/// [`TrustServiceHandle`](super::TrustServiceHandle) (one actor),
/// [`ShardedTrustServiceHandle`](super::ShardedTrustServiceHandle) (N
/// actors routed by trustee), [`RemoteTrustServiceHandle`](super::RemoteTrustServiceHandle)
/// (a service over TCP) and [`FleetTrustHandle`](super::FleetTrustHandle)
/// (N nodes with deadlines, reconnects and idempotent commits) all
/// implement it, so code written against `TrustApi` runs on any of them.
///
/// * **Owned futures.** Every method returns a `Send + 'static` future:
///   hold it past the handle, move it to another thread, or submit a
///   window of commits and await the receipts afterwards. The in-process
///   and wire tiers send the request when the method is called, so the
///   order of calls is the order the service sees; the fleet sends when
///   the future is first polled, except for commits.
/// * **Explicit freshness.** Every read names its [`Freshness`]; the
///   provided [`record`](Self::record), [`trustworthiness`](Self::trustworthiness),
///   [`known_peers`](Self::known_peers) and [`task_records`](Self::task_records)
///   read [`Freshness::Relaxed`].
/// * **Typed failure.** Once the service stopped, every operation fails
///   with [`TrustError::ServiceStopped`] (the fleet may name an
///   unreachable node instead), except [`Freshness::Snapshot`] reads,
///   which keep answering from the last published snapshot, and
///   [`shutdown`](Self::shutdown), which is idempotent.
pub trait TrustApi<P: Copy + Ord>: Clone + Send + Sync {
    /// Submits one finished session for folding and returns the receipt
    /// future without waiting for it — the pipelining primitive.
    fn submit(
        &self,
        completed: CompletedDelegation<P>,
    ) -> impl Future<Output = Result<DelegationReceipt<P>, TrustError>> + Send + 'static;

    /// Submits a batch of finished sessions and resolves to their receipts
    /// in batch order. An empty batch resolves at once.
    fn submit_batch(
        &self,
        batch: Vec<CompletedDelegation<P>>,
    ) -> impl Future<Output = Result<Vec<DelegationReceipt<P>>, TrustError>> + Send + 'static;

    /// Runs the §3.3 evaluation of `request` against the served engine
    /// (direct record → inference → gated referrals → prior).
    fn evaluate(
        &self,
        request: DelegationRequest<P>,
    ) -> impl Future<Output = Result<EvaluatedDelegation<P>, TrustError>> + Send + 'static;

    /// The whole committed session in one round trip: the service
    /// activates `request`, validates `outcome` and folds it. For callers
    /// whose decision was made upstream.
    fn complete(
        &self,
        request: DelegationRequest<P>,
        outcome: DelegationOutcome,
    ) -> impl Future<Output = Result<DelegationReceipt<P>, TrustError>> + Send + 'static;

    /// Registers (or replaces) a task definition everywhere the service
    /// evaluates — inference needs the characteristic weights.
    fn register_task(
        &self,
        task: Task,
    ) -> impl Future<Output = Result<(), TrustError>> + Send + 'static;

    /// The record for `(peer, task)`, if any interaction happened.
    fn record_with(
        &self,
        peer: P,
        task: TaskId,
        freshness: Freshness,
    ) -> impl Future<Output = Result<Option<TrustRecord>, TrustError>> + Send + 'static;

    /// Eq. 18 trustworthiness toward `(peer, task)`, `None` without direct
    /// experience.
    fn trustworthiness_with(
        &self,
        peer: P,
        task: TaskId,
        freshness: Freshness,
    ) -> impl Future<Output = Result<Option<Trustworthiness>, TrustError>> + Send + 'static;

    /// Every peer with at least one record, each once, ascending.
    fn known_peers_with(
        &self,
        freshness: Freshness,
    ) -> impl Future<Output = Result<Vec<P>, TrustError>> + Send + 'static;

    /// Every `(peer, record)` pair held for `task`, ascending by peer — one
    /// answer, where a peer-by-peer loop would interleave with commits.
    fn task_records_with(
        &self,
        task: TaskId,
        freshness: Freshness,
    ) -> impl Future<Output = Result<Vec<(P, TrustRecord)>, TrustError>> + Send + 'static;

    /// Saturation counters, one entry per shard actor behind the handle.
    fn shard_stats(
        &self,
    ) -> impl Future<Output = Result<Vec<ShardStats>, TrustError>> + Send + 'static;

    /// Pushes the served engine state down to stable storage.
    fn flush(&self) -> impl Future<Output = Result<(), TrustError>> + Send + 'static;

    /// Stops the service gracefully: everything queued is folded and
    /// acked, the backend is flushed, then the actors exit. A service that
    /// is already stopped counts as stopped — `Ok`, not an error.
    fn shutdown(&self) -> impl Future<Output = Result<(), TrustError>> + Send + 'static;

    /// [`submit`](Self::submit), awaited.
    fn commit(
        &self,
        completed: CompletedDelegation<P>,
    ) -> impl Future<Output = Result<DelegationReceipt<P>, TrustError>> + Send + 'static {
        self.submit(completed)
    }

    /// [`evaluate`](Self::evaluate) carried through to the §3.4 decision.
    /// The [`Delegate`](Decision::Delegate) arm holds the one-shot session
    /// the caller finishes locally and [`commit`](Self::commit)s back.
    fn delegate(
        &self,
        request: DelegationRequest<P>,
    ) -> impl Future<Output = Result<Decision<P>, TrustError>> + Send + 'static {
        let evaluated = self.evaluate(request);
        async move { Ok(evaluated.await?.into_decision()) }
    }

    /// [`record_with`](Self::record_with) at [`Freshness::Relaxed`].
    fn record(
        &self,
        peer: P,
        task: TaskId,
    ) -> impl Future<Output = Result<Option<TrustRecord>, TrustError>> + Send + 'static {
        self.record_with(peer, task, Freshness::Relaxed)
    }

    /// [`trustworthiness_with`](Self::trustworthiness_with) at
    /// [`Freshness::Relaxed`].
    fn trustworthiness(
        &self,
        peer: P,
        task: TaskId,
    ) -> impl Future<Output = Result<Option<Trustworthiness>, TrustError>> + Send + 'static {
        self.trustworthiness_with(peer, task, Freshness::Relaxed)
    }

    /// [`known_peers_with`](Self::known_peers_with) at
    /// [`Freshness::Relaxed`].
    fn known_peers(&self) -> impl Future<Output = Result<Vec<P>, TrustError>> + Send + 'static {
        self.known_peers_with(Freshness::Relaxed)
    }

    /// [`task_records_with`](Self::task_records_with) at
    /// [`Freshness::Relaxed`].
    fn task_records(
        &self,
        task: TaskId,
    ) -> impl Future<Output = Result<Vec<(P, TrustRecord)>, TrustError>> + Send + 'static {
        self.task_records_with(task, Freshness::Relaxed)
    }
}
