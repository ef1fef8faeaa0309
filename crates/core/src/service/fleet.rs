//! Fault-tolerant trust fleets: one routing handle over N
//! [`RemoteTrustServer`] nodes, built to keep answering while nodes die.
//!
//! The [sharded service](crate::service::sharded) routes peers across
//! actors inside one process; this module lifts the same stable routing
//! rule ([`shard_index`]: std `DefaultHasher` mod N — deterministic
//! across processes) to the wire, across N independently-failing TCP
//! nodes. What changes is not the API but the failure model, and the
//! fleet handle owns all of it:
//!
//! - **Deadlines** — every request carries an absolute deadline
//!   ([`FleetOptions::request_deadline`]); a request that cannot complete
//!   in time resolves to a typed [`TrustError::TimedOut`], never a hang.
//!   This covers the nasty cases: servers that accept but never answer,
//!   proxies that swallow responses, reconnect storms. A connection that
//!   misses a deadline is **dropped** — a transport that accepted a
//!   request and never answered cannot be trusted with the next one, so
//!   the next request reconnects instead of timing out forever.
//! - **Reconnect** — a dead connection is retried with capped exponential
//!   backoff plus deterministic jitter (vendored xoshiro256++ per node).
//!   The first death earns an immediate reconnect; repeated failures back
//!   off to [`FleetOptions::backoff_cap`].
//! - **Idempotent commits** — commits travel as `(session, seq)`-tagged
//!   chunks ([`RemoteTrustServiceHandle::submit_batch_tagged`]) that the
//!   server deduplicates ([`DedupWindow`]): a chunk retried after a
//!   connection loss **replays its receipts instead of folding again**,
//!   so a retried commit can never double-count an observation. Use
//!   [`prepare`](FleetTrustHandle::prepare) /
//!   [`submit_prepared`](FleetTrustHandle::submit_prepared) to keep the
//!   same tags across *caller-level* retries too.
//! - **Graceful degradation** — a down node fails only its own key
//!   range, with a typed [`TrustError::NodeUnavailable`] naming the
//!   address; requests routed to live nodes are untouched. Broadcast
//!   reads ([`known_peers_cut`](FleetTrustHandle::known_peers_cut),
//!   [`task_records_cut`](FleetTrustHandle::task_records_cut)) merge the
//!   live nodes and *report* the missing ones in the returned
//!   [`FleetCut`] instead of failing the whole query.
//!
//! Retry policy per operation, driven by what is safe:
//!
//! | operation | on dead transport |
//! |---|---|
//! | tagged commits (`submit`, `submit_batch`, `submit_prepared`) | reconnect + resend same tag, waiting through backoff, until the deadline — exactly-once via the dedup window |
//! | reads (`evaluate`, `trustworthiness`, `record`, cuts) | reconnect once if possible, else fail fast `NodeUnavailable` — reads are safe to retry but not worth waiting for |
//! | snapshot-freshness cuts ([`Freshness::Snapshot`]) | as reads, but an unreachable node's range is served from the handle's **stale cache** (its last snapshot answer) and stamped in [`FleetCut::stale`] — degraded reads stay typed and total instead of dropping key ranges |
//! | `register_task`, `flush` | retried like commits (idempotent) |
//! | `complete` | **never retried** — it folds server-side without a tag; an ambiguous transport death surfaces as `NodeUnavailable`. Use the tagged commit path when exactness matters. |
//!
//! A node taken down for maintenance can be brought back on a *different*
//! address with [`replace_node`](FleetTrustHandle::replace_node) — the
//! key range is positional, so the mapping survives as long as the
//! address list keeps its order and length. Pair it with
//! [`RemoteTrustServer::bind_with`] (same [`DedupWindow`], after a
//! graceful drain) and commits retried across the restart still replay
//! instead of re-folding.
//!
//! Consistency note: an [`Freshness::Aligned`] fleet cut is aligned *per
//! node* — each node runs its own rendezvous barrier — not across nodes.
//! Per-node epoch vectors come back in [`FleetCut::epochs`] so callers
//! can compare cuts node-wise, exactly like the single-process story.
//!
//! [`RemoteTrustServer`]: crate::service::remote::RemoteTrustServer
//! [`RemoteTrustServer::bind_with`]: crate::service::remote::RemoteTrustServer::bind_with
//! [`DedupWindow`]: crate::service::remote::DedupWindow
//! [`shard_index`]: crate::service::sharded::ShardedTrustServiceHandle::shard_of

use std::collections::HashMap;
use std::future::Future;
use std::hash::Hash;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::task::{Context, Poll, Waker};
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::delegation::{
    CompletedDelegation, DelegationOutcome, DelegationReceipt, DelegationRequest,
    EvaluatedDelegation,
};
use crate::error::TrustError;
use crate::log_backend::LogKey;
use crate::record::TrustRecord;
use crate::service::remote::{wire, RemotePending, RemoteTrustServiceHandle, BATCH_CHUNK};
use crate::service::sharded::{shard_index, Freshness};
use crate::service::{ShardStats, TrustApi};
use crate::task::{Task, TaskId};
use crate::tw::Trustworthiness;

/// Tuning for a [`FleetTrustHandle`]. Every field has a sensible default;
/// build with struct-update syntax:
/// `FleetOptions { request_deadline: Duration::from_secs(5), ..FleetOptions::default() }`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetOptions {
    /// Absolute budget for one fleet operation, reconnects and retries
    /// included. On expiry the operation resolves to
    /// [`TrustError::TimedOut`].
    pub request_deadline: Duration,
    /// Budget for one TCP connect + banner handshake against one node.
    pub connect_timeout: Duration,
    /// First reconnect backoff step (doubles per consecutive failure).
    pub backoff_base: Duration,
    /// Ceiling on the reconnect backoff.
    pub backoff_cap: Duration,
    /// Seed for the per-node jitter generators — fleets with the same
    /// seed jitter identically, which keeps failure tests reproducible.
    pub seed: u64,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            request_deadline: Duration::from_secs(30),
            connect_timeout: Duration::from_secs(5),
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(1),
            seed: 0x5107_F1EE7,
        }
    }
}

/// A consistent-per-node answer to a fleet broadcast: the merged value
/// from every **live** node, the per-node epoch vectors, and the nodes
/// that could not answer. See the [module docs](self) for what "aligned"
/// means across a fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCut<T> {
    /// The merged answer from every live node (peers are disjoint across
    /// nodes by routing, so merging is lossless).
    pub value: T,
    /// One epoch vector per node, indexed by node position — the same
    /// vectors a [`Cut`](crate::service::Cut) from that node would carry.
    /// Empty for nodes listed in [`missing`](Self::missing); for nodes in
    /// [`stale`](Self::stale) these are the epochs the cached answer was
    /// taken at, so the caller can see exactly how old its data is.
    pub epochs: Vec<Vec<u64>>,
    /// `(node index, address)` of every node that failed to answer — its
    /// key range is absent from [`value`](Self::value).
    pub missing: Vec<(usize, String)>,
    /// `(node index, address)` of every node whose key range was served
    /// from the fleet handle's **stale cache** — the node was unreachable
    /// (reconnecting, saturated, mid-restart) under
    /// [`Freshness::Snapshot`], so the last snapshot answer it gave was
    /// used instead of failing the range. The staleness is typed, never
    /// silent: the node is listed here and its cached epochs stay in
    /// [`epochs`](Self::epochs). Always empty under
    /// [`Freshness::Relaxed`]/[`Freshness::Aligned`].
    pub stale: Vec<(usize, String)>,
}

impl<T> FleetCut<T> {
    /// Whether every node's key range is covered — live or stale. A stale
    /// range still holds real (older) data; only
    /// [`missing`](Self::missing) ranges are absent from the value.
    pub fn complete(&self) -> bool {
        self.missing.is_empty()
    }

    /// Whether every node answered **live** — no range is missing and
    /// none was served from the stale cache.
    pub fn fully_fresh(&self) -> bool {
        self.missing.is_empty() && self.stale.is_empty()
    }
}

/// One node's health and saturation, from
/// [`FleetTrustHandle::node_stats`].
#[derive(Debug, Clone)]
pub struct NodeStats {
    /// The node's configured address.
    pub addr: String,
    /// Per-shard counters served by the node, or `None` if it was
    /// unreachable when sampled.
    pub shards: Option<Vec<ShardStats>>,
}

impl NodeStats {
    /// Whether the node answered the stats query.
    pub fn reachable(&self) -> bool {
        self.shards.is_some()
    }

    /// The node's worst shard [`saturation`](ShardStats::saturation), or
    /// `None` if unreachable — the single number a fleet dashboard ranks
    /// nodes by.
    pub fn saturation(&self) -> Option<f64> {
        self.shards.as_ref().map(|s| s.iter().map(ShardStats::saturation).fold(0.0, f64::max))
    }
}

/// A routed batch with its idempotency tags already assigned, from
/// [`FleetTrustHandle::prepare`]. Submitting the *same* `StampedBatch`
/// again ([`FleetTrustHandle::submit_prepared`]) reuses the same
/// `(session, seq)` tags, so even caller-level retries — say, after a
/// [`TrustError::TimedOut`] whose fate was unknown — can never fold a
/// session twice.
#[derive(Debug, Clone)]
pub struct StampedBatch<P> {
    len: usize,
    parts: Vec<TaggedPart<P>>,
}

impl<P> StampedBatch<P> {
    /// Sessions in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[derive(Debug, Clone)]
struct TaggedPart<P> {
    node: usize,
    /// The chunk's `CommitManySeq` request tail, encoded exactly once at
    /// [`FleetTrustHandle::prepare`] time (the sessions themselves are
    /// consumed — [`CompletedDelegation`] stays un-clonable). Every retry
    /// resends these identical bytes under the same `(session, seq)` tag.
    tail: Arc<[u8]>,
    /// Positions of the chunk's sessions in the original batch, for
    /// re-assembling receipts in submission order.
    positions: Vec<usize>,
    _peer: std::marker::PhantomData<fn(P) -> P>,
}

struct NodeSlot<P> {
    addr: String,
    conn: Option<RemoteTrustServiceHandle<P>>,
    /// A thread is inside `connect_with` for this node right now.
    connecting: bool,
    /// Consecutive reconnect failures since the last success.
    attempt: u32,
    /// No reconnect before this instant (backoff).
    retry_at: Instant,
    rng: SmallRng,
    /// The node's last successful broadcast answers — what
    /// [`Freshness::Snapshot`] cut reads fall back to while the node is
    /// unreachable (see [`FleetCut::stale`]).
    stale: StaleCache<P>,
}

/// A cached broadcast answer paired with the epoch vector it was taken at.
type Stamped<T> = (Vec<u64>, T);

/// Per-node cache of the last successfully observed broadcast answers,
/// each paired with the epoch vector it was taken at. Bounded: one peer
/// list plus one record table per distinct task ever queried.
struct StaleCache<P> {
    known_peers: Option<Stamped<Vec<P>>>,
    task_records: HashMap<TaskId, Stamped<Vec<(P, TrustRecord)>>>,
}

impl<P> StaleCache<P> {
    fn new() -> Self {
        StaleCache { known_peers: None, task_records: HashMap::new() }
    }
}

/// The fault-tolerant routing handle over a fleet of
/// [`RemoteTrustServer`](crate::service::remote::RemoteTrustServer)
/// nodes. Cloning is cheap; clones share connections, backoff state, and
/// the commit-tag session. See the [module docs](self) for the failure
/// model and retry policy.
#[derive(Debug)]
pub struct FleetTrustHandle<P> {
    nodes: Arc<[Mutex<NodeSlot<P>>]>,
    options: FleetOptions,
    /// This handle's commit-tag session — process-unique, shared by
    /// clones so their seqs never collide.
    session: u64,
    next_seq: Arc<AtomicU64>,
}

impl<P> Clone for FleetTrustHandle<P> {
    fn clone(&self) -> Self {
        FleetTrustHandle {
            nodes: Arc::clone(&self.nodes),
            options: self.options.clone(),
            session: self.session,
            next_seq: Arc::clone(&self.next_seq),
        }
    }
}

impl<P> std::fmt::Debug for NodeSlot<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeSlot")
            .field("addr", &self.addr)
            .field("connected", &self.conn.is_some())
            .field("attempt", &self.attempt)
            .finish()
    }
}

/// A chunk's eager first attempt: the in-flight receipts plus the
/// connection that carries them (`None` when the node had no live
/// connection at submit time).
type EagerAttempt<P> =
    Option<(RemotePending<Vec<DelegationReceipt<P>>>, RemoteTrustServiceHandle<P>)>;

impl<P: LogKey + Hash + Send + 'static> FleetTrustHandle<P> {
    /// Connects to every node address with default [`FleetOptions`].
    /// Node order is the routing table — every handle to this fleet must
    /// list the same addresses in the same order.
    ///
    /// Succeeds if **at least one** node is reachable: unreachable nodes
    /// start in backoff and their key ranges answer
    /// [`TrustError::NodeUnavailable`] until they come up. Fails with the
    /// first node's typed connect error only when *no* node answered.
    pub fn connect<A: Into<String>>(
        addrs: impl IntoIterator<Item = A>,
    ) -> Result<Self, TrustError> {
        Self::connect_opts(addrs, FleetOptions::default())
    }

    /// [`connect`](Self::connect) with explicit [`FleetOptions`].
    pub fn connect_opts<A: Into<String>>(
        addrs: impl IntoIterator<Item = A>,
        options: FleetOptions,
    ) -> Result<Self, TrustError> {
        let addrs: Vec<String> = addrs.into_iter().map(Into::into).collect();
        if addrs.is_empty() {
            return Err(TrustError::Io("a fleet needs at least one node address".into()));
        }
        let now = Instant::now();
        let mut first_err = None;
        let mut live = 0usize;
        let slots: Vec<Mutex<NodeSlot<P>>> = addrs
            .into_iter()
            .enumerate()
            .map(|(i, addr)| {
                let conn = match RemoteTrustServiceHandle::connect_with(
                    addr.as_str(),
                    options.connect_timeout,
                ) {
                    Ok(conn) => {
                        live += 1;
                        Some(conn)
                    }
                    Err(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                        None
                    }
                };
                let mut rng =
                    SmallRng::seed_from_u64(options.seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
                let attempt = u32::from(conn.is_none());
                let retry_at = if conn.is_some() {
                    now
                } else {
                    now + jittered(options.backoff_base, options.backoff_cap, 0, &mut rng)
                };
                Mutex::new(NodeSlot {
                    addr,
                    conn,
                    connecting: false,
                    attempt,
                    retry_at,
                    rng,
                    stale: StaleCache::new(),
                })
            })
            .collect();
        if live == 0 {
            return Err(first_err.expect("at least one address was tried"));
        }
        Ok(FleetTrustHandle {
            nodes: slots.into(),
            options,
            session: fresh_session(),
            next_seq: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Nodes in the fleet.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node index `peer`'s records live on — the same stable
    /// `DefaultHasher`-mod-N rule the sharded tier uses, computable from
    /// the address list alone.
    pub fn node_of(&self, peer: P) -> usize {
        shard_index(&peer, self.nodes.len())
    }

    /// The configured address of node `index`.
    pub fn node_addr(&self, index: usize) -> String {
        self.nodes[index].lock().expect("fleet node slot").addr.clone()
    }

    /// Points node `index` at a new address — the supervisor's seam for
    /// bringing a restarted node back on a different port. The old
    /// connection (if any) is dropped and the backoff state reset, so the
    /// next request routed there reconnects immediately.
    pub fn replace_node(&self, index: usize, addr: impl Into<String>) {
        let mut slot = self.nodes[index].lock().expect("fleet node slot");
        slot.addr = addr.into();
        slot.conn = None;
        slot.attempt = 0;
        slot.retry_at = Instant::now();
    }

    // ---- commits: the idempotent tagged path --------------------------

    /// Routes and chunks `batch` across the fleet and assigns each chunk
    /// its `(session, seq)` idempotency tag. Submit with
    /// [`submit_prepared`](Self::submit_prepared) — as many times as it
    /// takes.
    pub fn prepare(&self, batch: Vec<CompletedDelegation<P>>) -> StampedBatch<P> {
        let n = self.nodes.len();
        let len = batch.len();
        let mut routed: Vec<(Vec<CompletedDelegation<P>>, Vec<usize>)> =
            (0..n).map(|_| (Vec::new(), Vec::new())).collect();
        for (i, completed) in batch.into_iter().enumerate() {
            let node = shard_index(&completed.trustee(), n);
            routed[node].0.push(completed);
            routed[node].1.push(i);
        }
        let mut parts = Vec::new();
        for (node, (mut chunk, mut positions)) in routed.into_iter().enumerate() {
            while !chunk.is_empty() {
                let split = chunk.len().min(BATCH_CHUNK);
                let rest = chunk.split_off(split);
                let rest_pos = positions.split_off(split);
                let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
                parts.push(TaggedPart {
                    node,
                    tail: wire::commit_many_seq_tail(self.session, seq, &chunk).into(),
                    positions,
                    _peer: std::marker::PhantomData,
                });
                chunk = rest;
                positions = rest_pos;
            }
        }
        StampedBatch { len, parts }
    }

    /// Submits a [`StampedBatch`], resolving to its receipts in original
    /// batch order. The first attempt per chunk goes out **eagerly** on
    /// live connections (pipelining works like the plain remote handle);
    /// chunks on dead nodes reconnect through backoff and resend the same
    /// tag until they succeed or the deadline expires. Because tags are
    /// deduplicated server-side, no amount of retrying — including
    /// calling this again with the same batch — can fold a session twice.
    pub fn submit_prepared(
        &self,
        stamped: &StampedBatch<P>,
    ) -> impl Future<Output = Result<Vec<DelegationReceipt<P>>, TrustError>> {
        let deadline = self.deadline();
        // eager first attempts: frames hit the wire before first poll
        let eager: Vec<EagerAttempt<P>> = stamped
            .parts
            .iter()
            .map(|part| {
                self.conn_now(part.node)
                    .map(|conn| (conn.send_tail(&part.tail, wire::decode_receipts::<P>), conn))
            })
            .collect();
        let parts = stamped.parts.clone();
        let total = stamped.len;
        let this = self.clone();
        async move {
            let mut receipts: Vec<Option<DelegationReceipt<P>>> =
                (0..total).map(|_| None).collect();
            for (part, eager) in parts.iter().zip(eager) {
                // commits wait through backoff: the same tag is safe to
                // resend until the deadline
                let got = this
                    .attempt(part.node, deadline, true, eager, |conn| {
                        conn.send_tail(&part.tail, wire::decode_receipts::<P>)
                    })
                    .await?;
                for (&pos, receipt) in part.positions.iter().zip(got) {
                    receipts[pos] = Some(receipt);
                }
            }
            Ok(receipts.into_iter().map(|r| r.expect("every position filled")).collect())
        }
    }

    /// Prepares and submits `batch` in one call — the common path when no
    /// caller-level retry is needed (the fleet still retries internally
    /// up to the deadline, with full idempotency).
    pub fn submit_batch(
        &self,
        batch: Vec<CompletedDelegation<P>>,
    ) -> impl Future<Output = Result<Vec<DelegationReceipt<P>>, TrustError>> {
        let stamped = self.prepare(batch);
        self.submit_prepared(&stamped)
    }

    /// One routed read on `node` with the read-path policy: one immediate
    /// reconnect if the transport died, a fast
    /// [`TrustError::NodeUnavailable`] if the node is in backoff.
    fn read<T, F>(
        &self,
        node: usize,
        op: impl Fn(RemoteTrustServiceHandle<P>) -> F + Send + 'static,
    ) -> impl Future<Output = Result<T, TrustError>> + Send + 'static
    where
        F: Future<Output = Result<T, TrustError>> + Send,
        T: Send,
    {
        let this = self.clone();
        async move { this.attempt(node, this.deadline(), false, None, op).await }
    }

    // ---- broadcasts ----------------------------------------------------

    /// Runs `op` on every node with the commit retry policy (reconnects
    /// waiting through backoff, until the deadline). Fails with the first
    /// node error after attempting all nodes, so live nodes are served even
    /// when one is down.
    async fn broadcast_retry<F>(
        &self,
        op: impl Fn(RemoteTrustServiceHandle<P>) -> F,
    ) -> Result<(), TrustError>
    where
        F: Future<Output = Result<(), TrustError>>,
    {
        let deadline = self.deadline();
        let mut first_err = None;
        for node in 0..self.nodes.len() {
            if let Err(e) = self.attempt(node, deadline, true, None, &op).await {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// The fleet-wide peer list as a [`FleetCut`]: merged live values,
    /// per-node epoch vectors, and the missing nodes. Fails only when
    /// **no** node answered. Under [`Freshness::Snapshot`] a node that is
    /// unreachable (reconnecting, saturated) is served from the handle's
    /// stale cache when possible and stamped in [`FleetCut::stale`].
    pub fn known_peers_cut(
        &self,
        freshness: Freshness,
    ) -> impl Future<Output = Result<FleetCut<Vec<P>>, TrustError>> {
        let this = self.clone();
        let snapshot = matches!(freshness, Freshness::Snapshot { .. });
        async move {
            let cut = this
                .fleet_cut(
                    move |conn| async move {
                        let cut = conn.known_peers_cut(freshness).await?;
                        Ok((cut.epochs, cut.value))
                    },
                    |fleet, node, epochs, peers: &Vec<P>| {
                        let mut slot = fleet.nodes[node].lock().expect("fleet node slot");
                        slot.stale.known_peers = Some((epochs.to_vec(), peers.clone()));
                    },
                    |fleet, node| {
                        if !snapshot {
                            return None;
                        }
                        fleet.nodes[node].lock().expect("fleet node slot").stale.known_peers.clone()
                    },
                )
                .await?;
            let mut cut = FleetCut {
                value: cut.value.into_iter().flatten().collect::<Vec<P>>(),
                epochs: cut.epochs,
                missing: cut.missing,
                stale: cut.stale,
            };
            cut.value.sort_unstable();
            Ok(cut)
        }
    }

    /// The fleet-wide record table for `task` as a [`FleetCut`]. Under
    /// [`Freshness::Snapshot`], unreachable nodes fall back to the stale
    /// cache like [`known_peers_cut`](Self::known_peers_cut).
    pub fn task_records_cut(
        &self,
        task: TaskId,
        freshness: Freshness,
    ) -> impl Future<Output = Result<FleetCut<Vec<(P, TrustRecord)>>, TrustError>> {
        let this = self.clone();
        let snapshot = matches!(freshness, Freshness::Snapshot { .. });
        async move {
            let cut = this
                .fleet_cut(
                    move |conn| async move {
                        let cut = conn.task_records_cut(task, freshness).await?;
                        Ok((cut.epochs, cut.value))
                    },
                    |fleet, node, epochs, records: &Vec<(P, TrustRecord)>| {
                        let mut slot = fleet.nodes[node].lock().expect("fleet node slot");
                        slot.stale.task_records.insert(task, (epochs.to_vec(), records.clone()));
                    },
                    |fleet, node| {
                        if !snapshot {
                            return None;
                        }
                        let slot = fleet.nodes[node].lock().expect("fleet node slot");
                        slot.stale.task_records.get(&task).cloned()
                    },
                )
                .await?;
            let mut cut = FleetCut {
                value: cut.value.into_iter().flatten().collect::<Vec<(P, TrustRecord)>>(),
                epochs: cut.epochs,
                missing: cut.missing,
                stale: cut.stale,
            };
            cut.value.sort_unstable_by_key(|(peer, _)| *peer);
            Ok(cut)
        }
    }

    /// One broadcast read over all nodes: live answers collected
    /// per-node, failures recorded as missing. Errors out only when every
    /// node failed (with the first node's error).
    ///
    /// `remember` stores each live answer in the node's stale cache;
    /// `recall` is consulted when a node fails — a hit serves the node's
    /// range stale-but-typed ([`FleetCut::stale`]) instead of dropping it.
    /// Relaxed/Aligned cuts pass a no-op `recall`, so only
    /// [`Freshness::Snapshot`] — the mode whose contract already admits
    /// bounded staleness — ever answers from the cache.
    async fn fleet_cut<T, F>(
        &self,
        op: impl Fn(RemoteTrustServiceHandle<P>) -> F,
        remember: impl Fn(&self::FleetTrustHandle<P>, usize, &[u64], &T),
        recall: impl Fn(&self::FleetTrustHandle<P>, usize) -> Option<(Vec<u64>, T)>,
    ) -> Result<FleetCut<Vec<T>>, TrustError>
    where
        F: Future<Output = Result<(Vec<u64>, T), TrustError>>,
    {
        let n = self.nodes.len();
        let deadline = self.deadline();
        let mut epochs = vec![Vec::new(); n];
        let mut value = Vec::new();
        let mut missing = Vec::new();
        let mut stale = Vec::new();
        let mut first_err = None;
        for (node, epoch_slot) in epochs.iter_mut().enumerate() {
            match self.attempt(node, deadline, false, None, &op).await {
                Ok((node_epochs, node_value)) => {
                    remember(self, node, &node_epochs, &node_value);
                    *epoch_slot = node_epochs;
                    value.push(node_value);
                }
                Err(e) => match recall(self, node) {
                    Some((cached_epochs, cached_value)) => {
                        *epoch_slot = cached_epochs;
                        value.push(cached_value);
                        stale.push((node, self.node_addr(node)));
                    }
                    None => {
                        first_err.get_or_insert(e);
                        missing.push((node, self.node_addr(node)));
                    }
                },
            }
        }
        if missing.len() == n {
            return Err(first_err.expect("every node failed"));
        }
        Ok(FleetCut { value, epochs, missing, stale })
    }

    /// Health and saturation per node: reachable nodes report their
    /// served [`ShardStats`], unreachable ones report `None`. Never fails
    /// — an all-dead fleet is a list of unreachable nodes, which is the
    /// answer. [`TrustApi::shard_stats`] is the strict form.
    pub fn node_stats(&self) -> impl Future<Output = Result<Vec<NodeStats>, TrustError>> {
        let this = self.clone();
        async move {
            let mut out = Vec::with_capacity(this.nodes.len());
            for node in 0..this.nodes.len() {
                let stats = this.read(node, |conn| async move { conn.shard_stats().await }).await;
                out.push(NodeStats { addr: this.node_addr(node), shards: stats.ok() });
            }
            Ok(out)
        }
    }

    // ---- connection management -----------------------------------------

    /// The absolute deadline of an operation starting now.
    fn deadline(&self) -> Instant {
        Instant::now() + self.options.request_deadline
    }

    /// One operation against `node` under the shared attempt policy: a
    /// connection from [`conn_ready`](Self::conn_ready) (`wait` as there),
    /// `op` raced against `deadline`, a fresh connection and a resend
    /// whenever the transport died under it, and the connection
    /// quarantined on a deadline miss. `sent` is an attempt already in
    /// flight on a known connection, awaited before any new one.
    async fn attempt<T, F>(
        &self,
        node: usize,
        deadline: Instant,
        wait: bool,
        mut sent: Option<(F, RemoteTrustServiceHandle<P>)>,
        op: impl Fn(RemoteTrustServiceHandle<P>) -> F,
    ) -> Result<T, TrustError>
    where
        F: Future<Output = Result<T, TrustError>>,
    {
        loop {
            let (pending, conn) = match sent.take() {
                Some(in_flight) => in_flight,
                None => {
                    let conn = self.conn_ready(node, deadline, wait).await?;
                    (op(conn.clone()), conn)
                }
            };
            match with_deadline(pending, deadline).await {
                Err(ref e) if transport_failure(e, &conn) => continue,
                Err(TrustError::TimedOut) => {
                    self.quarantine(node);
                    return Err(TrustError::TimedOut);
                }
                other => return other,
            }
        }
    }

    /// A live connection to `node` right now, or `None` — never blocks,
    /// never connects. Dead connections are cleared (clearing opens the
    /// immediate-reconnect window for whoever calls
    /// [`conn_ready`](Self::conn_ready) next).
    fn conn_now(&self, node: usize) -> Option<RemoteTrustServiceHandle<P>> {
        let mut slot = self.nodes[node].lock().expect("fleet node slot");
        match &slot.conn {
            Some(conn) if !conn.transport_closed() => Some(conn.clone()),
            Some(_) => {
                slot.conn = None;
                slot.retry_at = Instant::now();
                None
            }
            None => None,
        }
    }

    /// Drops `node`'s current connection after a deadline miss: a
    /// transport that accepted a request but never answered cannot be
    /// trusted with the next one. No backoff penalty — the node itself
    /// may be healthy behind one bad connection, so the next request
    /// reconnects immediately.
    fn quarantine(&self, node: usize) {
        let mut slot = self.nodes[node].lock().expect("fleet node slot");
        slot.conn = None;
        slot.retry_at = Instant::now();
    }

    /// A live connection to `node`, reconnecting if allowed. With `wait`,
    /// sleeps through backoff windows (bounded by `deadline`); without,
    /// fails fast with [`TrustError::NodeUnavailable`] whenever a
    /// connection is not immediately obtainable.
    async fn conn_ready(
        &self,
        node: usize,
        deadline: Instant,
        wait: bool,
    ) -> Result<RemoteTrustServiceHandle<P>, TrustError> {
        enum Next<P> {
            Use(RemoteTrustServiceHandle<P>),
            Connect(String),
            Backoff(Instant),
            Busy,
        }
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(TrustError::TimedOut);
            }
            let next = {
                let mut slot = self.nodes[node].lock().expect("fleet node slot");
                match &slot.conn {
                    Some(conn) if !conn.transport_closed() => Next::Use(conn.clone()),
                    maybe_dead => {
                        if maybe_dead.is_some() {
                            // transport died since last look: clear it and
                            // allow an immediate reconnect
                            slot.conn = None;
                            slot.retry_at = now;
                        }
                        if slot.connecting {
                            Next::Busy
                        } else if now >= slot.retry_at {
                            slot.connecting = true;
                            Next::Connect(slot.addr.clone())
                        } else {
                            Next::Backoff(slot.retry_at)
                        }
                    }
                }
            };
            match next {
                Next::Use(conn) => return Ok(conn),
                Next::Connect(addr) => {
                    let budget = self
                        .options
                        .connect_timeout
                        .min(deadline.saturating_duration_since(Instant::now()));
                    let result = RemoteTrustServiceHandle::connect_with(addr.as_str(), budget);
                    let mut slot = self.nodes[node].lock().expect("fleet node slot");
                    slot.connecting = false;
                    match result {
                        Ok(conn) => {
                            slot.attempt = 0;
                            slot.conn = Some(conn.clone());
                            return Ok(conn);
                        }
                        Err(_) => {
                            let delay = jittered(
                                self.options.backoff_base,
                                self.options.backoff_cap,
                                slot.attempt,
                                &mut slot.rng,
                            );
                            slot.attempt = slot.attempt.saturating_add(1);
                            slot.retry_at = Instant::now() + delay;
                            if !wait {
                                return Err(TrustError::NodeUnavailable { addr });
                            }
                        }
                    }
                }
                Next::Backoff(retry_at) => {
                    if !wait {
                        return Err(TrustError::NodeUnavailable { addr: self.node_addr(node) });
                    }
                    sleep_until(retry_at.min(deadline)).await;
                }
                Next::Busy => {
                    if !wait {
                        return Err(TrustError::NodeUnavailable { addr: self.node_addr(node) });
                    }
                    // another clone is mid-connect; check back shortly
                    sleep_until((Instant::now() + Duration::from_millis(2)).min(deadline)).await;
                }
            }
        }
    }
}

/// Peer-targeted operations run on the trustee's home node, broadcasts on
/// every node, each under the retry policy of the [module docs](self)'
/// table. Fleet-wide reads merge the live nodes — a down node's key range
/// is absent, not an error; take
/// [`known_peers_cut`](FleetTrustHandle::known_peers_cut) /
/// [`task_records_cut`](FleetTrustHandle::task_records_cut) to see which.
impl<P: LogKey + Hash + Send + 'static> TrustApi<P> for FleetTrustHandle<P> {
    /// Commits through the tagged path: exactly-once across retries.
    fn submit(
        &self,
        completed: CompletedDelegation<P>,
    ) -> impl Future<Output = Result<DelegationReceipt<P>, TrustError>> + Send + 'static {
        let receipts = self.submit_batch(vec![completed]);
        async move { Ok(receipts.await?.pop().expect("one receipt per session")) }
    }

    fn submit_batch(
        &self,
        batch: Vec<CompletedDelegation<P>>,
    ) -> impl Future<Output = Result<Vec<DelegationReceipt<P>>, TrustError>> + Send + 'static {
        FleetTrustHandle::submit_batch(self, batch)
    }

    fn evaluate(
        &self,
        request: DelegationRequest<P>,
    ) -> impl Future<Output = Result<EvaluatedDelegation<P>, TrustError>> + Send + 'static {
        self.read(self.node_of(request.trustee()), move |conn| {
            let request = request.clone();
            async move { conn.evaluate(request).await }
        })
    }

    /// **Not retried** on transport death (it folds server-side without
    /// an idempotency tag): an ambiguous failure surfaces as
    /// [`TrustError::NodeUnavailable`]. Prefer
    /// [`evaluate`](TrustApi::evaluate) + [`submit`](TrustApi::submit) when
    /// exactness across failures matters.
    fn complete(
        &self,
        request: DelegationRequest<P>,
        outcome: DelegationOutcome,
    ) -> impl Future<Output = Result<DelegationReceipt<P>, TrustError>> + Send + 'static {
        let node = self.node_of(request.trustee());
        let this = self.clone();
        async move {
            let deadline = this.deadline();
            let conn = this.conn_ready(node, deadline, false).await?;
            match with_deadline(conn.complete(request, outcome), deadline).await {
                Err(ref e) if transport_failure(e, &conn) => {
                    Err(TrustError::NodeUnavailable { addr: this.node_addr(node) })
                }
                Err(TrustError::TimedOut) => {
                    this.quarantine(node);
                    Err(TrustError::TimedOut)
                }
                other => other,
            }
        }
    }

    /// Registered on every node, retried through reconnects like a commit
    /// (idempotent); live nodes are registered even when one is down.
    fn register_task(
        &self,
        task: Task,
    ) -> impl Future<Output = Result<(), TrustError>> + Send + 'static {
        let this = self.clone();
        async move {
            this.broadcast_retry(move |conn| {
                let task = task.clone();
                async move { conn.register_task(task).await }
            })
            .await
        }
    }

    /// Under [`Freshness::Snapshot`] the home node answers off its
    /// published replica snapshot without touching the write path.
    fn record_with(
        &self,
        peer: P,
        task: TaskId,
        freshness: Freshness,
    ) -> impl Future<Output = Result<Option<TrustRecord>, TrustError>> + Send + 'static {
        self.read(self.node_of(peer), move |conn| async move {
            conn.record_with(peer, task, freshness).await
        })
    }

    fn trustworthiness_with(
        &self,
        peer: P,
        task: TaskId,
        freshness: Freshness,
    ) -> impl Future<Output = Result<Option<Trustworthiness>, TrustError>> + Send + 'static {
        self.read(self.node_of(peer), move |conn| async move {
            conn.trustworthiness_with(peer, task, freshness).await
        })
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

    /// Every node's shards, in node order; the first unreachable node
    /// fails the call ([`node_stats`](FleetTrustHandle::node_stats)
    /// reports per node instead).
    fn shard_stats(
        &self,
    ) -> impl Future<Output = Result<Vec<ShardStats>, TrustError>> + Send + 'static {
        let this = self.clone();
        async move {
            let mut shards = Vec::new();
            for node in 0..this.nodes.len() {
                shards
                    .extend(this.read(node, |conn| async move { conn.shard_stats().await }).await?);
            }
            Ok(shards)
        }
    }

    /// Flushed on every node, retried like a commit (idempotent).
    fn flush(&self) -> impl Future<Output = Result<(), TrustError>> + Send + 'static {
        let this = self.clone();
        async move { this.broadcast_retry(|conn| async move { conn.flush().await }).await }
    }

    /// Stops the service on every reachable node, without retries. A node
    /// that cannot be reached keeps its error
    /// ([`TrustError::NodeUnavailable`]) — the caller decides whether an
    /// unreachable node still counts as stopped. The remaining nodes are
    /// stopped regardless.
    fn shutdown(&self) -> impl Future<Output = Result<(), TrustError>> + Send + 'static {
        let this = self.clone();
        async move {
            let deadline = this.deadline();
            let mut first_err = None;
            for node in 0..this.nodes.len() {
                let result = match this.conn_ready(node, deadline, false).await {
                    Ok(conn) => with_deadline(conn.shutdown(), deadline).await,
                    Err(e) => Err(e),
                };
                if let Err(e) = result {
                    first_err.get_or_insert(e);
                }
            }
            first_err.map_or(Ok(()), Err)
        }
    }
}

/// Whether `e` means "the connection is gone" (retry on a fresh one)
/// rather than "the service answered with an error" (final). The closed
/// transport flag is what disambiguates a dead socket's synthesized
/// `ServiceStopped` from a healthy server reporting a genuinely stopped
/// service.
fn transport_failure<P: LogKey + Send + 'static>(
    e: &TrustError,
    conn: &RemoteTrustServiceHandle<P>,
) -> bool {
    matches!(e, TrustError::ServiceStopped | TrustError::Io(_) | TrustError::Corrupt { .. })
        && conn.transport_closed()
}

/// Capped exponential backoff with multiplicative jitter in `[0.5, 1.0]`
/// — the decorrelation that stops a fleet's clients from reconnecting in
/// lockstep.
fn jittered(base: Duration, cap: Duration, attempt: u32, rng: &mut SmallRng) -> Duration {
    let exp = base.saturating_mul(1u32 << attempt.min(16));
    let capped = exp.min(cap);
    capped.mul_f64(rng.gen_range(0.5..=1.0))
}

/// A process-unique commit-tag session id: per-process random (std
/// `RandomState`) mixed with a global counter, so concurrent fleet
/// handles — in this process or another — occupy disjoint tag spaces.
fn fresh_session() -> u64 {
    use std::collections::hash_map::RandomState;
    use std::hash::{BuildHasher, Hasher};
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let per_process = RandomState::new().build_hasher().finish();
    per_process ^ COUNTER.fetch_add(1, Ordering::Relaxed).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

// ---- deadlines ---------------------------------------------------------

/// The shared timer driving [`sleep_until`] and [`with_deadline`]: a lazy
/// singleton thread parked on a condvar until the earliest registered
/// wake-up. The vendored executor's `Parker` has no timed park, so
/// deadlines need exactly one real clock-waiter in the process — this is
/// it.
struct Timer {
    queue: Mutex<Vec<(Instant, Waker)>>,
    cv: Condvar,
}

fn timer() -> &'static Timer {
    static TIMER: OnceLock<&'static Timer> = OnceLock::new();
    TIMER.get_or_init(|| {
        let timer: &'static Timer =
            Box::leak(Box::new(Timer { queue: Mutex::new(Vec::new()), cv: Condvar::new() }));
        thread::Builder::new()
            .name("siot-fleet-timer".into())
            .spawn(move || timer_loop(timer))
            .expect("spawn fleet timer thread");
        timer
    })
}

fn timer_loop(timer: &'static Timer) {
    let mut queue = timer.queue.lock().expect("fleet timer queue");
    loop {
        let now = Instant::now();
        let mut due = Vec::new();
        let mut i = 0;
        while i < queue.len() {
            if queue[i].0 <= now {
                due.push(queue.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
        if !due.is_empty() {
            // wake without holding the lock: wakers may re-register
            drop(queue);
            for waker in due {
                waker.wake();
            }
            queue = timer.queue.lock().expect("fleet timer queue");
            continue;
        }
        queue = match queue.iter().map(|(at, _)| *at).min() {
            Some(earliest) => {
                let wait = earliest.saturating_duration_since(now);
                timer.cv.wait_timeout(queue, wait).expect("fleet timer queue").0
            }
            None => timer.cv.wait(queue).expect("fleet timer queue"),
        };
    }
}

/// Resolves at `at` (immediately if already past).
fn sleep_until(at: Instant) -> Sleep {
    Sleep { at }
}

struct Sleep {
    at: Instant,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if Instant::now() >= self.at {
            return Poll::Ready(());
        }
        let timer = timer();
        timer.queue.lock().expect("fleet timer queue").push((self.at, cx.waker().clone()));
        timer.cv.notify_one();
        Poll::Pending
    }
}

/// Races `fut` against the absolute `deadline`: the result if it resolves
/// in time, typed [`TrustError::TimedOut`] otherwise. The loser is
/// dropped — for a [`RemotePending`] that means the response, when it
/// eventually arrives, is discarded by the reader.
async fn with_deadline<T>(
    fut: impl Future<Output = Result<T, TrustError>>,
    deadline: Instant,
) -> Result<T, TrustError> {
    let mut fut = std::pin::pin!(fut);
    let mut sleep = sleep_until(deadline);
    std::future::poll_fn(move |cx| match fut.as_mut().poll(cx) {
        Poll::Ready(result) => Poll::Ready(result),
        Poll::Pending => match Pin::new(&mut sleep).poll(cx) {
            Poll::Ready(()) => Poll::Ready(Err(TrustError::TimedOut)),
            Poll::Pending => Poll::Pending,
        },
    })
    .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use futures::executor::block_on;

    #[test]
    fn sleep_until_fires() {
        let start = Instant::now();
        block_on(sleep_until(start + Duration::from_millis(20)));
        assert!(start.elapsed() >= Duration::from_millis(20));
        // an already-past instant resolves without touching the timer
        block_on(sleep_until(start));
    }

    #[test]
    fn with_deadline_times_out_typed() {
        struct Never;
        impl Future for Never {
            type Output = Result<(), TrustError>;
            fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<Self::Output> {
                Poll::Pending
            }
        }
        let start = Instant::now();
        let result = block_on(with_deadline(Never, start + Duration::from_millis(25)));
        assert_eq!(result, Err(TrustError::TimedOut));
        assert!(start.elapsed() >= Duration::from_millis(25));

        let quick = Box::pin(async { Ok::<_, TrustError>(7u32) });
        assert_eq!(block_on(with_deadline(quick, Instant::now() + Duration::from_secs(5))), Ok(7));
    }

    #[test]
    fn jittered_backoff_grows_and_caps() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_secs(1);
        let mut rng = SmallRng::seed_from_u64(9);
        for attempt in 0..20 {
            let d = jittered(base, cap, attempt, &mut rng);
            let full = base.saturating_mul(1u32 << attempt.min(16)).min(cap);
            assert!(d <= full, "jitter never exceeds the full step");
            assert!(d >= full.mul_f64(0.5), "jitter keeps at least half the step");
            assert!(d <= cap, "never beyond the cap");
        }
    }

    #[test]
    fn sessions_are_unique() {
        let a = fresh_session();
        let b = fresh_session();
        assert_ne!(a, b);
    }

    #[test]
    fn fleet_cut_completeness() {
        let full: FleetCut<Vec<u64>> = FleetCut {
            value: vec![1, 2],
            epochs: vec![vec![3], vec![4]],
            missing: Vec::new(),
            stale: Vec::new(),
        };
        assert!(full.complete());
        assert!(full.fully_fresh());
        let partial: FleetCut<Vec<u64>> = FleetCut {
            value: vec![1],
            epochs: vec![vec![3], Vec::new()],
            missing: vec![(1, "127.0.0.1:1".into())],
            stale: Vec::new(),
        };
        assert!(!partial.complete());
        // a stale-served range still covers the key space, but the cut is
        // no longer fully fresh
        let cached: FleetCut<Vec<u64>> = FleetCut {
            value: vec![1, 2],
            epochs: vec![vec![3], vec![2]],
            missing: Vec::new(),
            stale: vec![(1, "127.0.0.1:1".into())],
        };
        assert!(cached.complete());
        assert!(!cached.fully_fresh());
    }

    #[test]
    fn node_stats_saturation_is_worst_shard() {
        let shard = |depth, cap| ShardStats {
            mailbox_depth: depth,
            mailbox_capacity: cap,
            drains: 0,
            commit_batches: 0,
            committed: 0,
            largest_commit_batch: 0,
            last_commit_batch: 0,
            published_epoch: 0,
            fold_ns: 0,
            mirror_ns: 0,
            publish_ns: 0,
            ack_ns: 0,
        };
        let stats = NodeStats {
            addr: "127.0.0.1:7477".into(),
            shards: Some(vec![shard(1, 10), shard(8, 10)]),
        };
        assert!(stats.reachable());
        assert!((stats.saturation().expect("reachable") - 0.8).abs() < 1e-12);
        let down = NodeStats { addr: "127.0.0.1:7478".into(), shards: None };
        assert!(!down.reachable());
        assert_eq!(down.saturation(), None);
    }
}
