//! The calling side: [`RemoteTrustServiceHandle`] serves the
//! [`TrustApi`] over one TCP connection.
//!
//! Every method sends its request frame **eagerly** (on the method call,
//! not the first poll) tagged with a fresh request id, registers a oneshot
//! for the response, and returns a plain `std` future — so callers
//! pipeline exactly like they do against a local handle: submit a window
//! of completions first, await the receipts after. One background reader
//! thread pairs response frames back to their oneshots by id; responses
//! may arrive in any order, which is what makes the pipelining free of
//! head-of-line blocking.
//!
//! # Failure model
//!
//! Everything is a typed [`TrustError`], never a hang:
//!
//! - a *request-level* failure reported by the server (validation,
//!   stopped service) resolves just that future to the decoded error;
//! - a **corrupt response stream** fails every in-flight future with the
//!   decode error, then closes the connection;
//! - a **dead connection** (server gone, sockets closed) resolves every
//!   in-flight future — and every later call — to
//!   [`TrustError::ServiceStopped`].
//!
//! Dropping the last clone of a handle closes the connection.

use std::collections::HashMap;
use std::future::Future;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::task::{Context, Poll};
use std::thread;
use std::time::{Duration, Instant};

use futures::channel::oneshot;

use super::wire::{self, QueryKind, Request};
use crate::delegation::{
    CompletedDelegation, DelegationOutcome, DelegationReceipt, DelegationRequest,
    EvaluatedDelegation,
};
use crate::error::TrustError;
use crate::framing;
use crate::log_backend::LogKey;
use crate::record::TrustRecord;
use crate::service::sharded::Freshness;
use crate::service::{Cut, ShardStats, TrustApi};
use crate::task::{Task, TaskId};
use crate::tw::Trustworthiness;

/// Sessions per `CommitMany` frame: large enough that framing overhead
/// vanishes, small enough that one frame stays far under
/// the wire's frame-size cap and the server can interleave
/// other clients between chunks. The fleet tier chunks its tagged commits
/// at the same size.
pub const BATCH_CHUNK: usize = 65_536;

/// Default bound on [`RemoteTrustServiceHandle::connect`]: TCP connect
/// plus the banner handshake must finish within it, or the attempt fails
/// with a typed [`TrustError::TimedOut`] instead of hanging forever on a
/// black-holed address.
pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

struct WriteHalf {
    stream: TcpStream,
    /// Once set, no request will ever be written again; checked *after*
    /// registering in the pending map so a concurrent close can never
    /// strand a future (see [`ClientInner::send`]).
    closed: bool,
}

struct ClientInner {
    next_id: AtomicU64,
    writer: Mutex<WriteHalf>,
    pending: Mutex<HashMap<u64, oneshot::Sender<Vec<u8>>>>,
}

impl Drop for ClientInner {
    fn drop(&mut self) {
        // unblocks the reader thread (which holds only a Weak to us)
        let writer = self.writer.get_mut().expect("writer half");
        let _ = writer.stream.shutdown(Shutdown::Both);
    }
}

/// A connected client handle to a [`RemoteTrustServer`]: the
/// [`TrustApi`] over one connection; see the
/// [module docs](crate::service::remote) for pipelining and failure
/// semantics.
///
/// Cloning is cheap and clones share the connection (and its request-id
/// space) — hand clones to as many threads as you like.
///
/// [`RemoteTrustServer`]: super::RemoteTrustServer
#[derive(Debug)]
pub struct RemoteTrustServiceHandle<P> {
    inner: Arc<ClientInner>,
    _peer: std::marker::PhantomData<fn(P) -> P>,
}

impl<P> Clone for RemoteTrustServiceHandle<P> {
    fn clone(&self) -> Self {
        RemoteTrustServiceHandle { inner: Arc::clone(&self.inner), _peer: std::marker::PhantomData }
    }
}

impl std::fmt::Debug for ClientInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientInner").finish_non_exhaustive()
    }
}

impl<P: LogKey + Send + 'static> RemoteTrustServiceHandle<P> {
    /// Connects to a [`RemoteTrustServer`](super::RemoteTrustServer) and
    /// performs the banner handshake, both bounded by
    /// [`DEFAULT_CONNECT_TIMEOUT`]. Fails typed on a version mismatch
    /// ([`TrustError::UnsupportedFormat`]), a non-SIOT peer
    /// ([`TrustError::Corrupt`]), or a peer that accepts the connection but
    /// never answers the banner ([`TrustError::TimedOut`] — a black-holed
    /// address can no longer hang the caller forever).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, TrustError> {
        Self::connect_with(addr, DEFAULT_CONNECT_TIMEOUT)
    }

    /// [`connect`](Self::connect) with an explicit bound on the whole
    /// attempt (TCP connect + banner exchange).
    pub fn connect_with(addr: impl ToSocketAddrs, timeout: Duration) -> Result<Self, TrustError> {
        let deadline = Instant::now() + timeout;
        // resolve first: connect_timeout needs concrete addresses. Try
        // each, splitting what remains of the budget evenly across them.
        let addrs: Vec<_> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(TrustError::Io("address resolved to nothing".into()));
        }
        let mut stream = None;
        let mut last_err = TrustError::TimedOut;
        for (i, a) in addrs.iter().enumerate() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(TrustError::TimedOut);
            }
            let budget = remaining / (addrs.len() - i) as u32;
            match TcpStream::connect_timeout(a, budget.max(Duration::from_millis(1))) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last_err = timeout_as_typed(e),
            }
        }
        let Some(mut stream) = stream else { return Err(last_err) };
        let _ = stream.set_nodelay(true);
        // the banner exchange runs under socket deadlines so a peer that
        // accepts but never speaks cannot wedge the caller
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(TrustError::TimedOut);
        }
        stream.set_write_timeout(Some(remaining))?;
        stream.set_read_timeout(Some(remaining))?;
        let handshake = (|| -> std::io::Result<[u8; wire::BANNER_LEN]> {
            stream.write_all(&wire::banner())?;
            let mut banner = [0u8; wire::BANNER_LEN];
            stream.read_exact(&mut banner)?;
            Ok(banner)
        })();
        let banner = handshake.map_err(timeout_as_typed)?;
        wire::check_banner(&banner)?;
        // steady state reads/writes block indefinitely again: per-request
        // deadlines are the fleet tier's job, not the socket's
        stream.set_read_timeout(None)?;
        stream.set_write_timeout(None)?;
        let reader_stream = stream.try_clone()?;
        let inner = Arc::new(ClientInner {
            next_id: AtomicU64::new(0),
            writer: Mutex::new(WriteHalf { stream, closed: false }),
            pending: Mutex::new(HashMap::new()),
        });
        let weak = Arc::downgrade(&inner);
        thread::Builder::new()
            .name("siot-remote-client-rx".into())
            .spawn(move || reader_loop(reader_stream, weak))
            .map_err(|e| TrustError::Io(e.to_string()))?;
        Ok(RemoteTrustServiceHandle { inner, _peer: std::marker::PhantomData })
    }

    /// Whether this handle's connection is closed (reader saw EOF/corrupt
    /// stream, or a write failed). Once true, every call fails with
    /// [`TrustError::ServiceStopped`] — the signal the fleet tier uses to
    /// distinguish a *dead transport* (reconnect and retry) from a
    /// healthy server reporting a genuinely stopped service (final).
    pub fn transport_closed(&self) -> bool {
        self.inner.writer.lock().expect("writer half").closed
    }

    /// Eagerly submits one `(session, seq)`-tagged batch — the fleet
    /// tier's idempotent commit path. A server that already folded this
    /// tag replays the cached receipts instead of folding again, so
    /// resending the identical call after a connection loss can never
    /// double-count (see [`DedupWindow`](super::DedupWindow)). The batch
    /// must fit one frame — callers chunk at [`BATCH_CHUNK`] sessions.
    pub fn submit_batch_tagged(
        &self,
        session: u64,
        seq: u64,
        batch: Vec<CompletedDelegation<P>>,
    ) -> RemotePending<Vec<DelegationReceipt<P>>> {
        self.send(Request::CommitManySeq { session, seq, batch }, wire::decode_receipts::<P>)
    }

    /// Encodes and writes one request frame, returning the future of its
    /// decoded response.
    fn send<T>(&self, request: Request<P>, decode: DecodeFn<T>) -> RemotePending<T> {
        let req_id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let mut frame = Vec::new();
        let start = framing::begin_frame(&mut frame);
        wire::encode_request(&mut frame, req_id, &request);
        framing::end_frame(&mut frame, start);
        self.send_frame(req_id, frame, decode)
    }

    /// [`send`](Self::send) from a pre-encoded request tail (opcode
    /// onward) — the fleet's resend path: the same bytes that failed go
    /// back out verbatim under a fresh request id.
    pub(crate) fn send_tail<T>(&self, tail: &[u8], decode: DecodeFn<T>) -> RemotePending<T> {
        let req_id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let mut frame = Vec::new();
        let start = framing::begin_frame(&mut frame);
        frame.extend_from_slice(&req_id.to_le_bytes());
        frame.extend_from_slice(tail);
        framing::end_frame(&mut frame, start);
        self.send_frame(req_id, frame, decode)
    }

    /// Writes one fully-framed request eagerly and registers its oneshot.
    fn send_frame<T>(&self, req_id: u64, frame: Vec<u8>, decode: DecodeFn<T>) -> RemotePending<T> {
        let (tx, rx) = oneshot::channel();
        self.inner.pending.lock().expect("pending map").insert(req_id, tx);
        let mut writer = self.inner.writer.lock().expect("writer half");
        if writer.closed {
            // the reader already drained (or is draining) the pending map
            // under this same closed flag; our entry may or may not have
            // been caught — remove it ourselves and fail locally
            drop(writer);
            self.inner.pending.lock().expect("pending map").remove(&req_id);
            return RemotePending::failed(TrustError::ServiceStopped);
        }
        if let Err(e) = writer.stream.write_all(&frame) {
            writer.closed = true;
            let _ = writer.stream.shutdown(Shutdown::Both);
            drop(writer);
            self.inner.pending.lock().expect("pending map").remove(&req_id);
            return RemotePending::failed(e.into());
        }
        drop(writer);
        RemotePending::waiting(rx, decode)
    }

    /// Eagerly submits one finished session — [`TrustApi::submit`] with
    /// the wire's own future type.
    pub fn submit(&self, completed: CompletedDelegation<P>) -> RemotePending<DelegationReceipt<P>> {
        self.send(Request::Commit(completed), wire::decode_receipt::<P>)
    }

    /// Eagerly submits a batch of finished sessions and returns the future
    /// of their receipts in batch order. Large batches are split into
    /// frames of `BATCH_CHUNK` sessions, all written before this
    /// returns, so the server folds them as one pipelined stream. An empty
    /// batch resolves immediately without a round trip.
    pub fn submit_batch(
        &self,
        mut batch: Vec<CompletedDelegation<P>>,
    ) -> impl Future<Output = Result<Vec<DelegationReceipt<P>>, TrustError>> {
        let mut parts = Vec::new();
        while !batch.is_empty() {
            let rest = batch.split_off(batch.len().min(BATCH_CHUNK));
            parts.push(self.send(Request::CommitMany(batch), wire::decode_receipts::<P>));
            batch = rest;
        }
        async move {
            let mut receipts = Vec::new();
            for part in parts {
                receipts.extend(part.await?);
            }
            Ok(receipts)
        }
    }

    /// [`TrustApi::record_with`], written now. Under
    /// [`Freshness::Snapshot`] a fresh-enough server answers straight off
    /// the published replica snapshot — the reply never waits behind the
    /// write path at all.
    pub fn record_with(
        &self,
        peer: P,
        task: TaskId,
        freshness: Freshness,
    ) -> RemotePending<Option<TrustRecord>> {
        self.send(Request::Record(peer, task, freshness), wire::decode_opt_record)
    }

    /// Many trustworthiness lookups in bulk: the whole batch rides
    /// `QueryMany` frames of up to [`BATCH_CHUNK`] items (all written
    /// before this returns, like [`submit_batch`](Self::submit_batch)),
    /// and resolves to one answer per item in batch order. The
    /// homogeneous-read mirror of `CommitMany` — one frame instead of
    /// thousands of per-item round trips. An empty batch resolves
    /// immediately without a round trip.
    pub fn trustworthiness_many(
        &self,
        mut items: Vec<(P, TaskId)>,
        freshness: Freshness,
    ) -> impl Future<Output = Result<Vec<Option<Trustworthiness>>, TrustError>> {
        let mut parts = Vec::new();
        while !items.is_empty() {
            let rest = items.split_off(items.len().min(BATCH_CHUNK));
            parts.push(self.send(
                Request::QueryMany { kind: QueryKind::Trustworthiness, freshness, items },
                wire::decode_opt_tws,
            ));
            items = rest;
        }
        async move {
            let mut answers = Vec::new();
            for part in parts {
                answers.extend(part.await?);
            }
            Ok(answers)
        }
    }

    /// Many record lookups in bulk; see
    /// [`trustworthiness_many`](Self::trustworthiness_many).
    pub fn record_many(
        &self,
        mut items: Vec<(P, TaskId)>,
        freshness: Freshness,
    ) -> impl Future<Output = Result<Vec<Option<TrustRecord>>, TrustError>> {
        let mut parts = Vec::new();
        while !items.is_empty() {
            let rest = items.split_off(items.len().min(BATCH_CHUNK));
            parts.push(self.send(
                Request::QueryMany { kind: QueryKind::Record, freshness, items },
                wire::decode_opt_records,
            ));
            items = rest;
        }
        async move {
            let mut answers = Vec::new();
            for part in parts {
                answers.extend(part.await?);
            }
            Ok(answers)
        }
    }

    /// The epoch-stamped cut behind [`TrustApi::known_peers_with`]. Under
    /// [`Freshness::Aligned`] the server runs its rendezvous barrier, so
    /// the epoch vector names one global instant of the fleet — the
    /// cross-process consistency token.
    pub fn known_peers_cut(&self, freshness: Freshness) -> RemotePending<Cut<Vec<P>>> {
        self.send(Request::KnownPeers(freshness), wire::decode_peers_cut::<P>)
    }

    /// The epoch-stamped cut behind [`TrustApi::task_records_with`].
    pub fn task_records_cut(
        &self,
        task: TaskId,
        freshness: Freshness,
    ) -> RemotePending<Cut<Vec<(P, TrustRecord)>>> {
        self.send(Request::TaskRecords(task, freshness), wire::decode_records_cut::<P>)
    }
}

/// Every operation is one request frame written when the method is
/// called; a server-side error comes back as the same typed
/// [`TrustError`]. [`shutdown`](TrustApi::shutdown) stops the **served
/// service** (same guarantees as a local shutdown) and leaves the
/// transport up: later requests are answered with
/// [`TrustError::ServiceStopped`].
impl<P: LogKey + Send + 'static> TrustApi<P> for RemoteTrustServiceHandle<P> {
    fn submit(
        &self,
        completed: CompletedDelegation<P>,
    ) -> impl Future<Output = Result<DelegationReceipt<P>, TrustError>> + Send + 'static {
        RemoteTrustServiceHandle::submit(self, completed)
    }

    fn submit_batch(
        &self,
        batch: Vec<CompletedDelegation<P>>,
    ) -> impl Future<Output = Result<Vec<DelegationReceipt<P>>, TrustError>> + Send + 'static {
        RemoteTrustServiceHandle::submit_batch(self, batch)
    }

    fn evaluate(
        &self,
        request: DelegationRequest<P>,
    ) -> impl Future<Output = Result<EvaluatedDelegation<P>, TrustError>> + Send + 'static {
        self.send(Request::Evaluate(request), wire::decode_evaluated::<P>)
    }

    fn complete(
        &self,
        request: DelegationRequest<P>,
        outcome: DelegationOutcome,
    ) -> impl Future<Output = Result<DelegationReceipt<P>, TrustError>> + Send + 'static {
        self.send(Request::Complete(request, outcome), wire::decode_receipt::<P>)
    }

    fn register_task(
        &self,
        task: Task,
    ) -> impl Future<Output = Result<(), TrustError>> + Send + 'static {
        self.send(Request::RegisterTask(task), wire::decode_unit)
    }

    fn record_with(
        &self,
        peer: P,
        task: TaskId,
        freshness: Freshness,
    ) -> impl Future<Output = Result<Option<TrustRecord>, TrustError>> + Send + 'static {
        RemoteTrustServiceHandle::record_with(self, peer, task, freshness)
    }

    fn trustworthiness_with(
        &self,
        peer: P,
        task: TaskId,
        freshness: Freshness,
    ) -> impl Future<Output = Result<Option<Trustworthiness>, TrustError>> + Send + 'static {
        self.send(Request::Trustworthiness(peer, task, freshness), wire::decode_opt_tw)
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
        self.send(Request::ShardStats, wire::decode_stats)
    }

    fn flush(&self) -> impl Future<Output = Result<(), TrustError>> + Send + 'static {
        self.send(Request::Flush, wire::decode_unit)
    }

    fn shutdown(&self) -> impl Future<Output = Result<(), TrustError>> + Send + 'static {
        self.send(Request::Shutdown, wire::decode_unit)
    }
}

/// A connect/handshake I/O failure whose kind says "the clock ran out"
/// becomes the typed [`TrustError::TimedOut`]; anything else stays an
/// [`TrustError::Io`].
fn timeout_as_typed(e: std::io::Error) -> TrustError {
    match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => TrustError::TimedOut,
        _ => e.into(),
    }
}

fn reader_loop(mut stream: TcpStream, client: Weak<ClientInner>) {
    let mut decoder = framing::StreamDecoder::new(wire::MAX_WIRE_FRAME);
    let mut buf = vec![0u8; 64 * 1024];
    // None: clean EOF (server closed) → pending futures fail ServiceStopped.
    // Some(err): the response stream itself is sick → pending futures get
    // the typed decode error.
    let failure: Option<TrustError> = 'read: loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => break None,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break None,
        };
        decoder.extend(&buf[..n]);
        loop {
            // split id and body straight out of the stream buffer — the
            // single copy made is the owned body handed to the waiter
            let split = decoder.next_payload_with(|payload| {
                if payload.len() < 9 {
                    return None;
                }
                let req_id = u64::from_le_bytes(payload[..8].try_into().expect("length checked"));
                Some((req_id, payload[8..].to_vec()))
            });
            match split {
                Ok(Some(Some((req_id, body)))) => {
                    let Some(client) = client.upgrade() else { return };
                    let sender = client.pending.lock().expect("pending map").remove(&req_id);
                    if let Some(sender) = sender {
                        let _ = sender.send(body);
                    }
                }
                Ok(Some(None)) => {
                    break 'read Some(TrustError::Corrupt { what: "wire response", offset: 0 });
                }
                Ok(None) => break,
                Err(err) => break 'read Some(err),
            }
        }
    };
    let Some(client) = client.upgrade() else { return };
    // order matters: set closed under the writer lock *first*, so any
    // send() that slips its entry into the pending map afterwards will see
    // the flag and fail itself — nothing can be stranded un-resolved
    {
        let mut writer = client.writer.lock().expect("writer half");
        writer.closed = true;
        let _ = writer.stream.shutdown(Shutdown::Both);
    }
    let drained: Vec<oneshot::Sender<Vec<u8>>> = {
        let mut pending = client.pending.lock().expect("pending map");
        pending.drain().map(|(_, tx)| tx).collect()
    };
    match failure {
        // synthesize an error response for every in-flight future: they
        // resolve to the typed error, not a mystery hang
        Some(err) => {
            let body = wire::err_body(&err);
            for tx in drained {
                let _ = tx.send(body.clone());
            }
        }
        // dropping the senders cancels the oneshots; RemotePending maps
        // cancellation to ServiceStopped
        None => drop(drained),
    }
}

pub(crate) type DecodeFn<T> = fn(&[u8]) -> Result<T, TrustError>;

enum RemoteState<T> {
    Waiting(oneshot::Receiver<Vec<u8>>, DecodeFn<T>),
    Failed(Option<TrustError>),
}

/// The future of one remote response. Plain `std`, `Unpin`; drive it with
/// [`block_on`](crate::service::block_on) or any executor. Dropping it
/// abandons the response (the reader discards unclaimed ids).
pub struct RemotePending<T> {
    state: RemoteState<T>,
}

impl<T> RemotePending<T> {
    fn waiting(rx: oneshot::Receiver<Vec<u8>>, decode: DecodeFn<T>) -> Self {
        RemotePending { state: RemoteState::Waiting(rx, decode) }
    }

    fn failed(err: TrustError) -> Self {
        RemotePending { state: RemoteState::Failed(Some(err)) }
    }
}

impl<T> std::fmt::Debug for RemotePending<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemotePending").finish_non_exhaustive()
    }
}

impl<T> Unpin for RemotePending<T> {}

impl<T> Future for RemotePending<T> {
    type Output = Result<T, TrustError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        match &mut self.get_mut().state {
            RemoteState::Waiting(rx, decode) => Pin::new(rx).poll(cx).map(|r| match r {
                Ok(tail) => decode(wire::split_status(&tail)?),
                Err(oneshot::Canceled) => Err(TrustError::ServiceStopped),
            }),
            RemoteState::Failed(err) => {
                Poll::Ready(Err(err.take().expect("a resolved RemotePending is not re-polled")))
            }
        }
    }
}
