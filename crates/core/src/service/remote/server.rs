//! The serving side: a TCP listener that exposes a running trust service
//! — a sharded router, or a single actor as a one-shard router — to remote
//! [`RemoteTrustServiceHandle`]s.
//!
//! # Threading model
//!
//! One **accept** thread owns the listener. Each accepted connection gets
//! two threads:
//!
//! - a **reader** that performs the banner handshake, then feeds bytes
//!   through a [`StreamDecoder`], decodes each request, and dispatches it
//!   *immediately* through the router's [`TrustApi`], whose operations
//!   send when called — so requests enter the actor mailboxes in the exact
//!   order this connection sent them, and a full mailbox blocks the
//!   reader, which stops reading the socket, which is TCP backpressure all
//!   the way to the client;
//! - a **writer** that multiplexes the in-flight reply futures of its
//!   connection with a shared [`Parker`] waker and writes each response
//!   frame as its future completes — *completion* order, not request
//!   order, which is what lets a cheap query overtake a slow flush on the
//!   same connection. Request ids pair responses back up client-side.
//!
//! # Failure containment
//!
//! A connection is a failure domain: a client that disconnects mid-batch
//! (or sends garbage) tears down its two threads and nothing else —
//! commits already in the mailboxes fold normally, their receipts resolve
//! into futures the dying writer simply drops, and every other connection
//! keeps being served. Framing-level violations (bad banner, corrupt
//! frame) close the connection; *request-level* decode errors (unknown
//! opcode, malformed body) are answered with the typed error on the id
//! they arrived under and the connection keeps serving.
//!
//! Stopping the **served trust service** does not stop the transport: a
//! stopped service answers every subsequent request with a typed
//! [`TrustError::ServiceStopped`] response. Stopping the **server**
//! closes the sockets, which clients surface as `ServiceStopped` on all
//! their in-flight futures.

use std::collections::VecDeque;
use std::future::Future;
use std::hash::Hash;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};
use std::thread::{self, JoinHandle};

use futures::executor::Parker;

use super::client::DEFAULT_CONNECT_TIMEOUT;
use super::dedup::{Claim, DedupWindow, TaggedCommit};
use super::wire::{self, QueryKind, Request, RequestError};
use crate::error::TrustError;
use crate::framing::{self, StreamDecoder};
use crate::log_backend::LogKey;
use crate::service::sharded::{FanOut, ShardedTrustServiceHandle};
use crate::service::{Freshness, TrustApi};
use crate::task::TaskId;

/// A reply future being driven by a connection's writer thread; resolves
/// to the fully-encoded response payload.
type RespFuture = Pin<Box<dyn Future<Output = Vec<u8>> + Send>>;

/// State shared between a connection's reader and writer threads.
struct Conn {
    /// Dispatched reply futures the writer has not yet adopted.
    queue: Mutex<VecDeque<RespFuture>>,
    /// Wakes the writer: new work queued, an in-flight future ready, or
    /// the reader announcing the connection is closing.
    parker: Parker,
    /// Set by the reader on EOF/error: the writer flushes what it has and
    /// exits.
    closing: AtomicBool,
}

#[derive(Debug)]
struct ConnHandle {
    stream: TcpStream,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
}

/// A TCP server exposing a trust service to remote clients. See the
/// [module docs](crate::service::remote) for the threading and failure model.
#[derive(Debug)]
pub struct RemoteTrustServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<ConnHandle>>>,
    window: DedupWindow,
}

impl RemoteTrustServer {
    /// Binds `addr` (use port 0 for an ephemeral port — read it back with
    /// [`local_addr`](Self::local_addr)) and starts serving `service`: a
    /// [`ShardedTrustServiceHandle`], or a single actor's handle, which
    /// converts into a one-shard router. Commits route by trustee,
    /// broadcasts fan out, and the epoch vectors in cut replies carry one
    /// entry per shard. Accepts any number of concurrent connections until
    /// [`shutdown`](Self::shutdown) or drop. Tagged commits dedup against
    /// a fresh [`DedupWindow`]; to carry one across a node restart, use
    /// [`bind_with`](Self::bind_with).
    pub fn bind<P, A>(
        addr: A,
        service: impl Into<ShardedTrustServiceHandle<P>>,
    ) -> Result<Self, TrustError>
    where
        P: LogKey + Hash + Send + Sync + 'static,
        A: ToSocketAddrs,
    {
        Self::bind_with(addr, service, DedupWindow::new())
    }

    /// [`bind`](Self::bind), but dedup tagged commits against a caller-
    /// supplied [`DedupWindow`]. A supervisor that restarts a node's
    /// server (after a graceful service drain) passes the previous
    /// window here, so commits retried from before the restart replay
    /// their receipts instead of folding twice.
    pub fn bind_with<P, A>(
        addr: A,
        service: impl Into<ShardedTrustServiceHandle<P>>,
        window: DedupWindow,
    ) -> Result<Self, TrustError>
    where
        P: LogKey + Hash + Send + Sync + 'static,
        A: ToSocketAddrs,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let service = service.into();
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(Mutex::new(Vec::new()));
        let accept = thread::Builder::new()
            .name("siot-remote-accept".into())
            .spawn({
                let stop = Arc::clone(&stop);
                let conns = Arc::clone(&conns);
                let window = window.clone();
                move || accept_loop(listener, service, stop, conns, window)
            })
            .map_err(|e| TrustError::Io(e.to_string()))?;
        Ok(RemoteTrustServer { addr, stop, accept: Some(accept), conns, window })
    }

    /// The address the server is actually listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The [`DedupWindow`] tagged commits are deduplicated against. Clone
    /// it before [`shutdown`](Self::shutdown) to hand the same window to a
    /// replacement server via [`bind_with`](Self::bind_with).
    pub fn dedup_window(&self) -> DedupWindow {
        self.window.clone()
    }

    /// Stops accepting, closes every live connection, and joins all
    /// transport threads. The served trust service itself is untouched —
    /// it keeps running for local handles (stop it through its own
    /// `shutdown`). Clients see their in-flight futures resolve to
    /// [`TrustError::ServiceStopped`].
    pub fn shutdown(mut self) {
        self.stop_transport();
    }

    fn stop_transport(&mut self) {
        let Some(accept) = self.accept.take() else { return };
        self.stop.store(true, Ordering::SeqCst);
        // the accept thread is parked in accept(2); a throwaway connection
        // is the portable way to run it through its stop check
        let _ = TcpStream::connect(self.addr);
        let _ = accept.join();
        let conns = std::mem::take(&mut *self.conns.lock().expect("connection registry"));
        for conn in conns {
            let _ = conn.stream.shutdown(Shutdown::Both);
            let _ = conn.reader.join();
            let _ = conn.writer.join();
        }
    }
}

impl Drop for RemoteTrustServer {
    fn drop(&mut self) {
        self.stop_transport();
    }
}

fn accept_loop<P: LogKey + Hash + Send + Sync + 'static>(
    listener: TcpListener,
    service: ShardedTrustServiceHandle<P>,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<ConnHandle>>>,
    window: DedupWindow,
) {
    for incoming in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = incoming else { continue };
        if let Ok(handle) = spawn_connection(stream, service.clone(), window.clone()) {
            conns.lock().expect("connection registry").push(handle);
        }
    }
}

fn spawn_connection<P: LogKey + Hash + Send + Sync + 'static>(
    stream: TcpStream,
    service: ShardedTrustServiceHandle<P>,
    window: DedupWindow,
) -> std::io::Result<ConnHandle> {
    let _ = stream.set_nodelay(true);
    let conn = Arc::new(Conn {
        queue: Mutex::new(VecDeque::new()),
        parker: Parker::new(),
        closing: AtomicBool::new(false),
    });
    let reader_stream = stream.try_clone()?;
    let writer_stream = stream.try_clone()?;
    let reader = thread::Builder::new().name("siot-remote-rx".into()).spawn({
        let conn = Arc::clone(&conn);
        move || reader_loop(reader_stream, service, conn, window)
    })?;
    let writer = thread::Builder::new()
        .name("siot-remote-tx".into())
        .spawn(move || writer_loop(writer_stream, conn))?;
    Ok(ConnHandle { stream, reader, writer })
}

fn reader_loop<P: LogKey + Hash + Send + Sync + 'static>(
    mut stream: TcpStream,
    service: ShardedTrustServiceHandle<P>,
    conn: Arc<Conn>,
    window: DedupWindow,
) {
    // the handshake runs under a socket deadline: a client that connects
    // and then black-holes (never sends its banner) must not pin this
    // reader thread forever
    let handshake = (|| -> Result<(), TrustError> {
        stream.set_write_timeout(Some(DEFAULT_CONNECT_TIMEOUT))?;
        stream.set_read_timeout(Some(DEFAULT_CONNECT_TIMEOUT))?;
        stream.write_all(&wire::banner())?;
        let mut banner = [0u8; wire::BANNER_LEN];
        stream.read_exact(&mut banner)?;
        stream.set_write_timeout(None)?;
        stream.set_read_timeout(None)?;
        wire::check_banner(&banner)
    })();
    if handshake.is_ok() {
        serve(&mut stream, &service, &conn, &window);
    }
    // hand the connection to the writer for its final flush; stop reading
    // but leave the write half open until the writer is done with it
    conn.closing.store(true, Ordering::SeqCst);
    conn.parker.unpark();
    let _ = stream.shutdown(Shutdown::Read);
}

fn serve<P: LogKey + Hash + Send + Sync + 'static>(
    stream: &mut TcpStream,
    service: &ShardedTrustServiceHandle<P>,
    conn: &Conn,
    window: &DedupWindow,
) {
    let mut decoder = StreamDecoder::new(wire::MAX_WIRE_FRAME);
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        decoder.extend(&buf[..n]);
        loop {
            // decode straight out of the stream buffer — no payload copy
            match decoder.next_payload_with(wire::decode_request::<P>) {
                Ok(Some(Ok((req_id, request)))) => {
                    enqueue(conn, dispatch(service, window, req_id, request));
                }
                Ok(Some(Err(RequestError::Addressed(req_id, err)))) => {
                    // the request was garbage but its id was readable:
                    // answer it with the typed error and keep serving
                    let payload = wire::err_payload(req_id, &err);
                    enqueue(conn, Box::pin(std::future::ready(payload)));
                }
                Ok(Some(Err(RequestError::Unaddressable))) => return,
                Ok(None) => break,
                // framing violation (oversized length, bad checksum):
                // nothing downstream of this byte can be trusted
                Err(_) => return,
            }
        }
    }
}

fn enqueue(conn: &Conn, fut: RespFuture) {
    conn.queue.lock().expect("conn queue").push_back(fut);
    conn.parker.unpark();
}

fn writer_loop(mut stream: TcpStream, conn: Arc<Conn>) {
    let waker = conn.parker.waker();
    let mut cx = Context::from_waker(&waker);
    let mut inflight: Vec<RespFuture> = Vec::new();
    let mut out = Vec::new();
    loop {
        inflight.extend(conn.queue.lock().expect("conn queue").drain(..));
        let mut i = 0;
        while i < inflight.len() {
            match inflight[i].as_mut().poll(&mut cx) {
                Poll::Ready(payload) => {
                    let start = framing::begin_frame(&mut out);
                    out.extend_from_slice(&payload);
                    framing::end_frame(&mut out, start);
                    drop(inflight.swap_remove(i));
                }
                Poll::Pending => i += 1,
            }
        }
        if !out.is_empty() {
            if stream.write_all(&out).is_err() {
                break;
            }
            out.clear();
        }
        if conn.closing.load(Ordering::SeqCst)
            && inflight.is_empty()
            && conn.queue.lock().expect("conn queue").is_empty()
        {
            break;
        }
        // level-triggered: anything that happened since the last poll pass
        // (enqueue, future completion, closing) left the token deposited,
        // so this returns immediately rather than losing the wakeup
        conn.parker.park();
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Sends `request` into the service **now** (every [`TrustApi`] operation
/// of the router sends when called — ordering into the mailboxes matches
/// wire arrival order) and returns the future of its encoded response.
fn dispatch<P: LogKey + Hash + Send + Sync + 'static>(
    h: &ShardedTrustServiceHandle<P>,
    window: &DedupWindow,
    req_id: u64,
    request: Request<P>,
) -> RespFuture {
    match request {
        Request::Commit(completed) => {
            respond(req_id, h.submit(completed), |out, r| wire::put_receipt(out, r))
        }
        Request::CommitMany(batch) => {
            respond(req_id, h.submit_batch(batch), |out, r| wire::put_receipts(out, r))
        }
        // tagged commits go through the dedup window: a retried
        // (session, seq) replays its receipts, never re-folds
        Request::CommitManySeq { session, seq, batch } => {
            dispatch_tagged(h, window, req_id, session, seq, batch)
        }
        Request::Complete(request, outcome) => {
            respond(req_id, h.complete(request, outcome), |out, r| wire::put_receipt(out, r))
        }
        Request::RegisterTask(task) => respond(req_id, h.register_task(task), |_, ()| {}),
        Request::Flush => respond(req_id, h.flush(), |_, ()| {}),
        Request::Shutdown => respond(req_id, h.shutdown(), |_, ()| {}),
        Request::Evaluate(request) => {
            respond(req_id, h.evaluate(request), |out, ev| wire::put_evaluated(out, ev))
        }
        // `Freshness::Snapshot` hits are answered right here on the reader
        // thread — a ready future, no actor dispatch at all
        Request::Trustworthiness(peer, task, freshness) => {
            respond(req_id, h.trustworthiness_with(peer, task, freshness), wire::put_opt_tw)
        }
        Request::Record(peer, task, freshness) => {
            respond(req_id, h.record_with(peer, task, freshness), wire::put_opt_record)
        }
        Request::QueryMany { kind, freshness, items } => {
            query_many(h, req_id, kind, freshness, items)
        }
        Request::KnownPeers(freshness) => {
            respond(req_id, h.known_peers_cut(freshness), |out, cut| wire::put_peers_cut(out, cut))
        }
        Request::TaskRecords(task, freshness) => {
            respond(req_id, h.task_records_cut(task, freshness), |out, cut| {
                wire::put_records_cut(out, cut)
            })
        }
        Request::ShardStats => respond(req_id, h.shard_stats(), |out, s| wire::put_stats(out, s)),
    }
}

/// Dispatches a `(session, seq)`-tagged commit through the [`DedupWindow`]:
/// a fresh tag folds (and caches its receipts), a duplicate of an
/// in-flight tag waits for the owner's result, a duplicate of a completed
/// tag replays the cached receipt bytes — the batch folds **at most once**
/// no matter how many times the client resends it.
fn dispatch_tagged<P: LogKey + Hash + Send + Sync + 'static>(
    h: &ShardedTrustServiceHandle<P>,
    window: &DedupWindow,
    req_id: u64,
    session: u64,
    seq: u64,
    batch: Vec<crate::delegation::CompletedDelegation<P>>,
) -> RespFuture {
    match window.claim(session, seq) {
        Claim::Mine => {
            // the fold is dispatched NOW (wire order): even if this
            // connection dies before the receipts resolve, the window's
            // orphan driver finishes collecting them, so the tag always
            // becomes replayable
            let receipts = h.submit_batch(batch);
            let fold = Box::pin(async move {
                let receipts = receipts.await?;
                let mut body = Vec::new();
                wire::put_receipts(&mut body, &receipts);
                Ok(body)
            });
            Box::pin(TaggedCommit {
                req_id,
                window: window.clone(),
                session,
                seq,
                inner: Some(fold),
            })
        }
        Claim::Replay(body) => Box::pin(std::future::ready(wire::ok_payload(req_id, |out| {
            out.extend_from_slice(&body)
        }))),
        Claim::Wait(rx) => Box::pin(async move {
            match rx.await {
                Ok(Ok(body)) => wire::ok_payload(req_id, |out| out.extend_from_slice(&body)),
                Ok(Err(err)) => wire::err_payload(req_id, &err),
                // the owner's window clone vanished without fulfilling —
                // only possible if the window itself is being torn down
                Err(_) => wire::err_payload(req_id, &TrustError::ServiceStopped),
            }
        }),
        Claim::Evicted => Box::pin(std::future::ready(wire::err_payload(
            req_id,
            &TrustError::Io(
                "receipts for replayed tagged commit were evicted from the dedup window".into(),
            ),
        ))),
    }
}

/// Dispatches a [`Request::QueryMany`] batch: each item routes to its
/// owning shard on this (reader) thread, so one frame can mix snapshot
/// hits (ready immediately) with mailbox fall-throughs across shards, and
/// the mailbox reads land in wire arrival order.
fn query_many<P: LogKey + Hash + Send + Sync + 'static>(
    h: &ShardedTrustServiceHandle<P>,
    req_id: u64,
    kind: QueryKind,
    freshness: Freshness,
    items: Vec<(P, TaskId)>,
) -> RespFuture {
    match kind {
        QueryKind::Trustworthiness => {
            let pending = items
                .into_iter()
                .map(|(peer, task)| h.trustworthiness_with(peer, task, freshness))
                .collect();
            respond(req_id, FanOut::new(pending, None), |out, tws| wire::put_opt_tws(out, tws))
        }
        QueryKind::Record => {
            let pending = items
                .into_iter()
                .map(|(peer, task)| h.record_with(peer, task, freshness))
                .collect();
            respond(req_id, FanOut::new(pending, None), |out, recs| {
                wire::put_opt_records(out, recs)
            })
        }
    }
}

/// Wraps a service-call future into the response payload: the ok body on
/// success, the typed wire error otherwise.
fn respond<T, F, E>(req_id: u64, fut: F, enc: E) -> RespFuture
where
    T: Send + 'static,
    F: Future<Output = Result<T, TrustError>> + Send + 'static,
    E: FnOnce(&mut Vec<u8>, &T) + Send + 'static,
{
    Box::pin(async move {
        match fut.await {
            Ok(value) => wire::ok_payload(req_id, |out| enc(out, &value)),
            Err(err) => wire::err_payload(req_id, &err),
        }
    })
}
