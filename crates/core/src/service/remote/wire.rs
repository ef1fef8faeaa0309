//! The wire codec: every request and response the remote tier speaks,
//! serialized into [`framing`](crate::framing) payloads.
//!
//! All reals travel as their IEEE-754 bit patterns (`f64::to_bits`, LE) so
//! a value that round-trips through the wire compares **bit-identical** to
//! the original — the same discipline the durable log uses, and what lets
//! the equivalence proptests pin remote commits against in-process folds.
//! Peers travel through [`LogKey`]'s lossless `u64` embedding.
//!
//! Decoding never trusts the peer: every read is bounds-checked, every
//! enum byte matched exhaustively, every domain value re-validated through
//! the same constructors local callers use ([`EnvIndicator::new`],
//! [`Observation::validate`], the non-renormalizing task rebuild). A
//! malformed payload is a typed [`TrustError`], never a panic.

use crate::context::Context;
use crate::delegation::{
    CompletedDelegation, DeclineReason, DelegationOutcome, DelegationReceipt, DelegationRequest,
    EvaluatedDelegation, EvaluationBasis, Referral, ResourceUse,
};
use crate::environment::EnvIndicator;
use crate::error::TrustError;
use crate::goal::Goal;
use crate::log_backend::LogKey;
use crate::record::{Observation, TrustRecord};
use crate::service::sharded::Freshness;
use crate::service::{Cut, ShardStats};
use crate::task::{CharacteristicId, Task, TaskId};
use crate::transitivity::TransitivityGates;
use crate::tw::Trustworthiness;

/// Wire protocol version this build speaks. Bumped on any frame-layout
/// change; mismatched ends fail the handshake with
/// [`TrustError::UnsupportedFormat`].
///
/// v2: peer-targeted reads carry a [`Freshness`], `Freshness::Snapshot`
/// travels with its staleness bound, `ShardStats` gained
/// `published_epoch`, and the vectored [`Request::QueryMany`] opcode
/// batches homogeneous reads into one frame.
///
/// v3: `ShardStats` gained the write path's stage timers (`fold_ns`,
/// `mirror_ns`, `publish_ns`, `ack_ns`).
pub const WIRE_VERSION: u8 = 3;

/// Bytes of the connection banner each end sends first.
pub const BANNER_LEN: usize = 8;

/// Frames above this payload size are rejected as garbage before their
/// length prefix can drive an allocation. Generous: a vectored commit
/// chunk tops out well under it (the client chunks batches).
pub const MAX_WIRE_FRAME: u32 = 1 << 24;

/// The banner each end writes on connect: magic, protocol version, two
/// reserved zero bytes.
pub fn banner() -> [u8; BANNER_LEN] {
    [b'S', b'I', b'O', b'T', b'W', WIRE_VERSION, 0, 0]
}

/// Validates a received banner.
pub fn check_banner(received: &[u8; BANNER_LEN]) -> Result<(), TrustError> {
    if &received[..5] != b"SIOTW" || received[6] != 0 || received[7] != 0 {
        return Err(TrustError::Corrupt { what: "wire banner", offset: 0 });
    }
    if received[5] != WIRE_VERSION {
        return Err(TrustError::UnsupportedFormat { found: received[5], expected: WIRE_VERSION });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

const OP_COMMIT: u8 = 1;
const OP_COMMIT_MANY: u8 = 2;
const OP_COMPLETE: u8 = 3;
const OP_REGISTER_TASK: u8 = 4;
const OP_FLUSH: u8 = 5;
const OP_SHUTDOWN: u8 = 6;
const OP_EVALUATE: u8 = 7;
const OP_TRUSTWORTHINESS: u8 = 8;
const OP_RECORD: u8 = 9;
const OP_KNOWN_PEERS: u8 = 10;
const OP_TASK_RECORDS: u8 = 11;
const OP_SHARD_STATS: u8 = 12;
const OP_COMMIT_MANY_SEQ: u8 = 13;
const OP_QUERY_MANY: u8 = 14;

/// One decoded request — the wire form of the service API. Mirrors the
/// actor's `Command`/`Query` split, flattened into opcodes.
pub enum Request<P> {
    /// Fold one finished session.
    Commit(CompletedDelegation<P>),
    /// Fold a vectored batch of finished sessions.
    CommitMany(Vec<CompletedDelegation<P>>),
    /// Activate + validate + fold a whole session in one round trip.
    Complete(DelegationRequest<P>, DelegationOutcome),
    /// Register (or replace) a task definition.
    RegisterTask(Task),
    /// Push engine state down to stable storage.
    Flush,
    /// Stop the served trust service (the transport stays up).
    Shutdown,
    /// Run the §3.3 evaluation server-side.
    Evaluate(DelegationRequest<P>),
    /// Eq. 18 trustworthiness toward `(peer, task)`, at the requested
    /// freshness ([`Freshness::Snapshot`] is answered on the connection's
    /// reader thread, without dispatching into the actor).
    Trustworthiness(P, TaskId, Freshness),
    /// The raw record for `(peer, task)`, at the requested freshness.
    Record(P, TaskId, Freshness),
    /// Epoch-stamped peers broadcast, at the requested freshness.
    KnownPeers(Freshness),
    /// Epoch-stamped per-task records broadcast.
    TaskRecords(TaskId, Freshness),
    /// Per-shard saturation counters.
    ShardStats,
    /// [`CommitMany`](Request::CommitMany) stamped with a client session
    /// and sequence id, the fleet tier's idempotent-replay path: the
    /// server folds a given `(session, seq)` at most once and replays the
    /// cached receipts to retries (see
    /// [`DedupWindow`](super::DedupWindow)).
    CommitManySeq {
        /// The committing client's session id (stable across reconnects).
        session: u64,
        /// The batch's sequence id within the session.
        seq: u64,
        /// The finished sessions to fold.
        batch: Vec<CompletedDelegation<P>>,
    },
    /// A vectored batch of homogeneous peer-targeted reads in one frame —
    /// the read mirror of [`CommitMany`](Request::CommitMany). The
    /// response is one vector of per-item answers in request order.
    QueryMany {
        /// What every item asks for.
        kind: QueryKind,
        /// The freshness every item is answered at.
        freshness: Freshness,
        /// The `(peer, task)` pairs to read.
        items: Vec<(P, TaskId)>,
    },
}

/// The homogeneous read a [`Request::QueryMany`] batch performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Eq. 18 trustworthiness per item.
    Trustworthiness,
    /// The raw record per item.
    Record,
}

/// Serializes `request` (prefixed by `req_id` and its opcode) into `out`.
pub fn encode_request<P: LogKey>(out: &mut Vec<u8>, req_id: u64, request: &Request<P>) {
    out.extend_from_slice(&req_id.to_le_bytes());
    match request {
        Request::Commit(completed) => {
            out.push(OP_COMMIT);
            put_completed(out, completed);
        }
        Request::CommitMany(batch) => {
            out.push(OP_COMMIT_MANY);
            out.extend_from_slice(&(batch.len() as u32).to_le_bytes());
            for completed in batch {
                put_completed(out, completed);
            }
        }
        Request::Complete(request, outcome) => {
            out.push(OP_COMPLETE);
            put_request(out, request);
            put_observation(out, &outcome.observation);
            out.push(resource_use_code(outcome.resource_use));
        }
        Request::RegisterTask(task) => {
            out.push(OP_REGISTER_TASK);
            put_task(out, task);
        }
        Request::Flush => out.push(OP_FLUSH),
        Request::Shutdown => out.push(OP_SHUTDOWN),
        Request::Evaluate(request) => {
            out.push(OP_EVALUATE);
            put_request(out, request);
        }
        Request::Trustworthiness(peer, task, freshness) => {
            out.push(OP_TRUSTWORTHINESS);
            out.extend_from_slice(&peer.to_log_u64().to_le_bytes());
            out.extend_from_slice(&task.0.to_le_bytes());
            put_freshness(out, *freshness);
        }
        Request::Record(peer, task, freshness) => {
            out.push(OP_RECORD);
            out.extend_from_slice(&peer.to_log_u64().to_le_bytes());
            out.extend_from_slice(&task.0.to_le_bytes());
            put_freshness(out, *freshness);
        }
        Request::KnownPeers(freshness) => {
            out.push(OP_KNOWN_PEERS);
            put_freshness(out, *freshness);
        }
        Request::TaskRecords(task, freshness) => {
            out.push(OP_TASK_RECORDS);
            out.extend_from_slice(&task.0.to_le_bytes());
            put_freshness(out, *freshness);
        }
        Request::ShardStats => out.push(OP_SHARD_STATS),
        Request::CommitManySeq { session, seq, batch } => {
            out.push(OP_COMMIT_MANY_SEQ);
            out.extend_from_slice(&session.to_le_bytes());
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(&(batch.len() as u32).to_le_bytes());
            for completed in batch {
                put_completed(out, completed);
            }
        }
        Request::QueryMany { kind, freshness, items } => {
            out.push(OP_QUERY_MANY);
            out.push(query_kind_code(*kind));
            put_freshness(out, *freshness);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for (peer, task) in items {
                out.extend_from_slice(&peer.to_log_u64().to_le_bytes());
                out.extend_from_slice(&task.0.to_le_bytes());
            }
        }
    }
}

/// Pre-encodes the request *tail* (opcode onward — everything after the
/// request id) of a `CommitManySeq`. The fleet tier encodes each tagged
/// chunk exactly once, **consuming** the sessions (keeping
/// [`CompletedDelegation`] un-clonable), and resends the identical bytes
/// on every retry of the tag.
pub(crate) fn commit_many_seq_tail<P: LogKey>(
    session: u64,
    seq: u64,
    batch: &[CompletedDelegation<P>],
) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(OP_COMMIT_MANY_SEQ);
    out.extend_from_slice(&session.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    for completed in batch {
        put_completed(&mut out, completed);
    }
    out
}

/// How a request payload failed to decode.
pub enum RequestError {
    /// The payload was too short to even carry a request id: nothing to
    /// address an error response to, so the connection must close.
    Unaddressable,
    /// The id was readable but the rest was not: the server responds to
    /// that id with the typed error and keeps serving the connection.
    Addressed(u64, TrustError),
}

/// Decodes a request payload into `(req_id, request)`.
pub fn decode_request<P: LogKey>(payload: &[u8]) -> Result<(u64, Request<P>), RequestError> {
    if payload.len() < 9 {
        return Err(RequestError::Unaddressable);
    }
    let req_id = u64::from_le_bytes(payload[..8].try_into().expect("length checked"));
    let mut r = Reader::new(&payload[8..], "wire request");
    let request = decode_request_body(&mut r).map_err(|e| RequestError::Addressed(req_id, e))?;
    r.finish().map_err(|e| RequestError::Addressed(req_id, e))?;
    Ok((req_id, request))
}

fn decode_request_body<P: LogKey>(r: &mut Reader<'_>) -> Result<Request<P>, TrustError> {
    Ok(match r.u8()? {
        OP_COMMIT => Request::Commit(take_completed(r)?),
        OP_COMMIT_MANY => {
            let n = r.u32()? as usize;
            // each session is ≥ 89 bytes: a count the remaining bytes
            // cannot possibly hold is rejected before it sizes a Vec
            if n > r.remaining() {
                return Err(corrupt_req());
            }
            let mut batch = Vec::with_capacity(n);
            for _ in 0..n {
                batch.push(take_completed(r)?);
            }
            Request::CommitMany(batch)
        }
        OP_COMPLETE => {
            let request = take_request(r)?;
            let observation = take_observation(r)?;
            let resource_use = take_resource_use(r)?;
            Request::Complete(request, DelegationOutcome { observation, resource_use })
        }
        OP_REGISTER_TASK => Request::RegisterTask(take_task(r)?),
        OP_FLUSH => Request::Flush,
        OP_SHUTDOWN => Request::Shutdown,
        OP_EVALUATE => Request::Evaluate(take_request(r)?),
        OP_TRUSTWORTHINESS => {
            Request::Trustworthiness(take_peer(r)?, take_task_id(r)?, take_freshness(r)?)
        }
        OP_RECORD => Request::Record(take_peer(r)?, take_task_id(r)?, take_freshness(r)?),
        OP_KNOWN_PEERS => Request::KnownPeers(take_freshness(r)?),
        OP_TASK_RECORDS => Request::TaskRecords(take_task_id(r)?, take_freshness(r)?),
        OP_SHARD_STATS => Request::ShardStats,
        OP_COMMIT_MANY_SEQ => {
            let session = r.u64()?;
            let seq = r.u64()?;
            let n = r.u32()? as usize;
            if n > r.remaining() {
                return Err(corrupt_req());
            }
            let mut batch = Vec::with_capacity(n);
            for _ in 0..n {
                batch.push(take_completed(r)?);
            }
            Request::CommitManySeq { session, seq, batch }
        }
        OP_QUERY_MANY => {
            let kind = take_query_kind(r)?;
            let freshness = take_freshness(r)?;
            let n = r.u32()? as usize;
            // each item is 12 bytes: a count the remaining bytes cannot
            // possibly hold is rejected before it sizes a Vec
            if n > r.remaining() {
                return Err(corrupt_req());
            }
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push((take_peer(r)?, take_task_id(r)?));
            }
            Request::QueryMany { kind, freshness, items }
        }
        _ => return Err(corrupt_req()),
    })
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Builds a success response payload: `req_id | status 0 | body`.
pub fn ok_payload(req_id: u64, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&req_id.to_le_bytes());
    out.push(0);
    body(&mut out);
    out
}

/// Builds an error response payload: `req_id | status 1 | error`.
pub fn err_payload(req_id: u64, err: &TrustError) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&req_id.to_le_bytes());
    out.extend_from_slice(&err_body(err));
    out
}

/// The `status 1 | error` tail of an error response — also what the client
/// synthesizes locally to fail every in-flight future when its transport
/// dies on a *typed* condition (a corrupt response stream).
pub fn err_body(err: &TrustError) -> Vec<u8> {
    let mut out = vec![1u8];
    put_error(&mut out, err);
    out
}

/// Decodes a `status | body` response tail into the ok-body, or the typed
/// error the server reported.
pub fn split_status(tail: &[u8]) -> Result<&[u8], TrustError> {
    match tail.first() {
        Some(0) => Ok(&tail[1..]),
        Some(1) => Err(take_error(&mut Reader::new(&tail[1..], "wire response"))?),
        _ => Err(corrupt_resp()),
    }
}

// Body codecs — the server encodes with `put_*`, the client decodes with
// the matching `decode_*` (each a `fn` pointer the client's future holds).

/// Encodes one receipt.
pub fn put_receipt<P: LogKey>(out: &mut Vec<u8>, receipt: &DelegationReceipt<P>) {
    out.extend_from_slice(&receipt.trustee.to_log_u64().to_le_bytes());
    out.extend_from_slice(&receipt.task.0.to_le_bytes());
    put_record(out, &receipt.record);
    put_f64(out, receipt.trustworthiness.value());
    out.push(receipt.fulfilled as u8);
}

/// Decodes one receipt body.
pub fn decode_receipt<P: LogKey>(body: &[u8]) -> Result<DelegationReceipt<P>, TrustError> {
    let mut r = Reader::new(body, "wire response");
    let receipt = take_receipt(&mut r)?;
    r.finish()?;
    Ok(receipt)
}

fn take_receipt<P: LogKey>(r: &mut Reader<'_>) -> Result<DelegationReceipt<P>, TrustError> {
    Ok(DelegationReceipt {
        trustee: take_peer(r)?,
        task: take_task_id(r)?,
        record: take_record(r)?,
        trustworthiness: Trustworthiness::new(r.f64()?),
        fulfilled: r.bool()?,
    })
}

/// Encodes a receipt vector.
pub fn put_receipts<P: LogKey>(out: &mut Vec<u8>, receipts: &[DelegationReceipt<P>]) {
    out.extend_from_slice(&(receipts.len() as u32).to_le_bytes());
    for receipt in receipts {
        put_receipt(out, receipt);
    }
}

/// Decodes a receipt-vector body.
pub fn decode_receipts<P: LogKey>(body: &[u8]) -> Result<Vec<DelegationReceipt<P>>, TrustError> {
    let mut r = Reader::new(body, "wire response");
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return Err(corrupt_resp());
    }
    let mut receipts = Vec::with_capacity(n);
    for _ in 0..n {
        receipts.push(take_receipt(&mut r)?);
    }
    r.finish()?;
    Ok(receipts)
}

/// Encodes an evaluated session.
pub fn put_evaluated<P: LogKey>(out: &mut Vec<u8>, ev: &EvaluatedDelegation<P>) {
    out.extend_from_slice(&ev.trustee.to_log_u64().to_le_bytes());
    out.extend_from_slice(&ev.task.0.to_le_bytes());
    put_goal(out, &ev.goal);
    put_context(out, &ev.context);
    put_record(out, &ev.expectation);
    put_f64(out, ev.trustworthiness.value());
    out.push(match ev.basis {
        EvaluationBasis::Direct => 0,
        EvaluationBasis::Inferred => 1,
        EvaluationBasis::Referred => 2,
        EvaluationBasis::Prior => 3,
        EvaluationBasis::NoInformation => 4,
    });
    out.push(match ev.verdict {
        Ok(()) => 0,
        Err(reason) => 1 + decline_code(reason),
    });
}

/// Decodes an evaluated-session body — the client rebuilds the same
/// `EvaluatedDelegation` a local handle would have returned, so
/// `into_decision` works identically on either side of the wire.
pub fn decode_evaluated<P: LogKey>(body: &[u8]) -> Result<EvaluatedDelegation<P>, TrustError> {
    let mut r = Reader::new(body, "wire response");
    let trustee = take_peer(&mut r)?;
    let task = take_task_id(&mut r)?;
    let goal = take_goal(&mut r)?;
    let context = take_context(&mut r)?;
    let expectation = take_record(&mut r)?;
    let trustworthiness = Trustworthiness::new(r.f64()?);
    let basis = match r.u8()? {
        0 => EvaluationBasis::Direct,
        1 => EvaluationBasis::Inferred,
        2 => EvaluationBasis::Referred,
        3 => EvaluationBasis::Prior,
        4 => EvaluationBasis::NoInformation,
        _ => return Err(corrupt_resp()),
    };
    let verdict = match r.u8()? {
        0 => Ok(()),
        code => Err(take_decline(code - 1)?),
    };
    r.finish()?;
    Ok(EvaluatedDelegation {
        trustee,
        task,
        goal,
        context,
        expectation,
        trustworthiness,
        basis,
        verdict,
    })
}

/// Encodes an optional trustworthiness.
pub fn put_opt_tw(out: &mut Vec<u8>, tw: &Option<Trustworthiness>) {
    match tw {
        None => out.push(0),
        Some(tw) => {
            out.push(1);
            put_f64(out, tw.value());
        }
    }
}

/// Decodes an optional-trustworthiness body.
pub fn decode_opt_tw(body: &[u8]) -> Result<Option<Trustworthiness>, TrustError> {
    let mut r = Reader::new(body, "wire response");
    let tw = match r.u8()? {
        0 => None,
        1 => Some(Trustworthiness::new(r.f64()?)),
        _ => return Err(corrupt_resp()),
    };
    r.finish()?;
    Ok(tw)
}

/// Encodes an optional record.
pub fn put_opt_record(out: &mut Vec<u8>, rec: &Option<TrustRecord>) {
    match rec {
        None => out.push(0),
        Some(rec) => {
            out.push(1);
            put_record(out, rec);
        }
    }
}

/// Decodes an optional-record body.
pub fn decode_opt_record(body: &[u8]) -> Result<Option<TrustRecord>, TrustError> {
    let mut r = Reader::new(body, "wire response");
    let rec = match r.u8()? {
        0 => None,
        1 => Some(take_record(&mut r)?),
        _ => return Err(corrupt_resp()),
    };
    r.finish()?;
    Ok(rec)
}

/// Encodes a [`Request::QueryMany`] answer vector of optional
/// trustworthiness values, in request order.
pub fn put_opt_tws(out: &mut Vec<u8>, tws: &[Option<Trustworthiness>]) {
    out.extend_from_slice(&(tws.len() as u32).to_le_bytes());
    for tw in tws {
        put_opt_tw(out, tw);
    }
}

/// Decodes a vectored optional-trustworthiness body.
pub fn decode_opt_tws(body: &[u8]) -> Result<Vec<Option<Trustworthiness>>, TrustError> {
    let mut r = Reader::new(body, "wire response");
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return Err(corrupt_resp());
    }
    let mut tws = Vec::with_capacity(n);
    for _ in 0..n {
        tws.push(match r.u8()? {
            0 => None,
            1 => Some(Trustworthiness::new(r.f64()?)),
            _ => return Err(corrupt_resp()),
        });
    }
    r.finish()?;
    Ok(tws)
}

/// Encodes a [`Request::QueryMany`] answer vector of optional records, in
/// request order.
pub fn put_opt_records(out: &mut Vec<u8>, recs: &[Option<TrustRecord>]) {
    out.extend_from_slice(&(recs.len() as u32).to_le_bytes());
    for rec in recs {
        put_opt_record(out, rec);
    }
}

/// Decodes a vectored optional-record body.
pub fn decode_opt_records(body: &[u8]) -> Result<Vec<Option<TrustRecord>>, TrustError> {
    let mut r = Reader::new(body, "wire response");
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return Err(corrupt_resp());
    }
    let mut recs = Vec::with_capacity(n);
    for _ in 0..n {
        recs.push(match r.u8()? {
            0 => None,
            1 => Some(take_record(&mut r)?),
            _ => return Err(corrupt_resp()),
        });
    }
    r.finish()?;
    Ok(recs)
}

/// Encodes an epoch-stamped peers cut.
pub fn put_peers_cut<P: LogKey>(out: &mut Vec<u8>, cut: &Cut<Vec<P>>) {
    put_epochs(out, &cut.epochs);
    out.extend_from_slice(&(cut.value.len() as u32).to_le_bytes());
    for peer in &cut.value {
        out.extend_from_slice(&peer.to_log_u64().to_le_bytes());
    }
}

/// Decodes a peers-cut body.
pub fn decode_peers_cut<P: LogKey>(body: &[u8]) -> Result<Cut<Vec<P>>, TrustError> {
    let mut r = Reader::new(body, "wire response");
    let epochs = take_epochs(&mut r)?;
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return Err(corrupt_resp());
    }
    let mut peers = Vec::with_capacity(n);
    for _ in 0..n {
        peers.push(take_peer(&mut r)?);
    }
    r.finish()?;
    Ok(Cut { epochs, value: peers })
}

/// Encodes an epoch-stamped task-records cut.
pub fn put_records_cut<P: LogKey>(out: &mut Vec<u8>, cut: &Cut<Vec<(P, TrustRecord)>>) {
    put_epochs(out, &cut.epochs);
    out.extend_from_slice(&(cut.value.len() as u32).to_le_bytes());
    for (peer, rec) in &cut.value {
        out.extend_from_slice(&peer.to_log_u64().to_le_bytes());
        put_record(out, rec);
    }
}

/// Decodes a task-records-cut body.
pub fn decode_records_cut<P: LogKey>(
    body: &[u8],
) -> Result<Cut<Vec<(P, TrustRecord)>>, TrustError> {
    let mut r = Reader::new(body, "wire response");
    let epochs = take_epochs(&mut r)?;
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return Err(corrupt_resp());
    }
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        records.push((take_peer(&mut r)?, take_record(&mut r)?));
    }
    r.finish()?;
    Ok(Cut { epochs, value: records })
}

/// Encodes per-shard stats.
pub fn put_stats(out: &mut Vec<u8>, stats: &[ShardStats]) {
    out.extend_from_slice(&(stats.len() as u32).to_le_bytes());
    for s in stats {
        for v in [
            s.mailbox_depth as u64,
            s.mailbox_capacity as u64,
            s.drains,
            s.commit_batches,
            s.committed,
            s.largest_commit_batch as u64,
            s.last_commit_batch as u64,
            s.published_epoch,
            s.fold_ns,
            s.mirror_ns,
            s.publish_ns,
            s.ack_ns,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Decodes a shard-stats body.
pub fn decode_stats(body: &[u8]) -> Result<Vec<ShardStats>, TrustError> {
    let mut r = Reader::new(body, "wire response");
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return Err(corrupt_resp());
    }
    let mut stats = Vec::with_capacity(n);
    for _ in 0..n {
        stats.push(ShardStats {
            mailbox_depth: r.u64()? as usize,
            mailbox_capacity: r.u64()? as usize,
            drains: r.u64()?,
            commit_batches: r.u64()?,
            committed: r.u64()?,
            largest_commit_batch: r.u64()? as usize,
            last_commit_batch: r.u64()? as usize,
            published_epoch: r.u64()?,
            fold_ns: r.u64()?,
            mirror_ns: r.u64()?,
            publish_ns: r.u64()?,
            ack_ns: r.u64()?,
        });
    }
    r.finish()?;
    Ok(stats)
}

/// Decodes an empty (unit) body.
pub fn decode_unit(body: &[u8]) -> Result<(), TrustError> {
    if body.is_empty() {
        Ok(())
    } else {
        Err(corrupt_resp())
    }
}

// ---------------------------------------------------------------------------
// TrustError codec
// ---------------------------------------------------------------------------

/// The `&'static str` payloads a [`TrustError`] can carry, interned so
/// errors survive the wire with their original strings. An unknown string
/// (a newer peer) degrades to `"remote"` rather than failing the decode.
const STATIC_WHATS: &[&str] = &[
    "success_rate",
    "gain",
    "damage",
    "cost",
    "log header",
    "snapshot header",
    "log frame checksum",
    "snapshot frame",
    "wire frame length",
    "wire frame checksum",
    "wire frame after failure",
    "wire banner",
    "wire request",
    "wire response",
    "wire task characteristics",
    "remote",
];

fn intern(s: &str) -> &'static str {
    STATIC_WHATS.iter().find(|&&k| k == s).copied().unwrap_or("remote")
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_error(out: &mut Vec<u8>, err: &TrustError) {
    match err {
        TrustError::OutOfUnitRange { what, value } => {
            out.push(0);
            put_str(out, what);
            put_f64(out, *value);
        }
        TrustError::BadEnvironment(e) => {
            out.push(1);
            put_f64(out, *e);
        }
        TrustError::EmptyTask => out.push(2),
        TrustError::NonPositiveWeight(w) => {
            out.push(3);
            put_f64(out, *w);
        }
        TrustError::UncoveredCharacteristics { missing } => {
            out.push(4);
            out.extend_from_slice(&(*missing as u64).to_le_bytes());
        }
        TrustError::WorkerPanicked => out.push(5),
        TrustError::Corrupt { what, offset } => {
            out.push(6);
            put_str(out, what);
            out.extend_from_slice(&offset.to_le_bytes());
        }
        TrustError::UnsupportedFormat { found, expected } => {
            out.push(7);
            out.push(*found);
            out.push(*expected);
        }
        TrustError::Io(msg) => {
            out.push(8);
            put_str(out, msg);
        }
        TrustError::ServiceStopped => out.push(9),
        TrustError::TimedOut => out.push(10),
        TrustError::NodeUnavailable { addr } => {
            out.push(11);
            put_str(out, addr);
        }
    }
}

fn take_str(r: &mut Reader<'_>) -> Result<String, TrustError> {
    let n = r.u32()? as usize;
    let bytes = r.take(n)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| r.corrupt())
}

fn take_error(r: &mut Reader<'_>) -> Result<TrustError, TrustError> {
    Ok(match r.u8()? {
        0 => TrustError::OutOfUnitRange { what: intern(&take_str(r)?), value: r.f64()? },
        1 => TrustError::BadEnvironment(r.f64()?),
        2 => TrustError::EmptyTask,
        3 => TrustError::NonPositiveWeight(r.f64()?),
        4 => TrustError::UncoveredCharacteristics { missing: r.u64()? as usize },
        5 => TrustError::WorkerPanicked,
        6 => TrustError::Corrupt { what: intern(&take_str(r)?), offset: r.u64()? },
        7 => TrustError::UnsupportedFormat { found: r.u8()?, expected: r.u8()? },
        8 => TrustError::Io(take_str(r)?),
        9 => TrustError::ServiceStopped,
        10 => TrustError::TimedOut,
        11 => TrustError::NodeUnavailable { addr: take_str(r)? },
        _ => return Err(corrupt_resp()),
    })
}

// ---------------------------------------------------------------------------
// Domain value codecs
// ---------------------------------------------------------------------------

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_record(out: &mut Vec<u8>, rec: &TrustRecord) {
    for v in [rec.s_hat, rec.g_hat, rec.d_hat, rec.c_hat] {
        put_f64(out, v);
    }
    out.extend_from_slice(&rec.interactions.to_le_bytes());
}

fn take_record(r: &mut Reader<'_>) -> Result<TrustRecord, TrustError> {
    Ok(TrustRecord {
        s_hat: r.f64()?,
        g_hat: r.f64()?,
        d_hat: r.f64()?,
        c_hat: r.f64()?,
        interactions: r.u64()?,
    })
}

fn put_goal(out: &mut Vec<u8>, goal: &Goal) {
    for v in [goal.min_success, goal.min_gain, goal.max_damage, goal.max_cost] {
        put_f64(out, v);
    }
}

fn take_goal(r: &mut Reader<'_>) -> Result<Goal, TrustError> {
    Ok(Goal { min_success: r.f64()?, min_gain: r.f64()?, max_damage: r.f64()?, max_cost: r.f64()? })
}

fn put_context(out: &mut Vec<u8>, context: &Context) {
    out.extend_from_slice(&context.task.0.to_le_bytes());
    put_f64(out, context.environment.value());
}

fn take_context(r: &mut Reader<'_>) -> Result<Context, TrustError> {
    let task = take_task_id(r)?;
    // re-validated through the same constructor local callers use; `new`
    // (not `saturating`) so a valid environment round-trips bit-exactly
    let environment = EnvIndicator::new(r.f64()?)?;
    Ok(Context::new(task, environment))
}

fn put_observation(out: &mut Vec<u8>, obs: &Observation) {
    for v in [obs.success_rate, obs.gain, obs.damage, obs.cost] {
        put_f64(out, v);
    }
}

fn take_observation(r: &mut Reader<'_>) -> Result<Observation, TrustError> {
    let obs =
        Observation { success_rate: r.f64()?, gain: r.f64()?, damage: r.f64()?, cost: r.f64()? };
    obs.validate()?;
    Ok(obs)
}

fn put_task(out: &mut Vec<u8>, task: &Task) {
    out.extend_from_slice(&task.id().0.to_le_bytes());
    let cs = task.characteristics();
    out.extend_from_slice(&(cs.len() as u32).to_le_bytes());
    for &(c, w) in cs {
        out.extend_from_slice(&c.0.to_le_bytes());
        put_f64(out, w);
    }
}

fn take_task(r: &mut Reader<'_>) -> Result<Task, TrustError> {
    let id = take_task_id(r)?;
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return Err(r.corrupt());
    }
    let mut cs = Vec::with_capacity(n);
    for _ in 0..n {
        let c = CharacteristicId(r.u32()?);
        cs.push((c, r.f64()?));
    }
    // weights are already normalized (they came off a real Task): rebuild
    // without renormalizing so the decode is bit-identical
    Task::from_normalized(id, cs)
}

fn put_completed<P: LogKey>(out: &mut Vec<u8>, completed: &CompletedDelegation<P>) {
    out.extend_from_slice(&completed.trustee.to_log_u64().to_le_bytes());
    out.extend_from_slice(&completed.task.0.to_le_bytes());
    put_goal(out, &completed.goal);
    put_context(out, &completed.context);
    put_observation(out, &completed.observation);
    out.push(resource_use_code(completed.resource_use));
}

fn take_completed<P: LogKey>(r: &mut Reader<'_>) -> Result<CompletedDelegation<P>, TrustError> {
    Ok(CompletedDelegation {
        trustee: take_peer(r)?,
        task: take_task_id(r)?,
        goal: take_goal(r)?,
        context: take_context(r)?,
        observation: take_observation(r)?,
        resource_use: take_resource_use(r)?,
    })
}

fn put_request<P: LogKey>(out: &mut Vec<u8>, request: &DelegationRequest<P>) {
    out.extend_from_slice(&request.trustee.to_log_u64().to_le_bytes());
    put_task(out, &request.task);
    put_goal(out, &request.goal);
    put_context(out, &request.context);
    put_f64(out, request.gates.omega1);
    put_f64(out, request.gates.omega2);
    out.extend_from_slice(&(request.referrals.len() as u32).to_le_bytes());
    for referral in &request.referrals {
        let links = referral.links();
        out.extend_from_slice(&(links.len() as u32).to_le_bytes());
        for &v in links {
            put_f64(out, v);
        }
    }
    match &request.prior {
        None => out.push(0),
        Some(rec) => {
            out.push(1);
            put_record(out, rec);
        }
    }
    out.push(request.committed as u8);
}

fn take_request<P: LogKey>(r: &mut Reader<'_>) -> Result<DelegationRequest<P>, TrustError> {
    let trustee = take_peer(r)?;
    let task = take_task(r)?;
    let goal = take_goal(r)?;
    let context = take_context(r)?;
    let gates = TransitivityGates { omega1: r.f64()?, omega2: r.f64()? };
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return Err(r.corrupt());
    }
    let mut referrals = Vec::with_capacity(n);
    for _ in 0..n {
        let links = r.u32()? as usize;
        if links > r.remaining() {
            return Err(r.corrupt());
        }
        let mut path = Vec::with_capacity(links);
        for _ in 0..links {
            path.push(r.f64()?);
        }
        referrals.push(Referral::new(path));
    }
    let prior = match r.u8()? {
        0 => None,
        1 => Some(take_record(r)?),
        _ => return Err(r.corrupt()),
    };
    let committed = r.bool()?;
    Ok(DelegationRequest { trustee, task, goal, context, gates, referrals, prior, committed })
}

fn put_epochs(out: &mut Vec<u8>, epochs: &[u64]) {
    out.extend_from_slice(&(epochs.len() as u32).to_le_bytes());
    for &e in epochs {
        out.extend_from_slice(&e.to_le_bytes());
    }
}

fn take_epochs(r: &mut Reader<'_>) -> Result<Vec<u64>, TrustError> {
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return Err(r.corrupt());
    }
    let mut epochs = Vec::with_capacity(n);
    for _ in 0..n {
        epochs.push(r.u64()?);
    }
    Ok(epochs)
}

fn take_peer<P: LogKey>(r: &mut Reader<'_>) -> Result<P, TrustError> {
    Ok(P::from_log_u64(r.u64()?))
}

fn take_task_id(r: &mut Reader<'_>) -> Result<TaskId, TrustError> {
    Ok(TaskId(r.u32()?))
}

fn put_freshness(out: &mut Vec<u8>, freshness: Freshness) {
    match freshness {
        Freshness::Relaxed => out.push(0),
        Freshness::Aligned => out.push(1),
        Freshness::Snapshot { max_epoch_lag } => {
            out.push(2);
            out.extend_from_slice(&max_epoch_lag.to_le_bytes());
        }
    }
}

fn take_freshness(r: &mut Reader<'_>) -> Result<Freshness, TrustError> {
    match r.u8()? {
        0 => Ok(Freshness::Relaxed),
        1 => Ok(Freshness::Aligned),
        2 => Ok(Freshness::Snapshot { max_epoch_lag: r.u64()? }),
        _ => Err(r.corrupt()),
    }
}

fn query_kind_code(kind: QueryKind) -> u8 {
    match kind {
        QueryKind::Trustworthiness => 0,
        QueryKind::Record => 1,
    }
}

fn take_query_kind(r: &mut Reader<'_>) -> Result<QueryKind, TrustError> {
    match r.u8()? {
        0 => Ok(QueryKind::Trustworthiness),
        1 => Ok(QueryKind::Record),
        _ => Err(r.corrupt()),
    }
}

fn resource_use_code(ru: ResourceUse) -> u8 {
    match ru {
        ResourceUse::Responsive => 0,
        ResourceUse::Abusive => 1,
    }
}

fn take_resource_use(r: &mut Reader<'_>) -> Result<ResourceUse, TrustError> {
    match r.u8()? {
        0 => Ok(ResourceUse::Responsive),
        1 => Ok(ResourceUse::Abusive),
        _ => Err(r.corrupt()),
    }
}

fn decline_code(reason: DeclineReason) -> u8 {
    match reason {
        DeclineReason::NoTrustInformation => 0,
        DeclineReason::ReferralsGated => 1,
        DeclineReason::GoalMisaligned => 2,
        DeclineReason::Unprofitable => 3,
    }
}

fn take_decline(code: u8) -> Result<DeclineReason, TrustError> {
    match code {
        0 => Ok(DeclineReason::NoTrustInformation),
        1 => Ok(DeclineReason::ReferralsGated),
        2 => Ok(DeclineReason::GoalMisaligned),
        3 => Ok(DeclineReason::Unprofitable),
        _ => Err(corrupt_resp()),
    }
}

fn corrupt_req() -> TrustError {
    TrustError::Corrupt { what: "wire request", offset: 0 }
}

fn corrupt_resp() -> TrustError {
    TrustError::Corrupt { what: "wire response", offset: 0 }
}

/// A bounds-checked little-endian cursor: every read either succeeds or is
/// the typed corrupt error for its side of the conversation.
struct Reader<'a> {
    data: &'a [u8],
    at: usize,
    what: &'static str,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8], what: &'static str) -> Self {
        Reader { data, at: 0, what }
    }

    fn corrupt(&self) -> TrustError {
        TrustError::Corrupt { what: self.what, offset: self.at as u64 }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.at
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], TrustError> {
        if self.remaining() < n {
            return Err(self.corrupt());
        }
        let bytes = &self.data[self.at..self.at + n];
        self.at += n;
        Ok(bytes)
    }

    fn u8(&mut self) -> Result<u8, TrustError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, TrustError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(self.corrupt()),
        }
    }

    fn u32(&mut self) -> Result<u32, TrustError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes taken")))
    }

    fn u64(&mut self) -> Result<u64, TrustError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes taken")))
    }

    fn f64(&mut self) -> Result<f64, TrustError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Trailing bytes after a complete decode are corruption too — a
    /// well-formed peer writes exactly the body and nothing else.
    fn finish(self) -> Result<(), TrustError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(self.corrupt())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_completed(peer: u32) -> CompletedDelegation<u32> {
        CompletedDelegation {
            trustee: peer,
            task: TaskId(3),
            goal: Goal::ANY,
            context: Context::amicable(TaskId(3)),
            observation: Observation { success_rate: 0.375, gain: 0.1, damage: 0.0, cost: 0.0625 },
            resource_use: ResourceUse::Abusive,
        }
    }

    fn roundtrip_request(req: &Request<u32>) -> Request<u32> {
        let mut out = Vec::new();
        encode_request(&mut out, 42, req);
        let (id, decoded) = decode_request::<u32>(&out).unwrap_or_else(|_| panic!("decodes"));
        assert_eq!(id, 42);
        decoded
    }

    #[test]
    fn commit_round_trips_bit_identical() {
        let original = sample_completed(9);
        let Request::Commit(decoded) = roundtrip_request(&Request::Commit(sample_completed(9)))
        else {
            panic!("wrong variant")
        };
        assert_eq!(decoded.trustee, original.trustee);
        assert_eq!(decoded.task, original.task);
        assert_eq!(decoded.observation.success_rate.to_bits(), 0.375f64.to_bits());
        assert_eq!(
            decoded.context.environment.value().to_bits(),
            original.context.environment.value().to_bits()
        );
        assert_eq!(decoded.resource_use, ResourceUse::Abusive);
    }

    #[test]
    fn delegation_request_round_trips_without_renormalizing() {
        let task =
            Task::new(TaskId(1), [(CharacteristicId(2), 0.7), (CharacteristicId(5), 0.2)]).unwrap();
        let original: DelegationRequest<u32> =
            DelegationRequest::new(11, &task, Goal::profitable(), Context::amicable(task.id()))
                .with_referral(Referral::new([0.9, 0.8]))
                .with_prior(TrustRecord::with_priors(1.0, 1.0, 0.0, 0.0));
        let mut out = Vec::new();
        encode_request(&mut out, 7, &Request::Evaluate(original.clone()));
        let (_, decoded) = decode_request::<u32>(&out).unwrap_or_else(|_| panic!("decodes"));
        let Request::Evaluate(decoded) = decoded else { panic!("wrong variant") };
        // weights survive bit-identically: a double normalization would
        // perturb the low bits of 0.7/0.9
        for (a, b) in original.task.characteristics().iter().zip(decoded.task.characteristics()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        assert_eq!(decoded.referrals, original.referrals);
        assert_eq!(decoded.prior, original.prior);
    }

    #[test]
    fn errors_round_trip_with_interned_strings() {
        let cases = [
            TrustError::OutOfUnitRange { what: "success_rate", value: 1.5 },
            TrustError::BadEnvironment(-0.25),
            TrustError::EmptyTask,
            TrustError::NonPositiveWeight(0.0),
            TrustError::UncoveredCharacteristics { missing: 3 },
            TrustError::WorkerPanicked,
            TrustError::Corrupt { what: "log frame checksum", offset: 99 },
            TrustError::UnsupportedFormat { found: 9, expected: 1 },
            TrustError::Io("disk on fire".into()),
            TrustError::ServiceStopped,
            TrustError::TimedOut,
            TrustError::NodeUnavailable { addr: "10.0.0.7:4000".into() },
        ];
        for err in cases {
            let payload = err_payload(5, &err);
            assert_eq!(&payload[..8], &5u64.to_le_bytes());
            let decoded = split_status(&payload[8..]).unwrap_err();
            assert_eq!(decoded, err);
        }
        // unknown &'static str degrades to "remote" instead of failing
        let exotic = TrustError::Corrupt { what: "wire session", offset: 1 };
        let payload = err_payload(0, &exotic);
        assert_eq!(
            split_status(&payload[8..]).unwrap_err(),
            TrustError::Corrupt { what: "remote", offset: 1 }
        );
    }

    #[test]
    fn malformed_requests_are_typed_not_panics() {
        // unaddressable: shorter than a request id
        assert!(matches!(decode_request::<u32>(&[1, 2, 3]), Err(RequestError::Unaddressable)));
        // unknown opcode: addressed to the id it carried
        let mut out = Vec::new();
        out.extend_from_slice(&77u64.to_le_bytes());
        out.push(0xEE);
        assert!(matches!(
            decode_request::<u32>(&out),
            Err(RequestError::Addressed(77, TrustError::Corrupt { .. }))
        ));
        // truncated body
        let mut out = Vec::new();
        encode_request(&mut out, 8, &Request::Commit(sample_completed(1)));
        out.truncate(out.len() - 5);
        assert!(matches!(decode_request::<u32>(&out), Err(RequestError::Addressed(8, _))));
        // trailing garbage after a complete body
        let mut out = Vec::new();
        encode_request(&mut out, 9, &Request::<u32>::Flush);
        out.push(0);
        assert!(matches!(decode_request::<u32>(&out), Err(RequestError::Addressed(9, _))));
        // a CommitMany count that lies about the remaining bytes must not
        // drive a huge allocation
        let mut out = Vec::new();
        out.extend_from_slice(&1u64.to_le_bytes());
        out.push(2); // OP_COMMIT_MANY
        out.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_request::<u32>(&out), Err(RequestError::Addressed(1, _))));
        // NaN observation: rejected by the same validation local callers get
        let mut ok = Vec::new();
        encode_request(&mut ok, 2, &Request::Commit(sample_completed(1)));
        let sr_at = 8 + 1 + 8 + 4 + 32 + 12; // id|op|trustee|task|goal|context
        ok[sr_at..sr_at + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(matches!(
            decode_request::<u32>(&ok),
            Err(RequestError::Addressed(2, TrustError::OutOfUnitRange { .. }))
        ));
    }

    #[test]
    fn tagged_commits_round_trip() {
        let original = Request::CommitManySeq {
            session: 0xDEAD_BEEF_CAFE,
            seq: 41,
            batch: vec![sample_completed(3), sample_completed(8)],
        };
        let Request::CommitManySeq { session, seq, batch } = roundtrip_request(&original) else {
            panic!("wrong variant")
        };
        assert_eq!(session, 0xDEAD_BEEF_CAFE);
        assert_eq!(seq, 41);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].trustee, 3);
        assert_eq!(batch[1].trustee, 8);
        assert_eq!(batch[0].observation.success_rate.to_bits(), 0.375f64.to_bits());
        // a tagged count that lies about the remaining bytes is rejected
        // before it can size an allocation, like the untagged path
        let mut out = Vec::new();
        out.extend_from_slice(&4u64.to_le_bytes());
        out.push(13); // OP_COMMIT_MANY_SEQ
        out.extend_from_slice(&[0u8; 16]); // session | seq
        out.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_request::<u32>(&out), Err(RequestError::Addressed(4, _))));
    }

    #[test]
    fn response_bodies_round_trip() {
        let receipt = DelegationReceipt::<u32> {
            trustee: 4,
            task: TaskId(2),
            record: TrustRecord::with_priors(0.8, 0.5, 0.1, 0.2),
            trustworthiness: Trustworthiness::new(0.625),
            fulfilled: true,
        };
        let mut body = Vec::new();
        put_receipts(&mut body, std::slice::from_ref(&receipt));
        let decoded = decode_receipts::<u32>(&body).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].record, receipt.record);
        assert_eq!(decoded[0].trustworthiness.value().to_bits(), 0.625f64.to_bits());

        let cut = Cut { epochs: vec![3, 5], value: vec![1u32, 9, 200] };
        let mut body = Vec::new();
        put_peers_cut(&mut body, &cut);
        assert_eq!(decode_peers_cut::<u32>(&body).unwrap(), cut);

        let stats = vec![ShardStats {
            mailbox_depth: 2,
            mailbox_capacity: 1024,
            drains: 7,
            commit_batches: 3,
            committed: 40,
            largest_commit_batch: 16,
            last_commit_batch: 4,
            published_epoch: 6,
            fold_ns: 650,
            mirror_ns: 1100,
            publish_ns: 620,
            ack_ns: 430,
        }];
        let mut body = Vec::new();
        put_stats(&mut body, &stats);
        assert_eq!(decode_stats(&body).unwrap(), stats);

        let ev: EvaluatedDelegation<u32> = EvaluatedDelegation {
            trustee: 6,
            task: TaskId(0),
            goal: Goal::profitable(),
            context: Context::amicable(TaskId(0)),
            expectation: TrustRecord::with_priors(0.9, 1.0, 0.0, 0.0),
            trustworthiness: Trustworthiness::new(0.9),
            basis: EvaluationBasis::Direct,
            verdict: Err(DeclineReason::Unprofitable),
        };
        let mut body = Vec::new();
        put_evaluated(&mut body, &ev);
        let decoded = decode_evaluated::<u32>(&body).unwrap();
        assert_eq!(decoded.basis(), EvaluationBasis::Direct);
        assert_eq!(decoded.verdict, Err(DeclineReason::Unprofitable));
        assert_eq!(decoded.expectation(), &ev.expectation);
    }
}
