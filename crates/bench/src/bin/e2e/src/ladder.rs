//! The layer ladder: the same commits, one client thread, windows of 1024,
//! pushed through each tier's public entry point in turn. Every rung above
//! the first includes building the sessions (a client always does), so a
//! rung's **self cost** — the rung minus the rung below — telescopes: the
//! serving chain's self costs sum to the top rung exactly.
//!
//! ```text
//! build → fold ─┬→ +log(Never) → +log(Always)            storage branch
//!               └→ TrustService → sharded s=1 → remote → fleet   serving chain
//! ```

use crate::common::{BoxedReceipts, Cfg, Report};
use crate::gen::{commit_stream, Commit, SessionBuilder};
use crate::host::Scratch;
use crate::ingest_local::spawn_service;
use siot_core::backend::ShardedBackend;
use siot_core::delegation::CompletedDelegation;
use siot_core::error::TrustError;
use siot_core::framing::{self, StreamDecoder};
use siot_core::log_backend::{FsyncPolicy, LogBackend, LogOptions};
use siot_core::service::{
    block_on, FleetTrustHandle, RemoteTrustServer, RemoteTrustServiceHandle, ServiceOptions,
    TrustService,
};
use siot_core::store::TrustEngine;
use std::hint::black_box;
use std::time::Instant;

const COMMITS: usize = 250_000;
const SMOKE_COMMITS: usize = 10_000;
const WINDOW: usize = 1024;
/// Each rung is climbed this often from fresh state and the faster pass
/// kept: a self cost is the difference of two rungs, and this host's speed
/// shifts between two passes more than some layers cost.
const PASSES: usize = 2;

/// ns per commit of pushing every window of `stream` through `submit`.
fn rung(
    builder: &SessionBuilder,
    stream: &[Commit],
    mut submit: impl FnMut(Vec<CompletedDelegation<u32>>) -> Result<usize, TrustError>,
) -> Result<f64, TrustError> {
    let began = Instant::now();
    for window in stream.chunks(WINDOW) {
        let receipts = submit(builder.window(window))?;
        assert_eq!(receipts, window.len(), "one receipt per commit");
    }
    Ok(began.elapsed().as_nanos() as f64 / stream.len() as f64)
}

fn awaited(pending: BoxedReceipts) -> Result<usize, TrustError> {
    block_on(pending).map(|receipts| receipts.len())
}

fn log_rung(
    builder: &SessionBuilder,
    stream: &[Commit],
    fsync: FsyncPolicy,
) -> Result<f64, TrustError> {
    let scratch = Scratch::create()?;
    let options = LogOptions { fsync, compact_every: 0, segment_bytes: 1 << 20 };
    let mut engine: TrustEngine<u32, LogBackend<u32>> =
        TrustEngine::open_with(scratch.path(), options)?;
    let betas = ServiceOptions::default().betas;
    // commit_batch_receipts ends in the backend's commit barrier: a no-op
    // under Never, one fsync per window under Always
    rung(builder, stream, |batch| Ok(engine.commit_batch_receipts(batch, &betas).len()))
}

/// The rungs' totals in ns per commit.
struct Rungs {
    build: f64,
    fold: f64,
    log_never: f64,
    log_always: f64,
    service: f64,
    sharded: f64,
    remote: f64,
    fleet: f64,
    dedup_cached_bytes: usize,
}

impl Rungs {
    /// Rung by rung, the faster of two passes.
    fn faster(self, other: Rungs) -> Rungs {
        Rungs {
            build: self.build.min(other.build),
            fold: self.fold.min(other.fold),
            log_never: self.log_never.min(other.log_never),
            log_always: self.log_always.min(other.log_always),
            service: self.service.min(other.service),
            sharded: self.sharded.min(other.sharded),
            remote: self.remote.min(other.remote),
            fleet: self.fleet.min(other.fleet),
            dedup_cached_bytes: self.dedup_cached_bytes.max(other.dedup_cached_bytes),
        }
    }
}

fn climb(builder: &SessionBuilder, stream: &[Commit]) -> Result<Rungs, TrustError> {
    let betas = ServiceOptions::default().betas;
    let build = rung(builder, stream, |batch| Ok(black_box(batch).len()))?;

    let mut engine: TrustEngine<u32, ShardedBackend<u32>> = TrustEngine::new();
    let fold =
        rung(builder, stream, |batch| Ok(engine.commit_batch_receipts(batch, &betas).len()))?;
    drop(engine);

    let log_never = log_rung(builder, stream, FsyncPolicy::Never)?;
    let log_always = log_rung(builder, stream, FsyncPolicy::Always)?;

    let actor = TrustService::spawn(
        TrustEngine::with_backend(ShardedBackend::<u32>::default()),
        ServiceOptions::default(),
    );
    let handle = actor.handle();
    let service =
        rung(builder, stream, |batch| block_on(handle.submit_batch(batch)).map(|r| r.len()))?;
    drop(handle);
    actor.shutdown()?;

    let one_shard = spawn_service(1);
    let handle = one_shard.handle();
    let sharded = rung(builder, stream, |batch| awaited(Box::pin(handle.submit_batch(batch))))?;
    drop(handle);
    one_shard.shutdown()?;

    let one_shard = spawn_service(1);
    let server = RemoteTrustServer::bind("127.0.0.1:0", one_shard.handle())?;
    let client = RemoteTrustServiceHandle::<u32>::connect(server.local_addr())?;
    let remote = rung(builder, stream, |batch| awaited(Box::pin(client.submit_batch(batch))))?;
    drop(client);
    server.shutdown();
    one_shard.shutdown()?;

    let one_shard = spawn_service(1);
    let server = RemoteTrustServer::bind("127.0.0.1:0", one_shard.handle())?;
    let router = FleetTrustHandle::<u32>::connect([server.local_addr().to_string()])?;
    let fleet = rung(builder, stream, |batch| awaited(Box::pin(router.submit_batch(batch))))?;
    let dedup_cached_bytes = server.dedup_window().cached_bytes();
    drop(router);
    server.shutdown();
    one_shard.shutdown()?;

    Ok(Rungs {
        build,
        fold,
        log_never,
        log_always,
        service,
        sharded,
        remote,
        fleet,
        dedup_cached_bytes,
    })
}

/// `framing` micro-rungs: CRC-32 bytes/s, and frames/s through
/// `StreamDecoder` over pre-encoded frames with `payload` bytes each.
fn crc_bytes_per_s() -> f64 {
    let buffer: Vec<u8> = (0..1 << 20).map(|i| (i * 31 % 251) as u8).collect();
    const PASSES: usize = 64;
    let began = Instant::now();
    for _ in 0..PASSES {
        black_box(framing::crc32(black_box(&buffer)));
    }
    (PASSES * buffer.len()) as f64 / began.elapsed().as_secs_f64()
}

fn decode_frames_per_s(payload: usize, frames: usize) -> f64 {
    let mut wire = Vec::with_capacity(frames * (payload + framing::FRAME_OVERHEAD));
    for f in 0..frames {
        let start = framing::begin_frame(&mut wire);
        wire.extend((0..payload).map(|i| (i + f) as u8));
        framing::end_frame(&mut wire, start);
    }
    let mut decoder = StreamDecoder::new(1 << 24);
    let mut decoded = 0;
    let began = Instant::now();
    // 64 KiB reads, like a socket would deliver
    for chunk in wire.chunks(64 << 10) {
        decoder.extend(chunk);
        while let Some(len) = decoder.next_payload_with(<[u8]>::len).expect("well-formed frames") {
            decoded += usize::from(black_box(len) == payload);
        }
    }
    let elapsed = began.elapsed().as_secs_f64();
    assert_eq!(decoded, frames, "every frame decodes");
    frames as f64 / elapsed
}

/// Runs the ladder and writes its per-layer metrics into `report`; a rung
/// that fails is a failed check.
pub fn run(cfg: &Cfg, report: &mut Report) {
    let began = Instant::now();
    let builder = SessionBuilder::new();
    let stream = commit_stream(cfg.seed, cfg.size(COMMITS, SMOKE_COMMITS));
    let passes: Result<Vec<Rungs>, _> = (0..PASSES).map(|_| climb(&builder, &stream)).collect();
    let r = match passes {
        Ok(passes) => passes.into_iter().reduce(Rungs::faster).expect("at least one pass"),
        Err(e) => {
            report.tally.check(format!("ladder: {e}"), false);
            return;
        }
    };
    let selfs = [
        ("delegation.build_ns_per_commit", r.build, r.build),
        ("store.fold_ns_per_commit", r.fold, r.fold - r.build),
        ("log.append_ns_per_commit", r.log_never, r.log_never - r.fold),
        ("log.barrier_ns_per_commit", r.log_always, r.log_always - r.log_never),
        ("service.actor_ns_per_commit", r.service, r.service - r.fold),
        ("sharded.route_ns_per_commit", r.sharded, r.sharded - r.service),
        ("remote.wire_ns_per_commit", r.remote, r.remote - r.sharded),
        ("fleet.route_ns_per_commit", r.fleet, r.fleet - r.remote),
    ];
    println!(
        "  ladder ({} commits, 1 client, windows of {WINDOW}, faster of {PASSES} passes; ns per commit)",
        stream.len()
    );
    println!("  {:<34} {:>10} {:>10} {:>8}", "rung", "total", "self", "x_fold");
    for (name, total, own) in selfs {
        println!("  {name:<34} {total:>10.1} {own:>10.1} {:>8.2}", total / r.fold);
        report.layer(name, "ns", own);
    }
    let chain: f64 = selfs.iter().filter(|s| !s.0.starts_with("log.")).map(|s| s.2).sum();
    println!(
        "  serving-chain self costs sum to {chain:.1} ns = {:.1} % of the top rung ({:.1} ns)",
        100.0 * chain / r.fleet,
        r.fleet
    );
    report.layer("ladder.top_ns_per_commit", "ns", r.fleet);
    report.layer("ladder.top_x_fold", "x", r.fleet / r.fold);
    report.layer("dedup.cached_bytes", "bytes", r.dedup_cached_bytes as f64);
    report.layer("framing.crc_bytes_per_s", "B/s", crc_bytes_per_s());
    let small = cfg.size(400_000, 10_000);
    report.layer("framing.decode_small_frames_per_s", "1/s", decode_frames_per_s(64, small));
    report.layer(
        "framing.decode_large_frames_per_s",
        "1/s",
        decode_frames_per_s(64 << 10, small / 400),
    );
    report.layer("ladder.wall_s", "s", began.elapsed().as_secs_f64());
}
