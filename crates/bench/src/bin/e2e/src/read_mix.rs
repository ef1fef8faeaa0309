//! `read_mix` — the read tier under a live write stream. Set-up warms a
//! two-shard in-memory service through its write path; then three phases,
//! each with one open-loop **writer** thread (windows of 64 at 20 000
//! commits/s, ≈ 5 % of operations) beside one closed-loop **reader** thread
//! on uniformly drawn warmed keys:
//!
//! 1. `trustworthiness_with(.., Freshness::snapshot(4))` — off the published
//!    snapshot, no mailbox → `throughput`;
//! 2. `trustworthiness_with(.., Freshness::Relaxed)` — a mailbox round trip
//!    per read → `latency_p50_us`, `latency_tail_us`;
//! 3. `RemoteTrustServiceHandle::trustworthiness_many` in `QueryMany` frames
//!    of 256 at `Freshness::snapshot(4)` over one loopback connection →
//!    `remote.reads_per_s` (per-layer).
//!
//! `ingest_local` pays for snapshot publication; this workload collects on
//! it. The writer's own ack latency is reported so a read gain that taxes
//! writes shows too.

use crate::common::{Cfg, RateMeter, Report, Tally};
use crate::gen::{commit_stream, distinct_keys, rep_seed, Commit, SessionBuilder, SplitMix64};
use crate::host::proc_status_bytes;
use crate::ingest_local::{spawn_service, Service};
use crate::sampler::Sampler;
use crate::sched::{since_due_us, Clock, Schedule, WallClock};
use crate::stats;
use crate::trace::Tracer;
use siot_core::error::TrustError;
use siot_core::service::{
    block_on, Freshness, RemoteTrustServer, RemoteTrustServiceHandle, ShardedTrustServiceHandle,
};
use siot_core::task::TaskId;
use siot_core::tw::Trustworthiness;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

pub const NAME: &str = "read_mix";
const SHARDS: usize = 2;
/// Warm-up commits (≈ 0.30 M records in two copies: well past the caches).
const WARM: usize = 500_000;
const SMOKE_WARM: usize = 10_000;
const WARM_WINDOW: usize = 1024;
const PHASE_S: f64 = 1.0;
const SMOKE_PHASE_S: f64 = 0.2;
const WRITER_WINDOW: usize = 64;
/// Writer arrival rate, commits/s.
const WRITER_RATE: f64 = 20_000.0;
const SNAPSHOT: Freshness = Freshness::Snapshot { max_epoch_lag: 4 };
/// Fresh reads are timed in groups: one `Instant` pair per read would be a
/// visible share of a ~40 µs round trip's jitter budget.
const FRESH_GROUP: usize = 32;
/// Snapshot reads per `read.call` span and per stop-flag check.
const SNAP_GROUP: usize = 1024;
const REMOTE_FRAME: usize = 256;

type Handle = ShardedTrustServiceHandle<u32>;
type Key = (u32, TaskId);

/// The open-loop writer of one phase: windows of `WRITER_WINDOW` at
/// `WRITER_RATE`, each awaited by the writer itself (an ack takes a
/// fraction of the 3.2 ms between windows; when it does not, the next
/// window goes out late and is charged from its due instant).
fn writer(
    builder: &SessionBuilder,
    handle: &Handle,
    commits: &[Commit],
    tracer: &mut Tracer,
) -> (Vec<f64>, Tally) {
    let windows: Vec<&[Commit]> = commits.chunks(WRITER_WINDOW).collect();
    let per_s = WRITER_RATE / WRITER_WINDOW as f64;
    let schedule = Schedule::new(per_s, windows.len() as f64 / per_s);
    let clock = WallClock::start();
    let mut tally = Tally::default();
    let mut ack_us = Vec::with_capacity(windows.len());
    schedule.drive(&clock, |i, due| {
        let req = i as u64;
        let got = tracer.within("window", req, None, |tracer, w| {
            let batch =
                tracer.within("window.build", req, Some(w), |_, _| builder.window(windows[i]));
            let pending =
                tracer.within("window.send", req, Some(w), |_, _| handle.submit_batch(batch));
            tracer.within("window.await", req, Some(w), |_, _| block_on(pending))
        });
        ack_us.push(since_due_us(due, clock.now()));
        let ok = matches!(got, Ok(r) if r.len() == windows[i].len());
        tally.ops(windows[i].len() as u64, if ok { 0 } else { windows[i].len() as u64 });
    });
    (ack_us, tally)
}

/// A read is good when the warmed key is there and its value in unit range.
fn good(answer: &Result<Option<Trustworthiness>, TrustError>) -> bool {
    matches!(answer, Ok(Some(tw)) if (0.0..=1.0).contains(&tw.value()))
}

/// What a reader loop counted.
#[derive(Default)]
struct Reads {
    tally: Tally,
    /// Per-read latency samples in the loop's own unit.
    samples: Vec<f64>,
    /// Good reads per second, median 100 ms slice.
    per_s: f64,
}

/// Closed-loop point reads at `freshness` until `stop`. Each `read.call`
/// span covers `span_reads` reads; within it every `timed` reads give one
/// latency sample (µs per read). The gated snapshot phase times a whole
/// span at once; only the traced run times single snapshot reads.
#[allow(clippy::too_many_arguments)]
fn point_reader(
    handle: &Handle,
    keys: &[Key],
    seed: u64,
    freshness: Freshness,
    span_reads: usize,
    timed: usize,
    (stop, meter): (&AtomicBool, &RateMeter),
    tracer: &mut Tracer,
) -> Reads {
    let mut rng = SplitMix64::new(seed);
    let mut reads = Reads::default();
    let mut req = 0;
    // SeqCst: the flag publishes nothing; checked once per span
    while !stop.load(Ordering::SeqCst) {
        let span = tracer.open("read.call", req, None);
        let mut bad = 0;
        for _ in 0..span_reads / timed {
            let t = Instant::now();
            for _ in 0..timed {
                let (peer, task) = keys[rng.below(keys.len())];
                let answer = block_on(handle.trustworthiness_with(peer, task, freshness));
                bad += u64::from(!good(&answer));
            }
            reads.samples.push(t.elapsed().as_nanos() as f64 / 1e3 / timed as f64);
        }
        tracer.close(span);
        reads.tally.ops(span_reads as u64, bad);
        meter.add(span_reads as u64 - bad);
        req += 1;
    }
    reads
}

/// Closed-loop `QueryMany` frames of `REMOTE_FRAME` reads until `stop`;
/// samples are µs per frame round trip.
fn remote_reader(
    remote: &RemoteTrustServiceHandle<u32>,
    keys: &[Key],
    seed: u64,
    (stop, meter): (&AtomicBool, &RateMeter),
    tracer: &mut Tracer,
) -> Reads {
    let mut rng = SplitMix64::new(seed);
    let mut reads = Reads::default();
    let mut req = 0;
    while !stop.load(Ordering::SeqCst) {
        let frame: Vec<Key> = (0..REMOTE_FRAME).map(|_| keys[rng.below(keys.len())]).collect();
        let span = tracer.open("read.call", req, None);
        let t = Instant::now();
        let got = block_on(remote.trustworthiness_many(frame, SNAPSHOT));
        reads.samples.push(t.elapsed().as_nanos() as f64 / 1e3);
        tracer.close(span);
        let bad = match got {
            Ok(answers) if answers.len() == REMOTE_FRAME => {
                answers.into_iter().filter(|a| !good(&Ok(*a))).count() as u64
            }
            _ => REMOTE_FRAME as u64,
        };
        reads.tally.ops(REMOTE_FRAME as u64, bad);
        meter.add(REMOTE_FRAME as u64 - bad);
        req += 1;
    }
    reads
}

/// One phase: the writer runs its schedule on its own thread while
/// `reader` loops on another and this thread samples the read rate; the
/// reader is stopped when the writer's schedule ends.
fn phase<'a>(
    builder: &SessionBuilder,
    handle: &Handle,
    commits: &[Commit],
    traced: Option<Instant>,
    report: &mut Report,
    reader: impl FnOnce((&AtomicBool, &RateMeter), &mut Tracer) -> Reads + Send + 'a,
) -> (Reads, Vec<f64>) {
    let stop = AtomicBool::new(false);
    let meter = RateMeter::default();
    let (mut reads, ack_us) = std::thread::scope(|scope| {
        let (stop, meter) = (&stop, &meter);
        let reading = scope.spawn(move || {
            let mut tracer = Tracer::new(traced);
            (reader((stop, meter), &mut tracer), tracer)
        });
        let writing = scope.spawn(move || {
            let mut tracer = Tracer::new(traced);
            let written = writer(builder, handle, commits, &mut tracer);
            stop.store(true, Ordering::SeqCst);
            (written, tracer)
        });
        let per_s = meter.watch(|| writing.is_finished());
        let ((ack_us, tally), tracer) = writing.join().expect("writer thread");
        report.tally.merge(tally);
        report.trace.absorb(tracer);
        let (mut reads, tracer) = reading.join().expect("reader thread");
        report.trace.absorb(tracer);
        reads.per_s = per_s;
        (reads, ack_us)
    });
    report.tally.merge(std::mem::take(&mut reads.tally));
    (reads, ack_us)
}

/// What one repetition measured.
struct Rep {
    setup_s: f64,
    measured_s: f64,
    records: usize,
    /// Resident set after the warm-up writes, bytes.
    rss: u64,
    snap: Reads,
    fresh: Reads,
    remote: Reads,
    /// Writer window acks of phase 1, µs from due.
    mix_ack_us: Vec<f64>,
}

fn warm(builder: &SessionBuilder, service: &Service, stream: &[Commit]) -> Tally {
    let handle = service.handle();
    let mut tally = Tally::default();
    for window in stream.chunks(WARM_WINDOW) {
        let ok = block_on(handle.submit_batch(builder.window(window))).is_ok();
        tally.ops(window.len() as u64, if ok { 0 } else { window.len() as u64 });
    }
    tally
}

fn one_rep(
    cfg: &Cfg,
    builder: &SessionBuilder,
    rep: usize,
    traced: Option<Instant>,
    report: &mut Report,
    mut sampler: Option<&mut Sampler>,
) -> Result<Rep, TrustError> {
    let seed = rep_seed(cfg.seed, rep);
    let warm_n = cfg.size(WARM, SMOKE_WARM);
    let per_phase = (WRITER_RATE * cfg.secs(PHASE_S, SMOKE_PHASE_S)) as usize;
    let stream = commit_stream(seed, warm_n + 3 * per_phase);
    let (warm_stream, live) = stream.split_at(warm_n);
    let keys = distinct_keys(warm_stream);

    let setup = Instant::now();
    let service = spawn_service(SHARDS);
    report.tally.merge(warm(builder, &service, warm_stream));
    let setup_s = setup.elapsed().as_secs_f64();
    let rss = proc_status_bytes("VmRSS");

    let handle = service.handle();
    let server = RemoteTrustServer::bind("127.0.0.1:0", service.handle())?;
    let remote = RemoteTrustServiceHandle::<u32>::connect(server.local_addr())?;
    if let Some(sampler) = sampler.as_deref_mut() {
        sampler.watch(service.handle());
    }
    let keys = &keys[..];
    let measured = Instant::now();
    let (snap, mix_ack_us) = phase(builder, &handle, &live[..per_phase], traced, report, {
        let handle = handle.clone();
        let timed = if traced.is_some() { 1 } else { SNAP_GROUP };
        move |stop, tracer| {
            point_reader(&handle, keys, seed ^ 1, SNAPSHOT, SNAP_GROUP, timed, stop, tracer)
        }
    });
    let (fresh, _) = phase(builder, &handle, &live[per_phase..2 * per_phase], traced, report, {
        let handle = handle.clone();
        move |stop, tracer| {
            let group = FRESH_GROUP;
            point_reader(&handle, keys, seed ^ 2, Freshness::Relaxed, group, group, stop, tracer)
        }
    });
    let (remote_reads, _) = phase(builder, &handle, &live[2 * per_phase..], traced, report, {
        let remote = &remote;
        move |stop, tracer| remote_reader(remote, keys, seed ^ 3, stop, tracer)
    });
    let measured_s = measured.elapsed().as_secs_f64();

    if let Some(sampler) = sampler {
        sampler.finish();
    }
    drop(remote);
    server.shutdown();
    drop(handle);
    let engines = service.shutdown()?;
    let records = engines.iter().map(|e| e.record_count()).sum();
    Ok(Rep { setup_s, measured_s, records, rss, snap, fresh, remote: remote_reads, mix_ack_us })
}

/// The traced run: the same repetition untraced and traced, and the
/// per-layer metrics this workload owns.
fn traced_run(cfg: &Cfg, builder: &SessionBuilder, report: &mut Report) -> Result<(), TrustError> {
    let untraced = one_rep(cfg, builder, 1, None, &mut Report::new(NAME), None)?;
    let mut sampler = Sampler::new();
    let traced = one_rep(cfg, builder, 1, Some(Instant::now()), report, Some(&mut sampler))?;
    sampler.report(report);
    crate::layers::serving_spans(report);
    let per_record = untraced.rss as f64 / untraced.records.max(1) as f64;
    let overhead = 1.0 - traced.snap.per_s / untraced.snap.per_s;
    report.layer("remote.reads_per_s", "1/s", traced.remote.per_s);
    report.layer("remote.read_frame_p50_us", "us", stats::percentile(&traced.remote.samples, 50.0));
    report.layer("service.mix_ack_p50_us", "us", stats::percentile(&traced.mix_ack_us, 50.0));
    report.layer("replica.mem_bytes_per_record", "bytes", per_record);
    // single snapshot reads are only timed in the traced repetition
    report.layer(
        "loadgen.snap_read_p99_ns",
        "ns",
        1e3 * stats::percentile(&traced.snap.samples, 99.0),
    );
    report.layer("loadgen.trace_overhead_share", "share", overhead);
    Ok(())
}

pub fn run(cfg: &Cfg) -> Report {
    let mut report = Report::new(NAME);
    let builder = SessionBuilder::new();
    let failed = |report: &mut Report, rep: usize, e: TrustError| {
        report.tally.check(format!("{NAME} rep {rep}: {e}"), false);
    };
    // warm-up: discarded, but for the resident set of a fresh process
    match one_rep(cfg, &builder, 0, None, &mut Report::new(NAME), None) {
        Ok(warm) if !cfg.trace => report.push("rss_mb", "MB", warm.rss as f64 / 1e6),
        Ok(_) => {}
        Err(e) => {
            failed(&mut report, 0, e);
            return report;
        }
    }

    if cfg.trace {
        if let Err(e) = traced_run(cfg, &builder, &mut report) {
            failed(&mut report, 1, e);
        }
        return report;
    }

    let mut measured_s = 0.0;
    let mut rep = 1;
    while cfg.more_reps(rep - 1, measured_s) {
        let r = match one_rep(cfg, &builder, rep, None, &mut report, None) {
            Ok(r) => r,
            Err(e) => {
                failed(&mut report, rep, e);
                break;
            }
        };
        measured_s += r.measured_s;
        report.push("setup_s", "s", r.setup_s);
        report.push("throughput", "1/s", r.snap.per_s);
        report.push_latency(
            r.fresh.samples,
            "µs per Freshness::Relaxed read (mailbox round trip), closed loop, timed in groups of 32",
        );
        rep += 1;
    }
    report.note(format!(
        "setup = spawn {SHARDS} shards and warm {} commits through submit_batch",
        cfg.size(WARM, SMOKE_WARM)
    ));
    report.note(format!(
        "throughput = Freshness::snapshot(4) reads/s of one closed-loop reader beside an \
         open-loop writer (windows of {WRITER_WINDOW} at {WRITER_RATE} commits/s), median 100 ms \
         slice, {} s phases",
        cfg.secs(PHASE_S, SMOKE_PHASE_S)
    ));
    report.note("rss = resident set of the first repetition after its warm-up writes");
    report
}
