//! `ingest_wire_durable` — the ROADMAP commit path end to end: two loopback
//! connections → `RemoteTrustServer` → two shard actors over `LogBackend`
//! with `FsyncPolicy::Always`. `log` (encode, append, rotation, the
//! group-commit barrier, compaction cycles) and `framing`/`service::remote`
//! do most of the work here and none in `ingest_local`.
//!
//! * Phase A, closed loop: both connections push windows of 256 with two
//!   windows in flight each → `throughput`.
//! * Phase B, open loop: single `submit`s on one connection at a fixed
//!   2 000 commits/s, each timed from its *due* instant, acks awaited on a
//!   second thread → `latency_p50_us`, `latency_tail_us`.
//! * Phase C, the operator's restart: graceful shutdown, reopen the same
//!   shard directories, bind, connect, first snapshot read answered →
//!   `setup_s` (this workload's set-up *is* bringing the server up on
//!   existing state).

use crate::common::{
    digest, drive_windows, partition, reference, BoxedReceipts, Cfg, RateMeter, Report, Tally,
};
use crate::gen::{commit_stream, rep_seed, Commit, SessionBuilder};
use crate::host::{dir_bytes, proc_status_bytes, Scratch};
use crate::sampler::Sampler;
use crate::sched::{since_due_us, Clock, Schedule, WallClock};
use crate::stats;
use crate::trace::{Trace, Tracer};
use siot_core::delegation::DelegationReceipt;
use siot_core::error::TrustError;
use siot_core::log_backend::{FsyncPolicy, LogBackend, LogOptions};
use siot_core::service::remote::RemotePending;
use siot_core::service::{
    block_on, Freshness, RemoteTrustServer, RemoteTrustServiceHandle, ServiceOptions,
    ShardedTrustService,
};
use siot_core::store::TrustEngine;
use std::path::Path;
use std::sync::mpsc;
use std::sync::Barrier;
use std::time::{Duration, Instant};

pub const NAME: &str = "ingest_wire_durable";
pub const FSYNC_POLICY: &str =
    "FsyncPolicy::Always (one group-commit fsync per drained batch), segment_bytes 1 MiB, \
     compaction once per repetition, between shutdown and restart";
/// No auto-compaction: a cycle stalls a shard for tens of milliseconds, and
/// where two or three of them fell among the five 100 ms slices of phase A
/// decided the repetition (per-repetition spread 13 % with `compact_every:
/// 65_000`, 7 % without). Each repetition compacts once instead, explicitly,
/// on the engines `shutdown()` hands back, so the restart reads a chain of
/// compacted and raw segments.
const LOG: LogOptions =
    LogOptions { fsync: FsyncPolicy::Always, compact_every: 0, segment_bytes: 1 << 20 };
const SHARDS: usize = 2;
const CONNECTIONS: usize = 2;
const WINDOW: usize = 256;
const IN_FLIGHT: usize = 2;
/// Phase A commits per repetition: each journals a record and a usage-log
/// frame, so either shard appends ≈ 150 k frames over ≈ 8 segment rotations.
/// Short on purpose: this host has slow spells of a second or two, and the
/// median over six repetitions shrugs off one or two of them where three
/// long repetitions cannot.
const COMMITS_A: usize = 150_000;
const SMOKE_COMMITS_A: usize = 10_000;
/// Phase B arrival rate, commits/s.
const RATE_B: f64 = 2_000.0;
const SECONDS_B: f64 = 1.0;
const SMOKE_SECONDS_B: f64 = 0.2;
/// The diagnostic overload rate of the traced run.
const RATE_B_HIGH: f64 = 10_000.0;

type Service = ShardedTrustService<u32, LogBackend<u32>>;
type Remote = RemoteTrustServiceHandle<u32>;

fn spawn(root: &Path, tracer: &mut Tracer) -> Result<Service, TrustError> {
    tracer.within("recover.spawn", 0, None, |tracer, spawn| {
        ShardedTrustService::try_spawn_sharded(SHARDS, ServiceOptions::default(), |shard| {
            tracer.within("recover.open", shard as u64, Some(spawn), |_, _| {
                TrustEngine::open_shard_with(root, shard, LOG)
            })
        })
    })
}

/// A server with its clients, torn down in the order that lets every
/// thread end: clients first, then the transport, then the actors.
struct Stack {
    service: Service,
    server: RemoteTrustServer,
    remotes: Vec<Remote>,
}

impl Stack {
    fn bring_up(root: &Path, connections: usize, tracer: &mut Tracer) -> Result<Stack, TrustError> {
        let service = spawn(root, tracer)?;
        let server = tracer.within("recover.bind", 0, None, |_, _| {
            RemoteTrustServer::bind("127.0.0.1:0", service.handle())
        })?;
        let remotes = (0..connections)
            .map(|_| Remote::connect(server.local_addr()))
            .collect::<Result<_, _>>()?;
        Ok(Stack { service, server, remotes })
    }

    fn shut_down(self) -> Result<Vec<TrustEngine<u32, LogBackend<u32>>>, TrustError> {
        drop(self.remotes);
        self.server.shutdown();
        self.service.shutdown()
    }
}

/// Open-loop acks of one phase-B run.
struct OpenLoop {
    ack_us: Vec<f64>,
    late_us: Vec<f64>,
    failed: u64,
}

/// Phase B: `commits` sent one by one on `remote` at `rate`/s; the acker
/// thread awaits them in send order and charges each from its due instant.
fn open_loop(
    builder: &SessionBuilder,
    remote: &Remote,
    commits: &[Commit],
    rate: f64,
    traced: Option<Instant>,
    trace: &mut Trace,
) -> OpenLoop {
    let schedule = Schedule::new(rate, commits.len() as f64 / rate);
    let clock = WallClock::start();
    type Sent = (usize, Duration, RemotePending<DelegationReceipt<u32>>);
    let (tx, rx) = mpsc::channel::<Sent>();
    std::thread::scope(|scope| {
        let acker = scope.spawn(|| {
            let mut tracer = Tracer::new(traced);
            let mut ack_us = Vec::with_capacity(commits.len());
            let mut failed = 0u64;
            for (i, due, pending) in rx {
                let acked =
                    tracer.within("commit.await", i as u64, None, |_, _| block_on(pending).is_ok());
                ack_us.push(since_due_us(due, clock.now()));
                failed += u64::from(!acked);
            }
            (ack_us, failed, tracer)
        });
        let late_us = schedule.drive(&clock, |i, due| {
            let pending = remote.submit(builder.session(&commits[i]));
            tx.send((i, due, pending)).expect("acker outlives the sender");
        });
        drop(tx);
        let (ack_us, failed, tracer) = acker.join().expect("acker thread");
        trace.absorb(tracer);
        OpenLoop { ack_us, late_us, failed }
    })
}

/// What one repetition measured.
struct Rep {
    /// Median 100 ms slice rate of phase A, commits/s.
    throughput: f64,
    wall_a_s: f64,
    /// Resident set after phase B with the state live, bytes.
    rss: u64,
    phase_b: OpenLoop,
    recover_s: f64,
    /// Incremental compaction of both shards' chains after shutdown.
    compact_s: f64,
    disk_bytes: u64,
    acked: u64,
    segments: usize,
    compacted_segments: usize,
}

fn one_rep(
    cfg: &Cfg,
    builder: &SessionBuilder,
    rep: usize,
    traced: Option<Instant>,
    report: &mut Report,
    mut sampler: Option<&mut Sampler>,
) -> Result<Rep, TrustError> {
    let commits_a = cfg.size(COMMITS_A, SMOKE_COMMITS_A);
    let commits_b = (RATE_B * cfg.secs(SECONDS_B, SMOKE_SECONDS_B)) as usize;
    let seed = rep_seed(cfg.seed, rep);
    let stream = commit_stream(seed, commits_a + commits_b);
    let want = if cfg.poison_reference {
        reference(builder, &commit_stream(seed ^ 1, stream.len()))
    } else {
        reference(builder, &stream)
    };
    let (phase_a, phase_b) = stream.split_at(commits_a);
    let parts = partition(phase_a, CONNECTIONS);
    let scratch = Scratch::create()?;
    let mut tally = Tally::default();

    let stack = Stack::bring_up(scratch.path(), CONNECTIONS, &mut Tracer::new(None))?;
    if let Some(sampler) = sampler.as_deref_mut() {
        sampler.watch(stack.service.handle());
    }

    // phase A: closed loop over both connections
    let start = Barrier::new(CONNECTIONS + 1);
    let meter = RateMeter::default();
    let (throughput, wall_a_s) = std::thread::scope(|scope| {
        let threads: Vec<_> = parts
            .iter()
            .zip(&stack.remotes)
            .map(|(part, remote)| {
                let (start, meter) = (&start, &meter);
                scope.spawn(move || {
                    let mut tracer = Tracer::new(traced);
                    let submit = |batch| Box::pin(remote.submit_batch(batch)) as BoxedReceipts;
                    start.wait();
                    let log =
                        drive_windows(builder, part, WINDOW, IN_FLIGHT, submit, meter, &mut tracer);
                    (log, tracer)
                })
            })
            .collect();
        start.wait();
        let began = Instant::now();
        let throughput = meter.watch(|| threads.iter().all(|t| t.is_finished()));
        for t in threads {
            let (log, tracer) = t.join().expect("client thread");
            tally.ops(log.attempted, log.failed);
            report.trace.absorb(tracer);
        }
        (throughput, began.elapsed().as_secs_f64())
    });

    // phase B: open loop on the first connection
    let phase_b = open_loop(builder, &stack.remotes[0], phase_b, RATE_B, traced, &mut report.trace);
    tally.ops(phase_b.ack_us.len() as u64, phase_b.failed);
    let acked = tally.attempted - tally.failed;
    let disk_bytes = dir_bytes(scratch.path());
    let rss = proc_status_bytes("VmRSS");

    if let Some(sampler) = sampler {
        sampler.finish();
    }
    let mut engines = stack.shut_down()?;
    tally.check(
        format!("{NAME} rep {rep}: shut-down engines match the sequential fold"),
        digest(&engines) == want,
    );
    let compacting = Instant::now();
    for engine in &mut engines {
        engine.compact_churned()?;
    }
    let compact_s = compacting.elapsed().as_secs_f64();
    let segments = engines.iter().map(|e| e.segments()).sum();
    let compacted_segments = engines.iter().map(|e| e.compacted_segments()).sum();
    drop(engines);

    // phase C: restart on the same directories until the first read answers
    let mut tracer = Tracer::new(traced);
    let restart = Instant::now();
    let stack = Stack::bring_up(scratch.path(), 1, &mut tracer)?;
    let (peer, task, _) = stream[0];
    let first = tracer.within("recover.first_read", 0, None, |_, _| {
        block_on(stack.remotes[0].record_with(peer, task, Freshness::snapshot(0)))
    });
    let recover_s = restart.elapsed().as_secs_f64();
    report.trace.absorb(tracer);
    tally.check(
        format!("{NAME} rep {rep}: first read after restart finds a committed key"),
        matches!(first, Ok(Some(_))),
    );
    tally.check(
        format!("{NAME} rep {rep}: reopened shards reproduce every acked commit"),
        digest(&stack.shut_down()?) == want,
    );
    report.tally.merge(tally);
    Ok(Rep {
        throughput,
        wall_a_s,
        rss,
        phase_b,
        recover_s,
        compact_s,
        disk_bytes,
        acked,
        segments,
        compacted_segments,
    })
}

/// The traced run's overload probe: a fresh server, phase B at
/// `RATE_B_HIGH` for one second.
fn high_rate_p99(cfg: &Cfg, builder: &SessionBuilder) -> Result<f64, TrustError> {
    let n = (RATE_B_HIGH * cfg.secs(1.0, SMOKE_SECONDS_B)) as usize;
    let stream = commit_stream(rep_seed(cfg.seed, usize::MAX), n);
    let scratch = Scratch::create()?;
    let stack = Stack::bring_up(scratch.path(), 1, &mut Tracer::new(None))?;
    let run =
        open_loop(builder, &stack.remotes[0], &stream, RATE_B_HIGH, None, &mut Trace::default());
    stack.shut_down()?;
    Ok(stats::percentile(&run.ack_us, 99.0))
}

/// The traced run: the same repetition untraced and traced, the overload
/// probe, and the per-layer metrics this workload owns.
fn traced_run(cfg: &Cfg, builder: &SessionBuilder, report: &mut Report) -> Result<(), TrustError> {
    let untraced = one_rep(cfg, builder, 1, None, &mut Report::new(NAME), None)?;
    let mut sampler = Sampler::new();
    let traced = one_rep(cfg, builder, 1, Some(Instant::now()), report, Some(&mut sampler))?;
    let p99_high = high_rate_p99(cfg, builder)?;
    sampler.report(report);
    crate::layers::serving_spans(report);
    let b = &traced.phase_b;
    let per_commit = traced.disk_bytes as f64 / traced.acked.max(1) as f64;
    let overhead = 1.0 - untraced.wall_a_s / traced.wall_a_s;
    report.layer("log.recover_s", "s", traced.recover_s);
    report.layer("log.compact_s", "s", traced.compact_s);
    report.layer("log.segments", "count", traced.segments as f64);
    report.layer("log.compacted_segments", "count", traced.compacted_segments as f64);
    report.layer("log.disk_bytes", "bytes", traced.disk_bytes as f64);
    report.layer("log.disk_bytes_per_commit", "bytes", per_commit);
    report.layer("loadgen.late_p99_us", "us", stats::percentile(&b.late_us, 99.0));
    report.layer("loadgen.ack_p999_us", "us", stats::percentile(&b.ack_us, 99.9));
    report.layer("loadgen.ack_p99_us_r10k", "us", p99_high);
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
        let b_s = r.phase_b.ack_us.len() as f64 / RATE_B;
        measured_s += r.wall_a_s + b_s + r.recover_s;
        report.push("setup_s", "s", r.recover_s);
        report.push("throughput", "1/s", r.throughput);
        report.push_latency(
            r.phase_b.ack_us,
            "due instant → ack of single submits, open loop at 2000/s on one connection",
        );
        rep += 1;
    }
    report.note(
        "setup = restart: reopen both shard dirs, spawn, bind, connect, first snapshot read \
         answered (graceful shutdown before it; crash durability is the persistence suite's job)",
    );
    report.note(format!(
        "throughput = commits/s of phase A, median 100 ms slice: closed loop, {CONNECTIONS} \
         connections, windows of {WINDOW}, {IN_FLIGHT} in flight each, {} commits; {FSYNC_POLICY}",
        cfg.size(COMMITS_A, SMOKE_COMMITS_A)
    ));
    report.note("rss = resident set of the first repetition after phase B, state live");
    report
}
