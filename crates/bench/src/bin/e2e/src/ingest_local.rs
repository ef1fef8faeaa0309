//! `ingest_local` — the in-process write path, closed loop: two client
//! threads push vectored windows through `ShardedTrustServiceHandle::
//! submit_batch` into two shard actors over the in-memory `ShardedBackend`
//! with default `ServiceOptions` (`publish_every: 1`). `delegation`,
//! `service::sharded`, the `service` actor, `store`/`backend` and the
//! `service::replica` mirror do all the work; `log`, `framing`,
//! `service::remote` and `service::fleet` do none.

use crate::common::{
    digest, drive_windows, partition, reference, BoxedReceipts, Cfg, ClientLog, Digest, RateMeter,
    Report, Tally,
};
use crate::gen::{commit_stream, rep_seed, Commit, SessionBuilder};
use crate::host::proc_status_bytes;
use crate::sampler::Sampler;
use crate::trace::Tracer;
use siot_core::backend::ShardedBackend;
use siot_core::service::{block_on, Freshness, ServiceOptions, ShardedTrustService};
use siot_core::store::TrustEngine;
use std::sync::Barrier;
use std::time::Instant;

pub const NAME: &str = "ingest_local";
const SHARDS: usize = 2;
const CLIENTS: usize = 2;
const WINDOW: usize = 1024;
/// Commits per repetition: ≈ 0.40 M distinct keys (53 % of the commits
/// insert, the rest update), so the two copies of the state — backend and
/// replica mirror — are far past the CPU caches.
const COMMITS: usize = 750_000;
const SMOKE_COMMITS: usize = 10_000;

pub type Service = ShardedTrustService<u32, ShardedBackend<u32>>;

pub fn spawn_service(shards: usize) -> Service {
    ShardedTrustService::spawn_sharded(shards, ServiceOptions::default(), |_| {
        TrustEngine::with_backend(ShardedBackend::default())
    })
}

/// One repetition's inputs and expected output.
pub struct Prepared {
    pub parts: Vec<Vec<Commit>>,
    pub want: Digest,
}

/// Generates repetition `rep`'s stream, folds the reference and splits the
/// stream between the clients.
pub fn prepare(cfg: &Cfg, builder: &SessionBuilder, rep: usize, commits: usize) -> Prepared {
    let seed = rep_seed(cfg.seed, rep);
    let stream = commit_stream(seed, commits);
    let want = if cfg.poison_reference {
        reference(builder, &commit_stream(seed ^ 1, commits))
    } else {
        reference(builder, &stream)
    };
    Prepared { parts: partition(&stream, CLIENTS), want }
}

/// What one repetition measured.
struct Rep {
    /// Re-spawn over the populated engines until the first read answers.
    setup_s: f64,
    /// Median 100 ms slice rate, commits/s.
    throughput: f64,
    wall_s: f64,
    logs: Vec<ClientLog>,
    /// Resident set with the ingested state live, bytes.
    rss: u64,
    /// Distinct records in the shut-down engines.
    records: usize,
}

fn one_rep(
    cfg: &Cfg,
    builder: &SessionBuilder,
    rep: usize,
    traced: Option<Instant>,
    report: &mut Report,
    mut sampler: Option<&mut Sampler>,
) -> Rep {
    let prepared = prepare(cfg, builder, rep, cfg.size(COMMITS, SMOKE_COMMITS));
    let service = spawn_service(SHARDS);
    if let Some(sampler) = sampler.as_deref_mut() {
        sampler.watch(service.handle());
    }
    let start = Barrier::new(CLIENTS + 1);
    let meter = RateMeter::default();
    let (throughput, wall_s, clients) = std::thread::scope(|scope| {
        let threads: Vec<_> = prepared
            .parts
            .iter()
            .map(|part| {
                let handle = service.handle();
                let (start, meter) = (&start, &meter);
                scope.spawn(move || {
                    let mut tracer = Tracer::new(traced);
                    let submit = |batch| Box::pin(handle.submit_batch(batch)) as BoxedReceipts;
                    start.wait();
                    let log = drive_windows(builder, part, WINDOW, 1, submit, meter, &mut tracer);
                    (log, tracer)
                })
            })
            .collect();
        start.wait();
        let began = Instant::now();
        let throughput = meter.watch(|| threads.iter().all(|t| t.is_finished()));
        let clients: Vec<_> =
            threads.into_iter().map(|t| t.join().expect("client thread")).collect();
        (throughput, began.elapsed().as_secs_f64(), clients)
    });
    let rss = proc_status_bytes("VmRSS");
    if let Some(sampler) = sampler {
        sampler.finish();
    }

    let mut tally = Tally::default();
    let mut logs = Vec::new();
    for (log, tracer) in clients {
        tally.ops(log.attempted, log.failed);
        report.trace.absorb(tracer);
        logs.push(log);
    }
    let (mut setup_s, mut records) = (0.0, 0);
    match service.shutdown() {
        Err(e) => tally.check(format!("{NAME} rep {rep}: clean shutdown ({e})"), false),
        Ok(engines) => {
            let got = digest(&engines);
            records = got.records;
            tally.check(
                format!("{NAME} rep {rep}: shut-down engines match the sequential fold"),
                got == prepared.want,
            );
            // set-up: bring a service up over the state that now exists —
            // the in-memory restart: replica seeding, thread start, until
            // the first snapshot read answers
            let mut tracer = Tracer::new(traced);
            let (peer, task, _) = prepared.parts[0][0];
            let began = Instant::now();
            let mut engines = engines.into_iter();
            let service = tracer.within("recover.spawn", 0, None, |_, _| {
                ShardedTrustService::spawn_sharded(SHARDS, ServiceOptions::default(), |_| {
                    engines.next().expect("one engine per shard")
                })
            });
            let first = tracer.within("recover.first_read", 0, None, |_, _| {
                block_on(service.handle().record_with(peer, task, Freshness::snapshot(0)))
            });
            setup_s = began.elapsed().as_secs_f64();
            report.trace.absorb(tracer);
            tally.check(
                format!("{NAME} rep {rep}: a re-spawned service answers a committed key"),
                matches!(first, Ok(Some(_))) && service.shutdown().is_ok(),
            );
        }
    }
    report.tally.merge(tally);
    Rep { setup_s, throughput, wall_s, logs, rss, records }
}

pub fn run(cfg: &Cfg) -> Report {
    let mut report = Report::new(NAME);
    let builder = SessionBuilder::new();
    // warm-up: discarded, but for the resident set of a fresh process
    let warm = one_rep(cfg, &builder, 0, None, &mut Report::new(NAME), None);

    if cfg.trace {
        let untraced = one_rep(cfg, &builder, 1, None, &mut Report::new(NAME), None);
        let mut sampler = Sampler::new();
        let origin = Some(Instant::now());
        let traced = one_rep(cfg, &builder, 1, origin, &mut report, Some(&mut sampler));
        sampler.report(&mut report);
        crate::layers::serving_spans(&mut report);
        report.layer(
            "loadgen.trace_overhead_share",
            "share",
            1.0 - untraced.wall_s / traced.wall_s,
        );
        report.layer(
            "replica.mem_bytes_per_record",
            "bytes",
            warm.rss as f64 / warm.records.max(1) as f64,
        );
        return report;
    }

    report.push("rss_mb", "MB", warm.rss as f64 / 1e6);
    let mut measured_s = 0.0;
    let mut rep = 1;
    while cfg.more_reps(rep - 1, measured_s) {
        let r = one_rep(cfg, &builder, rep, None, &mut report, None);
        measured_s += r.wall_s;
        report.push("setup_s", "s", r.setup_s);
        report.push("throughput", "1/s", r.throughput);
        report.push_latency(
            r.logs.into_iter().flat_map(|l| l.ack_us).collect(),
            "submit_batch call → receipts of a 1024-commit window, closed loop, 2 clients",
        );
        rep += 1;
    }
    report.note(
        "setup = spawn 2 shards over the engines the repetition left (replica seeding + thread \
         start) until the first snapshot read answers",
    );
    report.note(format!(
        "throughput = commits/s, closed loop, median 100 ms slice; {} commits per repetition",
        cfg.size(COMMITS, SMOKE_COMMITS)
    ));
    report.note("rss = resident set of the first repetition with its state live");
    report
}
