//! Integration tests for the `TrustService` facade: concurrent handle
//! commits are bit-identical to the sequential `commit_batch` fold, and
//! graceful shutdown loses no acked commit on a durable backend.

use proptest::prelude::*;
use siot_core::backend::TrustBackend;
use siot_core::log_backend::{FsyncPolicy, LogOptions};
use siot_core::prelude::*;
use siot_core::service::{block_on, ServiceOptions, TrustService};

mod common;
use common::{completed, play_streams, run_sequential, shards_bit_identical, streams, tmpdir};

/// Plays every worker stream concurrently through one actor and returns
/// the engine the shutdown hands back.
fn run_concurrent<B: TrustBackend<u32> + Send + 'static>(
    engine: TrustEngine<u32, B>,
    streams: &[Vec<common::Step>],
) -> TrustEngine<u32, B> {
    // a deliberately small mailbox so the streams exercise backpressure
    // and multi-drain batching, not one giant drain
    let service =
        TrustService::spawn(engine, ServiceOptions { mailbox: 8, ..ServiceOptions::default() });
    play_streams(&[service.handle()], streams);
    service.shutdown().expect("clean shutdown")
}

fn bit_identical<A: TrustBackend<u32>, B: TrustBackend<u32>>(
    x: &TrustEngine<u32, A>,
    y: &TrustEngine<u32, B>,
) -> Result<(), TestCaseError> {
    shards_bit_identical(std::slice::from_ref(x), y)
}

proptest! {
    // every case spawns an actor + three workers; keep the case count sane
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Concurrent handle commits through a BTree-backed service are
    /// bit-identical to the sequential `commit_batch` fold.
    #[test]
    fn service_commits_match_sequential_btree(streams in streams()) {
        let served = run_concurrent(TrustStore::<u32>::new(), &streams);
        let reference = run_sequential(&streams);
        bit_identical(&served, &reference)?;
    }

    /// Same equivalence over the durable `LogBackend` — and the journal
    /// the service's shutdown flushed replays to the same state.
    #[test]
    fn service_commits_match_sequential_durable(streams in streams()) {
        let dir = tmpdir("service-durable");
        let engine: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("scratch dir opens");
        let served = run_concurrent(engine, &streams);
        let reference = run_sequential(&streams);
        bit_identical(&served, &reference)?;

        // reopen what shutdown flushed: the durable state is the state
        drop(served);
        let reopened: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("reopens");
        bit_identical(&reopened, &reference)?;
        std::fs::remove_dir_all(&dir).expect("scratch removable");
    }
}

/// Shutdown drains the mailbox — commits queued but not yet acked when
/// the shutdown command lands are still folded, acked, and flushed — and
/// a `LogBackend` reopened afterward holds every one of them.
#[test]
fn shutdown_drains_queued_commits_and_flushes_durably() {
    let dir = tmpdir("service-drain");
    let n = 300usize;
    {
        let engine: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("fresh dir opens");
        let service = TrustService::spawn(
            engine,
            ServiceOptions { mailbox: 16, ..ServiceOptions::default() },
        );
        let handle = service.handle();
        // queue a pile of commits WITHOUT awaiting any receipt…
        let pending: Vec<_> = (0..n)
            .map(|i| {
                handle
                    .submit(completed(0, &((i % 7) as u32, Observation::success(0.8, 0.1), 0, 1.0)))
            })
            .collect();
        // …then shut down. The drain must fold and ack all of them before
        // the actor exits.
        let engine = service.shutdown().expect("graceful shutdown");
        for p in pending {
            block_on(p).expect("queued commit was drained and acked, not dropped");
        }
        assert_eq!(engine.record_count(), 7);
        let total: u64 = (0..7u32).map(|p| engine.record(p, TaskId(0)).unwrap().interactions).sum();
        assert_eq!(total, n as u64);
    }
    // a fresh process over the same directory: nothing acked was lost
    let recovered: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("reopen recovers");
    assert_eq!(recovered.record_count(), 7);
    let total: u64 = (0..7u32).map(|p| recovered.record(p, TaskId(0)).unwrap().interactions).sum();
    assert_eq!(total, n as u64, "every acked commit survived the restart");
    assert_eq!(
        recovered.usage_log(0).responsive,
        recovered.record(0, TaskId(0)).unwrap().interactions
    );
    drop(recovered);
    std::fs::remove_dir_all(&dir).expect("scratch removable");
}

/// The group-commit ordering guarantee, pinned at the service seam: under
/// [`FsyncPolicy::Always`] the actor releases receipts only *after* the
/// commit barrier's fsync covers the drained batch — so the instant a
/// receipt resolves, its commit is on disk. Snapshotting the chain files
/// at that instant and replaying the copy must show every acked commit;
/// a snapshot raced against still-unacked commits must replay cleanly
/// too — in-flight work is absent or present, never corruption.
#[test]
fn receipts_resolve_only_after_the_covering_fsync() {
    let dir = tmpdir("service-group-commit");
    // no compaction and a huge segment threshold: the manifest is written
    // once at creation, so a live file-by-file snapshot of the directory
    // is equivalent to a crash cut of the active segment
    let options =
        LogOptions { fsync: FsyncPolicy::Always, compact_every: 0, ..LogOptions::default() };
    let engine: DurableTrustStore<u32> =
        TrustEngine::open_with(&dir, options).expect("fresh dir opens");
    let service =
        TrustService::spawn(engine, ServiceOptions { mailbox: 64, ..ServiceOptions::default() });
    let handle = service.handle();

    let snapshot = |tag: &str| {
        let copy = tmpdir(tag);
        std::fs::create_dir_all(&copy).expect("snapshot dir creatable");
        for entry in std::fs::read_dir(&dir).expect("chain dir readable") {
            let entry = entry.expect("entry readable");
            std::fs::copy(entry.path(), copy.join(entry.file_name())).expect("file copies");
        }
        copy
    };
    let interactions = |engine: &DurableTrustStore<u32>| -> u64 {
        (0..6u32).filter_map(|p| engine.record(p, TaskId(0))).map(|r| r.interactions).sum()
    };

    // acked ⇒ durable: every resolved receipt is already covered by a sync
    let pending: Vec<_> = (0..120)
        .map(|i| {
            handle
                .submit(completed(0, &((i % 6) as u32, Observation::success(0.75, 0.125), 0, 1.0)))
        })
        .collect();
    for p in pending {
        block_on(p).expect("service alive for the whole batch");
    }
    let acked = snapshot("service-gc-acked");
    let replayed: DurableTrustStore<u32> =
        TrustEngine::open(&acked).expect("acked snapshot replays");
    assert_eq!(interactions(&replayed), 120, "every resolved receipt was fsynced first");
    drop(replayed);
    std::fs::remove_dir_all(&acked).expect("scratch removable");

    // unacked ⇒ absent or present, never corrupt: race a snapshot against
    // commits whose receipts have not resolved yet
    let pending: Vec<_> = (0..120)
        .map(|i| {
            handle
                .submit(completed(0, &((i % 6) as u32, Observation::success(0.75, 0.125), 0, 1.0)))
        })
        .collect();
    let raced = snapshot("service-gc-raced");
    let replayed: DurableTrustStore<u32> =
        TrustEngine::open(&raced).expect("a raced snapshot replays cleanly, never corrupt");
    let seen = interactions(&replayed);
    assert!((120..=240).contains(&seen), "acked floor, in-flight ceiling: {seen}");
    drop(replayed);
    std::fs::remove_dir_all(&raced).expect("scratch removable");
    for p in pending {
        block_on(p).expect("service alive for the whole batch");
    }

    drop(handle);
    let engine = service.shutdown().expect("clean shutdown");
    assert_eq!(interactions(&engine), 240);
    drop(engine);
    std::fs::remove_dir_all(&dir).expect("scratch removable");
}

/// The drain guarantee also holds when handles simply go away: dropping
/// every handle (no explicit shutdown) still flushes the journal before
/// the detached actor exits.
#[test]
fn dropping_handles_without_shutdown_still_flushes() {
    let dir = tmpdir("service-dropflush");
    let engine: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("fresh dir opens");
    let service = TrustService::spawn(engine, ServiceOptions::default());
    let handle = service.handle();
    block_on(handle.commit(completed(0, &(3, Observation::success(0.9, 0.1), 0, 1.0))))
        .expect("commit acked");
    // no shutdown call: both handles drop, the actor notices, flushes, exits
    drop(handle);
    drop(service);
    // the actor thread is detached, so synchronize on its flush reaching
    // the file (metadata only — opening the dir while the actor still
    // writes would make this test a second writer): the journal's exit
    // flush is the only thing that ever grows the active segment past its
    // header
    let log = dir.join(siot_core::log_backend::segment_file_name(1));
    let header = 8u64;
    let mut last = 0;
    for _ in 0..500 {
        let len = std::fs::metadata(&log).map(|m| m.len()).unwrap_or(0);
        if len > header && len == last {
            break;
        }
        last = len;
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let recovered: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("reopen recovers");
    assert_eq!(recovered.record_count(), 1);
    assert_eq!(recovered.record(3, TaskId(0)).unwrap().interactions, 1);
    drop(recovered);
    std::fs::remove_dir_all(&dir).expect("scratch removable");
}
