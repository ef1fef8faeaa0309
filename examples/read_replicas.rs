//! Read replicas: epoch-snapshotted, mailbox-free reads with bounded
//! staleness over a durable sharded fleet.
//!
//! SIoT traffic is read-dominated — agents *evaluate* far more often
//! than they *commit* — so the replica tier lets readers scale
//! independently of the write path. At the end of every mailbox drain
//! that folded commits, each shard actor publishes an immutable,
//! epoch-stamped `ReadSnapshot` into an `Arc`-swapped slot; snapshot
//! readers answer off the latest snapshots with **zero mailbox
//! traffic**, and `Freshness::Snapshot { max_epoch_lag }` turns the
//! staleness into a contract: served from the snapshot only while it
//! trails the shard's last fold by at most that many drain epochs,
//! falling through to the mailbox otherwise. This example walks the
//! lifecycle:
//!
//! 1. spawn a **durable** 3-shard fleet with `publish_every: 4`, so the
//!    published snapshot is allowed to trail the folds — lag is visible;
//! 2. one writer thread streams awaited commits (each one is one
//!    mutating drain on its owning shard);
//! 3. many reader threads ride the cloneable `ReplicaHandle`
//!    concurrently — never touching a mailbox, never observing a torn
//!    snapshot, watching per-shard epochs only ever move forward;
//! 4. the epoch-lag demonstration: `shard_stats()` shows
//!    `published_epoch` trailing `drains`, a tight
//!    `Freshness::snapshot(0)` read falls through to the mailbox, and a
//!    loose `Freshness::snapshot(64)` read is served off the snapshot;
//! 5. graceful shutdown flushes every shard's journal.
//!
//! Run with: `cargo run --example read_replicas`

use std::sync::atomic::{AtomicBool, Ordering};

use siot::core::prelude::*;
use siot::core::service::block_on;

const SHARDS: usize = 3;
const TRUSTEES: u32 = 60;
const ROUNDS: usize = 7;
const READERS: u32 = 4;

fn main() {
    let task = Task::uniform(TaskId(0), [CharacteristicId(0)]).expect("non-empty task");
    let root = std::env::temp_dir().join(format!("siot-read-replicas-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // 1. a durable fleet that publishes every 4th mutating drain: write-hot
    //    shards amortize publication, and readers get to see real lag
    let options = ServiceOptions { publish_every: 4, ..ServiceOptions::default() };
    let fleet = ShardedTrustService::try_spawn_sharded(SHARDS, options, |shard| {
        let mut engine: DurableTrustStore<u32> = TrustEngine::open_shard(&root, shard)?;
        engine.register_task(task.clone());
        Ok(engine)
    })
    .expect("every shard directory opens");
    let routing = fleet.handle();
    block_on(routing.register_task(task.clone())).expect("fleet alive");

    // the replica handle is the mailbox-free reader: cloneable, Send,
    // serving every read off the shards' latest published snapshots
    let replica = routing.replica();
    let writer_done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // 2. ONE writer stream: sequentially awaited commits, each folded
        //    in its own drain on the trustee's owning shard
        let writer_routing = routing.clone();
        let writer_task = task.clone();
        let done = &writer_done;
        scope.spawn(move || {
            block_on(async {
                let scratch: TrustStore<u32> = TrustStore::new();
                for round in 0..ROUNDS {
                    for trustee in 0..TRUSTEES {
                        let quality = 0.3 + 0.6 * f64::from(trustee % 10) / 9.0;
                        let completed = DelegationRequest::new(
                            trustee,
                            &writer_task,
                            Goal::ANY,
                            Context::amicable(writer_task.id()),
                        )
                        .committed()
                        .activate(&scratch)
                        .finish(DelegationOutcome::succeeded(quality, 0.1))
                        .expect("outcome is unit-range");
                        writer_routing.commit(completed).await.expect("fleet alive");
                    }
                    println!("writer: round {} of {ROUNDS} committed", round + 1);
                }
            });
            done.store(true, Ordering::Release);
        });

        // 3. MANY snapshot readers, zero mailbox traffic: each hammers the
        //    replica and checks that published epochs only move forward
        for reader in 0..READERS {
            let replica = replica.clone();
            let task_id = task.id();
            let done = &writer_done;
            scope.spawn(move || {
                let mut floors = vec![0u64; SHARDS];
                let mut reads = 0u64;
                let mut peak_lag = 0u64;
                while !done.load(Ordering::Acquire) {
                    for trustee in 0..TRUSTEES {
                        // a snapshot always answers (possibly None before the
                        // first publication) — no await, no actor round trip
                        let _ = replica.trustworthiness(trustee, task_id);
                        reads += 1;
                    }
                    peak_lag = peak_lag.max(replica.max_lag());
                    for (floor, snapshot) in floors.iter_mut().zip(replica.snapshots()) {
                        assert!(snapshot.epoch() >= *floor, "epochs never move backward");
                        *floor = snapshot.epoch();
                    }
                }
                println!(
                    "reader {reader}: {reads} snapshot reads, epochs reached {floors:?}, \
                     peak lag seen {peak_lag}",
                );
            });
        }
    });

    // 4. the lag contract, observable and enforced
    block_on(async {
        let stats = routing.shard_stats().await.expect("fleet alive");
        println!("\nper-shard staleness (publish_every = 4):");
        for (shard, s) in stats.iter().enumerate() {
            println!(
                "  shard {shard}: snapshot published at epoch {} of {} drain cycles",
                s.published_epoch, s.drains,
            );
        }
        println!("  fleet-wide epoch lag right now: {}", replica.max_lag());
        // a loose bound is served straight off the snapshot — possibly the
        // value from a few folds ago...
        let relaxed = routing
            .trustworthiness_with(7, task.id(), Freshness::snapshot(64))
            .await
            .expect("fleet alive")
            .expect("committed trustee");
        // ...while a tight bound falls through to the mailbox whenever the
        // snapshot trails by more than the bound, so it always reflects
        // every awaited commit — the choice prices freshness, never safety
        let tight = routing
            .trustworthiness_with(7, task.id(), Freshness::snapshot(0))
            .await
            .expect("fleet alive")
            .expect("committed trustee");
        println!("\ntrustee 7: snapshot(64) says {relaxed}, snapshot(0) says {tight}");
    });

    // 5. graceful shutdown: every shard drained, every journal flushed
    drop(replica);
    drop(routing);
    let engines = fleet.shutdown().expect("every shard drains and flushes");
    println!(
        "shut down; per-shard record counts {:?} — state is on disk",
        engines.iter().map(TrustEngine::record_count).collect::<Vec<_>>(),
    );
    drop(engines);
    let _ = std::fs::remove_dir_all(&root);
}
