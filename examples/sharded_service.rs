//! Sharded service: a partitioned, durable trust fleet behind one
//! routing handle.
//!
//! One `TrustService` actor is one thread; when a fleet's commit volume
//! outgrows it, `ShardedTrustService` runs N independent shard actors —
//! each owning its own engine and, here, its own append-only log
//! directory — behind a single cloneable handle that routes by a stable
//! hash of the trustee. This example walks the sharded lifecycle:
//!
//! 1. spawn a **durable** fleet: `TrustEngine::open_shard(root, i)` gives
//!    every shard its own `shard-XXX/` journal under one root;
//! 2. requester threads commit through clones of the routing handle —
//!    peer-targeted calls land on the owning shard, and a whole batch
//!    travels as one vectored `submit_batch` per shard, receipts
//!    re-stitched in caller order;
//! 3. broadcasts fan out and merge: `Freshness::Relaxed` (the default)
//!    reads each shard at its own instant, `Freshness::Aligned`
//!    rendezvous every shard at one barrier for a true global cut;
//! 4. `shard_stats()` exposes per-shard mailbox depth and drained-batch
//!    sizes — the backpressure signal;
//! 5. shutdown drains and flushes every shard, and a "restart" reopens
//!    the same per-shard directories (same shard count — records do not
//!    migrate) and serves from remembered trust.
//!
//! Run with: `cargo run --example sharded_service`

use siot::core::prelude::*;
use siot::core::service::block_on;

const SHARDS: usize = 3;

/// Hidden ground truth for the demo's trustees.
fn competence(trustee: u32) -> f64 {
    0.25 + 0.7 * f64::from(trustee % 10) / 9.0
}

fn spawn_fleet(root: &std::path::Path, task: &Task) -> ShardedTrustService<u32, LogBackend<u32>> {
    let fleet =
        ShardedTrustService::try_spawn_sharded(SHARDS, ServiceOptions::default(), |shard| {
            // shard-000/, shard-001/, ... — one journal per shard actor
            let mut engine: DurableTrustStore<u32> = TrustEngine::open_shard(root, shard)?;
            // task definitions are configuration, re-registered after opening
            engine.register_task(task.clone());
            Ok(engine)
        })
        .expect("every shard directory opens");
    println!("fleet up: {} shard actors under {}", fleet.shard_count(), root.display());
    fleet
}

fn main() {
    let task = Task::uniform(TaskId(0), [CharacteristicId(0)]).expect("non-empty task");
    let root = std::env::temp_dir().join(format!("siot-sharded-service-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // ---- first life of the fleet ---------------------------------------
    let fleet = spawn_fleet(&root, &task);
    std::thread::scope(|scope| {
        for requester in 0..3u32 {
            let routing = fleet.handle();
            let task = task.clone();
            scope.spawn(move || {
                block_on(async {
                    // each requester reports a whole slate of observations
                    // in one vectored call: the handle splits it into one
                    // sub-batch per owning shard and stitches the receipts
                    // back in caller order
                    let scratch: TrustStore<u32> = TrustStore::new();
                    let batch: Vec<_> = (0..20u32)
                        .map(|i| {
                            let trustee = requester * 100 + i;
                            let q = competence(trustee);
                            DelegationRequest::new(
                                trustee,
                                &task,
                                Goal::ANY,
                                Context::amicable(task.id()),
                            )
                            .committed()
                            .activate(&scratch)
                            .finish(DelegationOutcome::succeeded(q, 0.1))
                            .expect("outcome is unit-range")
                        })
                        .collect();
                    let receipts = routing.submit_batch(batch).await.expect("fleet alive");
                    println!(
                        "  requester {requester}: {} receipts, first trustee {}",
                        receipts.len(),
                        receipts[0].trustee
                    );
                })
            });
        }
    });

    let routing = fleet.handle();
    block_on(async {
        // an aligned broadcast: every shard flushes its pending commits,
        // then all of them snapshot at one rendezvous — a global cut
        let cut = routing.known_peers_with(Freshness::Aligned).await.expect("fleet alive");
        let stats = routing.shard_stats().await.expect("fleet alive");
        println!(
            "\naligned cut sees {} trustees; per-shard commits {:?}",
            cut.len(),
            stats.iter().map(|s| s.committed).collect::<Vec<_>>(),
        );
    });
    drop(routing);

    // graceful shutdown: every shard drained, every journal flushed
    let engines = fleet.shutdown().expect("every shard drains and flushes");
    println!(
        "shut down; per-shard record counts {:?} — state is on disk",
        engines.iter().map(TrustEngine::record_count).collect::<Vec<_>>(),
    );
    drop(engines);

    // ---- second life: reopen the same shard directories ----------------
    let fleet = spawn_fleet(&root, &task);
    let routing = fleet.handle();
    println!("\nafter the restart, the fleet still knows its trustees:");
    block_on(async {
        let trustees = routing.known_peers().await.expect("fleet alive");
        for &trustee in trustees.iter().take(4) {
            let tw = routing
                .trustworthiness(trustee, task.id())
                .await
                .expect("fleet alive")
                .expect("remembered trustee");
            println!(
                "  trustee {trustee} (shard {}): {tw} (actual {:.2})",
                routing.shard_of(trustee),
                competence(trustee)
            );
        }
        println!("  ... and {} more", trustees.len().saturating_sub(4));
    });
    drop(routing);
    fleet.shutdown().expect("every shard drains and flushes");
    let _ = std::fs::remove_dir_all(&root);
}
