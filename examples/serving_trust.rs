//! Serving trust: one durable engine shared by many concurrent
//! requesters through the async `TrustService` facade.
//!
//! The paper frames trust as a process run *by* an agent; SIoT
//! deployments also need that process run *for* a fleet — a shared
//! service many autonomous objects evaluate against and report into
//! concurrently. This example walks the full service lifecycle:
//!
//! 1. open a **durable** engine (append-only log + snapshot recovery);
//! 2. spawn a [`TrustService`]: the actor thread takes ownership, handles
//!    are `Clone + Send`, methods are `async fn`s — no runtime, the
//!    bundled `block_on` drives them;
//! 3. requester threads race delegation sessions through their handles —
//!    evaluate in the actor, finish locally, commit the completion back;
//!    adjacent commits fold in one batched storage pass per mailbox drain;
//! 4. graceful shutdown drains the mailbox and flushes the journal, so no
//!    acked commit is lost;
//! 5. "restart": reopen the directory and serve again from remembered
//!    trust.
//!
//! Run with: `cargo run --example serving_trust`

use siot::core::prelude::*;
use siot::core::service::block_on;

/// Hidden ground truth for the demo's trustees.
const COMPETENCE: [f64; 4] = [0.95, 0.75, 0.5, 0.25];

fn spawn_service(dir: &std::path::Path, task: &Task) -> TrustService<u32, LogBackend<u32>> {
    let mut engine: DurableTrustStore<u32> = TrustEngine::open(dir).expect("durable store opens");
    // task definitions are configuration, re-registered after opening
    engine.register_task(task.clone());
    TrustService::spawn(engine, ServiceOptions::default())
}

fn main() {
    let task = Task::uniform(TaskId(0), [CharacteristicId(0)]).expect("non-empty task");
    let goal = Goal { min_success: 0.0, min_gain: 0.0, max_damage: 0.8, max_cost: 0.5 };
    let dir = std::env::temp_dir().join(format!("siot-serving-trust-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // ---- first life of the service -------------------------------------
    let service = spawn_service(&dir, &task);
    println!("service up; {} requester threads sharing it", 3);
    std::thread::scope(|scope| {
        for requester in 0..3usize {
            let handle = service.handle();
            let task = task.clone();
            scope.spawn(move || {
                block_on(async {
                    // a deterministic per-requester walk over the trustees
                    for round in 0..8usize {
                        let trustee = ((requester + round) % COMPETENCE.len()) as u32;
                        let request = DelegationRequest::new(
                            trustee,
                            &task,
                            goal,
                            Context::amicable(task.id()),
                        )
                        .with_prior(TrustRecord::with_priors(1.0, 1.0, 0.0, 0.0));
                        let decision = handle.delegate(request).await.expect("service alive");
                        let Decision::Delegate(active) = decision else {
                            continue; // the goal gate refused: no feedback
                        };
                        // "execute" against the hidden competence
                        let q = COMPETENCE[trustee as usize];
                        let outcome = if (requester + round) % 4 != 3 {
                            DelegationOutcome::succeeded(q, 0.1)
                        } else {
                            DelegationOutcome::failed(1.0 - q, 0.1)
                        };
                        let completed = active.finish(outcome).expect("outcome is unit-range");
                        let receipt = handle.commit(completed).await.expect("service alive");
                        println!(
                            "  requester {requester} round {round}: trustee {trustee} {}",
                            if receipt.fulfilled { "fulfilled" } else { "fell short" }
                        );
                    }
                })
            });
        }
    });

    // graceful shutdown: mailbox drained, journal flushed, engine returned
    let engine = service.shutdown().expect("drains and flushes");
    println!(
        "\nshut down with {} trustees on record; state is on disk",
        engine.known_peers().len()
    );
    drop(engine);

    // ---- second life: reopen and serve from remembered trust -----------
    let service = spawn_service(&dir, &task);
    let handle = service.handle();
    println!("\nafter the restart, the service still knows its fleet:");
    block_on(async {
        for trustee in handle.known_peers().await.expect("service alive") {
            let tw = handle
                .trustworthiness(trustee, task.id())
                .await
                .expect("service alive")
                .expect("known trustee");
            let interactions = handle
                .record(trustee, task.id())
                .await
                .expect("service alive")
                .expect("known trustee")
                .interactions;
            println!(
                "  trustee {trustee}: {tw} after {interactions} interactions (actual {:.2})",
                COMPETENCE[trustee as usize]
            );
        }
    });
    service.shutdown().expect("drains and flushes");
    let _ = std::fs::remove_dir_all(&dir);
}
