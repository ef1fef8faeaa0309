//! Helpers shared by the integration test binaries: scratch directories,
//! the commit-stream fixtures every serving suite plays, and the
//! sequential fold they are all compared against.

// each test binary compiles this module and uses a different subset of it
#![allow(dead_code)]

use std::path::PathBuf;

use proptest::prelude::*;
use siot_core::backend::TrustBackend;
use siot_core::environment::EnvIndicator;
use siot_core::prelude::*;
use siot_core::service::block_on;

/// A fresh per-call scratch directory for file-backed backends: unique per
/// process and per call, pre-cleaned, under the OS temp dir. Callers remove
/// it when their test passes (a failing test leaves it behind for autopsy).
pub fn tmpdir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "siot-test-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One commit a worker plays: (trustee-in-worker-range, observation,
/// abusive flag, environment).
pub type Step = (u32, Observation, u32, f64);

pub fn unit() -> impl Strategy<Value = f64> {
    0.0..=1.0f64
}

pub fn observation() -> impl Strategy<Value = Observation> {
    (unit(), unit(), unit(), unit()).prop_map(|(s, g, d, c)| Observation {
        success_rate: s,
        gain: g,
        damage: d,
        cost: c,
    })
}

/// Three workers' commit streams. Worker key spaces are disjoint (peer =
/// `worker · 100 + trustee`), so *any* interleaving of the workers must
/// land on the same per-key state as playing the streams sequentially.
pub fn streams() -> impl Strategy<Value = Vec<Vec<Step>>> {
    prop::collection::vec(
        prop::collection::vec((0u32..5, observation(), 0u32..2, 0.05..=1.0f64), 1..25),
        3..4,
    )
}

pub fn task() -> Task {
    Task::uniform(TaskId(0), [CharacteristicId(0)]).expect("non-empty task")
}

/// A fixed in-range step for the deterministic tests.
pub fn sample_step() -> Step {
    (1, Observation { success_rate: 0.875, gain: 0.5, damage: 0.0, cost: 0.125 }, 0, 1.0)
}

/// Builds the one-shot wire unit for one step: a committed session
/// finished with the step's outcome (validated at `finish`, like every
/// live interaction).
pub fn completed(worker: usize, step: &Step) -> CompletedDelegation<u32> {
    let &(trustee, ref obs, abusive, env) = step;
    let t = task();
    let scratch: TrustStore<u32> = TrustStore::new();
    let request = DelegationRequest::new(
        worker as u32 * 100 + trustee,
        &t,
        Goal::ANY,
        Context::new(t.id(), EnvIndicator::new(env).expect("generated in (0, 1]")),
    );
    let outcome = DelegationOutcome::observed(*obs);
    let outcome = if abusive == 1 { outcome.abusive() } else { outcome };
    request.committed().activate(&scratch).finish(outcome).expect("generated in-range")
}

/// Plays every worker stream concurrently, one thread per worker, worker
/// `i` through `handles[i % handles.len()]` — one handle per worker gives
/// each worker its own connection on the wire tier. Each worker pipelines
/// all its submits, then awaits every receipt.
pub fn play_streams<H: TrustApi<u32>>(handles: &[H], streams: &[Vec<Step>]) {
    std::thread::scope(|scope| {
        for (worker, stream) in streams.iter().enumerate() {
            let handle = &handles[worker % handles.len()];
            scope.spawn(move || {
                let pending: Vec<_> =
                    stream.iter().map(|step| handle.submit(completed(worker, step))).collect();
                for p in pending {
                    block_on(p).expect("service alive until every worker finished");
                }
            });
        }
    });
}

/// The reference: the same commits applied sequentially via
/// `commit_batch`, worker by worker.
pub fn run_sequential(streams: &[Vec<Step>]) -> TrustStore<u32> {
    let mut engine: TrustStore<u32> = TrustStore::new();
    for (worker, stream) in streams.iter().enumerate() {
        let batch: Vec<_> = stream.iter().map(|step| completed(worker, step)).collect();
        engine.commit_batch(batch, &ServiceOptions::default().betas);
    }
    engine
}

/// The shards, merged, are bit-identical to the reference: same peers and
/// record count overall, and per peer the same usage log and the same
/// record to the last mantissa bit.
pub fn shards_bit_identical<A: TrustBackend<u32>, B: TrustBackend<u32>>(
    shards: &[TrustEngine<u32, A>],
    reference: &TrustEngine<u32, B>,
) -> Result<(), TestCaseError> {
    let mut peers: Vec<u32> = shards.iter().flat_map(|e| e.known_peers()).collect();
    peers.sort_unstable();
    prop_assert_eq!(peers, reference.known_peers());
    prop_assert_eq!(
        shards.iter().map(|e| e.record_count()).sum::<usize>(),
        reference.record_count()
    );
    for shard in shards {
        for peer in shard.known_peers() {
            prop_assert_eq!(shard.usage_log(peer), reference.usage_log(peer));
            let (a, b) = (shard.record(peer, TaskId(0)), reference.record(peer, TaskId(0)));
            prop_assert_eq!(a.is_some(), b.is_some());
            if let (Some(ra), Some(rb)) = (a, b) {
                prop_assert_eq!(ra.s_hat.to_bits(), rb.s_hat.to_bits());
                prop_assert_eq!(ra.g_hat.to_bits(), rb.g_hat.to_bits());
                prop_assert_eq!(ra.d_hat.to_bits(), rb.d_hat.to_bits());
                prop_assert_eq!(ra.c_hat.to_bits(), rb.c_hat.to_bits());
                prop_assert_eq!(ra.interactions, rb.interactions);
            }
        }
    }
    Ok(())
}
