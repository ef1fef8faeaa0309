//! Seeded input generation: a private splitmix64 (not the workspace `rand`
//! shim, so a shim change cannot move the workload) and the skewed commit
//! stream every serving workload replays. The library under test only ever
//! sees values produced here.

use siot_core::context::Context;
use siot_core::delegation::{CompletedDelegation, DelegationOutcome, DelegationRequest};
use siot_core::goal::Goal;
use siot_core::record::Observation;
use siot_core::store::TrustStore;
use siot_core::task::{CharacteristicId, Task, TaskId};

/// Trustee id space of the commit stream.
pub const PEERS: u32 = 250_000;
/// Task types per trustee.
pub const TASKS: u32 = 4;

/// Steele/Lea/Flood splitmix64.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The splitmix64 finalizer — also the per-record hash of the state checksum.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A sub-seed for repetition `rep` of a run seeded with `seed`: every
/// repetition replays its own stream, so a run samples several inputs of
/// the same shape.
pub fn rep_seed(seed: u64, rep: usize) -> u64 {
    mix(seed ^ (rep as u64).wrapping_mul(0xA076_1D64_78BD_642F))
}

/// One observed delegation outcome toward `(peer, task)`.
pub type Commit = (u32, TaskId, Observation);

/// `n` commits over `PEERS × TASKS` keys with `peer = ⌊PEERS·u³⌋`: a skewed
/// stream in which a window holds repeated peers and most commits update a
/// key that already exists — the paper's trustor returning to trustees it
/// knows — while the cold tail keeps inserting new keys.
pub fn commit_stream(seed: u64, n: usize) -> Vec<Commit> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let u = rng.next_f64();
            let peer = ((PEERS as f64) * u * u * u) as u32;
            let task = TaskId((rng.next_u64() % TASKS as u64) as u32);
            let obs = Observation {
                success_rate: rng.next_f64(),
                gain: rng.next_f64(),
                damage: rng.next_f64(),
                cost: rng.next_f64(),
            };
            (peer.min(PEERS - 1), task, obs)
        })
        .collect()
}

/// The distinct `(peer, task)` keys of `stream`, ascending.
pub fn distinct_keys(stream: &[Commit]) -> Vec<(u32, TaskId)> {
    let mut keys: Vec<(u32, TaskId)> = stream.iter().map(|&(p, t, _)| (p, t)).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Turns commits into finished sessions through the public
/// `DelegationRequest … .committed().activate().finish()` path — the client
/// half of every commit, and the bottom rung of the ladder.
pub struct SessionBuilder {
    tasks: Vec<Task>,
    scratch: TrustStore<u32>,
}

impl SessionBuilder {
    pub fn new() -> Self {
        let tasks = (0..TASKS)
            .map(|t| Task::uniform(TaskId(t), [CharacteristicId(0)]).expect("non-empty task"))
            .collect();
        SessionBuilder { tasks, scratch: TrustStore::new() }
    }

    pub fn session(&self, &(peer, task, obs): &Commit) -> CompletedDelegation<u32> {
        DelegationRequest::new(
            peer,
            &self.tasks[task.0 as usize],
            Goal::ANY,
            Context::amicable(task),
        )
        .committed()
        .activate(&self.scratch)
        .finish(DelegationOutcome::observed(obs))
        .expect("generated observations are unit-range")
    }

    pub fn window(&self, commits: &[Commit]) -> Vec<CompletedDelegation<u32>> {
        commits.iter().map(|c| self.session(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // first outputs of splitmix64 seeded with 1234567 (Vigna's reference)
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        assert_eq!(rng.next_u64(), 9817491932198370423);
    }

    #[test]
    fn stream_is_deterministic_per_seed_and_differs_across_seeds() {
        let a = commit_stream(42, 5_000);
        let b = commit_stream(42, 5_000);
        let c = commit_stream(7, 5_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // a longer stream extends a shorter one: phases can slice one stream
        assert_eq!(commit_stream(42, 100)[..], a[..100]);
        assert_ne!(rep_seed(42, 0), rep_seed(42, 1));
        assert_ne!(rep_seed(42, 1), rep_seed(7, 1));
    }

    #[test]
    fn stream_is_skewed_and_in_range() {
        let s = commit_stream(42, 200_000);
        assert!(s.iter().all(|&(p, t, o)| p < PEERS && t.0 < TASKS && o.validate().is_ok()));
        let distinct = distinct_keys(&s).len();
        // far fewer distinct keys than commits (hot head), far more than a
        // uniform draw over a small set would give (cold tail)
        assert!(distinct > 120_000 && distinct < 170_000, "distinct = {distinct}");
        let hot = s.iter().filter(|&&(p, _, _)| p < PEERS / 100).count();
        assert!(hot > s.len() / 6, "the hottest 1 % of peers take > 1/6 of commits: {hot}");
    }

    #[test]
    fn builder_produces_the_commit_it_was_given() {
        let b = SessionBuilder::new();
        let c = commit_stream(1, 1)[0];
        let s = b.session(&c);
        assert_eq!((s.trustee(), s.task(), *s.observation()), c);
    }
}
