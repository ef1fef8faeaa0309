//! Per-trustor trust state behind a pluggable storage engine.
//!
//! A [`TrustEngine`] is everything one agent remembers about its peers:
//! per-`(peer, task)` trust records (§4.4), the task definitions needed for
//! characteristic-level inference (§4.2), and the usage logs that back
//! reverse evaluation (§4.1). Record storage is delegated to a
//! [`TrustBackend`] — the deterministic [`BTreeBackend`] by default, or the
//! hash-sharded [`ShardedBackend`](crate::backend::ShardedBackend) for
//! high-peer-count workloads — while task registry and usage logs stay in
//! the engine.
//!
//! [`TrustStore<P>`] is the engine over the B-tree backend, which is both
//! the historical name and the right default for deterministic simulation.
//!
//! ## Two API layers
//!
//! The caller-facing surface for *live interactions* is the delegation
//! session ([`TrustEngine::delegate`] →
//! [`delegation::DelegationRequest`](crate::delegation::DelegationRequest)),
//! which makes the paper's evaluate → decide → act → feed-back order the
//! only expressible one and validates every observation at the boundary.
//! Underneath it sits the **raw layer** — [`TrustEngine::observe`],
//! [`TrustEngine::insert_record`], [`TrustEngine::usage_log_mut`] — kept as
//! a documented escape hatch for storage benches and for replaying
//! pre-validated streams. State that predates the process (exported
//! records, historical usage logs) enters through the seeding APIs
//! ([`TrustEngine::seed_record`], [`TrustEngine::seed_usage_log`]), which
//! install state without pretending an interaction happened.

use crate::backend::{BTreeBackend, TrustBackend};
use crate::context::Context;
use crate::delegation::{CompletedDelegation, DelegationReceipt, DelegationRequest, ResourceUse};
use crate::environment::{remove_influence, update_with_environment, EnvIndicator};
use crate::error::TrustError;
use crate::goal::Goal;
use crate::infer::{infer_task, Experience};
use crate::log_backend::{LogBackend, LogKey, LogOptions};
use crate::mutuality::UsageLog;
use crate::record::{ForgettingFactors, Observation, TrustRecord};
use crate::task::{Task, TaskId};
use crate::tw::{Normalizer, Trustworthiness};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Trust state owned by a single agent, keyed by peer id `P`, with record
/// storage pluggable via the backend parameter `B`.
#[derive(Debug, Clone)]
pub struct TrustEngine<P, B = BTreeBackend<P>> {
    backend: B,
    tasks: BTreeMap<TaskId, Task>,
    logs: BTreeMap<P, UsageLog>,
    normalizer: Normalizer,
}

/// The deterministic default engine (ordered-map storage).
pub type TrustStore<P> = TrustEngine<P, BTreeBackend<P>>;

/// The durable engine: [`TrustStore`] semantics over the append-only
/// [`LogBackend`] — open it with [`TrustEngine::open`] and state survives
/// restarts.
pub type DurableTrustStore<P> = TrustEngine<P, LogBackend<P>>;

impl<P: Copy + Ord, B: TrustBackend<P>> Default for TrustEngine<P, B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Copy + Ord, B: TrustBackend<P>> TrustEngine<P, B> {
    /// An empty engine with the unit normalizer.
    pub fn new() -> Self {
        Self::with_backend(B::new())
    }

    /// An engine over an existing (possibly pre-warmed) backend. Usage
    /// logs a durable backend recovered from storage are replayed into the
    /// engine here; in-memory backends recover none.
    ///
    /// Task definitions are *not* persisted — they are static
    /// configuration, re-[registered](Self::register_task) by the caller
    /// after opening.
    pub fn with_backend(backend: B) -> Self {
        let logs = backend.recovered_usage_logs().into_iter().collect();
        TrustEngine { backend, tasks: BTreeMap::new(), logs, normalizer: Normalizer::UNIT }
    }

    /// Read access to the storage backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the storage backend — raw layer, for storage
    /// plumbing a generic engine cannot express (e.g. forcing an fsync
    /// with [`LogBackend::sync`]). Mutating records through it bypasses
    /// validation and usage-log bookkeeping; live interactions go through
    /// [sessions](Self::delegate).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Registers (or replaces) a task definition. Inference needs the
    /// characteristic weights, so tasks must be registered before
    /// observations referencing them.
    pub fn register_task(&mut self, task: Task) {
        self.tasks.insert(task.id(), task);
    }

    /// Looks up a task definition.
    pub fn task(&self, id: TaskId) -> Option<&Task> {
        self.tasks.get(&id)
    }

    /// All registered task definitions.
    pub fn tasks(&self) -> impl Iterator<Item = &Task> {
        self.tasks.values()
    }

    /// The normalization operator this engine derives Eq. 18
    /// trustworthiness with.
    pub fn normalizer(&self) -> Normalizer {
        self.normalizer
    }

    /// The record for `(peer, task)`, if any interaction happened.
    pub fn record(&self, peer: P, task: TaskId) -> Option<TrustRecord> {
        self.backend.get(peer, task)
    }

    /// Visits every `(peer, task, record)` triple the backend holds, in
    /// ascending peer order — the bulk read seam the replica tier seeds
    /// its snapshots from (see
    /// [`service::replica`](crate::service::replica)). The per-peer
    /// variant is [`for_each_record`](Self::for_each_record).
    pub fn for_each_stored_record(&self, mut f: impl FnMut(P, TaskId, TrustRecord)) {
        for peer in self.backend.known_peers() {
            self.backend.for_each_experience(peer, &mut |task, rec| f(peer, task, rec));
        }
    }

    /// Opens a delegation session toward `trustee` for `task`: the
    /// six-ingredient trust process of §3 as a typed-state lifecycle. The
    /// trustor is this engine's owner; the returned request is configured
    /// with builder methods and then
    /// [evaluated](crate::delegation::DelegationRequest::evaluate) against
    /// the engine. See [`crate::delegation`] for the full lifecycle.
    ///
    /// The context's task field is re-anchored on `task`; only its
    /// environment half is kept.
    pub fn delegate(
        &self,
        trustee: P,
        task: &Task,
        goal: Goal,
        context: Context,
    ) -> DelegationRequest<P> {
        DelegationRequest::new(trustee, task, goal, context)
    }

    /// Commits one finished session: atomically folds the validated
    /// observation (with the context's environment removed per Eqs. 25–29)
    /// and the §4.1 mutuality usage-log entry. Consumes the completion —
    /// an outcome can be counted exactly once.
    pub fn commit(
        &mut self,
        completed: CompletedDelegation<P>,
        betas: &ForgettingFactors,
    ) -> DelegationReceipt<P> {
        let fulfilled = completed.fulfilled();
        let envs = [completed.context.environment];
        // capture the folded record from inside the update closure so the
        // receipt costs one backend pass, not two
        let mut folded: Option<TrustRecord> = None;
        self.backend.update(completed.trustee, completed.task, &mut |prior| {
            let rec = folded_env(prior, &completed.observation, &envs, betas);
            folded = Some(rec);
            rec
        });
        self.log_resource_use(completed.trustee, completed.resource_use);
        // the receipt below is the ack: everything this commit appended
        // must be covered by a fsync first (one barrier, not one per
        // frame). A failure stays sticky for flush to surface.
        let _ = self.backend.commit_barrier();
        let record = folded.expect("update invokes the fold exactly once");
        DelegationReceipt {
            trustee: completed.trustee,
            task: completed.task,
            record,
            trustworthiness: record.trustworthiness(self.normalizer),
            fulfilled,
        }
    }

    /// Batched [`Self::commit`]: one backend pass for a whole slate of
    /// finished sessions (the shape a coordinator collecting a round's
    /// outcomes uses). Equivalent to committing each element in order.
    pub fn commit_batch(&mut self, batch: Vec<CompletedDelegation<P>>, betas: &ForgettingFactors) {
        // one fold implementation for both batch-commit shapes; the
        // discarded receipts are an allocation, not a second storage pass
        let _ = self.commit_batch_receipts(batch, betas);
    }

    /// [`Self::commit_batch`] that also returns one [`DelegationReceipt`]
    /// per committed session, in batch order — the shape a
    /// [`TrustService`](crate::service::TrustService) actor needs to ack
    /// every caller of a drained mailbox from a single storage pass.
    /// State-wise identical to `commit_batch` (and to committing each
    /// element in order).
    pub fn commit_batch_receipts(
        &mut self,
        batch: Vec<CompletedDelegation<P>>,
        betas: &ForgettingFactors,
    ) -> Vec<DelegationReceipt<P>> {
        let keys: Vec<(P, TaskId)> = batch.iter().map(|c| (c.trustee, c.task)).collect();
        let mut folded: Vec<Option<TrustRecord>> = vec![None; batch.len()];
        self.backend.update_batch(&keys, &mut |i, prior| {
            let c = &batch[i];
            let rec = folded_env(prior, &c.observation, &[c.context.environment], betas);
            folded[i] = Some(rec);
            rec
        });
        let receipts = batch
            .into_iter()
            .zip(folded)
            .map(|(c, rec)| {
                self.log_resource_use(c.trustee, c.resource_use);
                let record = rec.expect("update_batch folds every element exactly once");
                DelegationReceipt {
                    trustee: c.trustee,
                    task: c.task,
                    record,
                    trustworthiness: record.trustworthiness(self.normalizer),
                    fulfilled: c.fulfilled(),
                }
            })
            .collect();
        // one barrier for the whole slate — the group-commit heart: every
        // record and usage-log frame the batch appended rides one fsync,
        // issued before the receipts (the acks) are handed back
        let _ = self.backend.commit_barrier();
        receipts
    }

    fn log_resource_use(&mut self, peer: P, resource_use: ResourceUse) {
        let log = self.logs.entry(peer).or_default();
        match resource_use {
            ResourceUse::Responsive => log.record_responsive(),
            ResourceUse::Abusive => log.record_abusive(),
        }
        let after = *log;
        // durable backends journal the post-append state; in-memory
        // backends no-op
        self.backend.note_usage_log(peer, after);
    }

    /// Installs a record for `(peer, task)` — state that predates the
    /// process, e.g. records exported by another agent or priors an
    /// experiment starts from. For live interactions use a
    /// [session](Self::delegate) instead, so feedback is validated and the
    /// interaction count stays meaningful.
    pub fn seed_record(&mut self, peer: P, task: TaskId, rec: TrustRecord) {
        self.backend.insert(peer, task, rec);
        let _ = self.backend.commit_barrier();
    }

    /// Raw record insert — the escape hatch under [`Self::seed_record`]
    /// (identical semantics, kept for benches and storage plumbing).
    pub fn insert_record(&mut self, peer: P, task: TaskId, rec: TrustRecord) {
        self.backend.insert(peer, task, rec);
        let _ = self.backend.commit_barrier();
    }

    /// Folds a delegation outcome into the `(peer, task)` record
    /// (Eqs. 19–22). On first contact the observation *initializes* the
    /// record (Eq. 19 has no historical value to blend with yet).
    ///
    /// Raw layer: no validation, no usage-log entry. Live interactions
    /// should go through a [session](Self::delegate).
    pub fn observe(&mut self, peer: P, task: TaskId, obs: &Observation, betas: &ForgettingFactors) {
        self.backend.update(peer, task, &mut |prior| folded(prior, obs, betas));
        let _ = self.backend.commit_barrier();
    }

    /// Environment-aware variant (Eqs. 25–28): the observation is passed
    /// through the removal function r(·) before blending (or before
    /// initializing, on first contact).
    pub fn observe_with_environment(
        &mut self,
        peer: P,
        task: TaskId,
        obs: &Observation,
        envs: &[EnvIndicator],
        betas: &ForgettingFactors,
    ) {
        self.backend.update(peer, task, &mut |prior| folded_env(prior, obs, envs, betas));
        let _ = self.backend.commit_barrier();
    }

    /// Batched [`Self::observe`]: one backend pass for a whole slate of
    /// outcomes, letting the storage layer amortize lookup costs (shard
    /// routing, cache locality, journal appends). Equivalent to observing
    /// each element in order.
    ///
    /// Every observation is validated before anything is folded: a NaN or
    /// out-of-range component fails the whole batch atomically with
    /// [`TrustError::OutOfUnitRange`] instead of silently corrupting
    /// records.
    pub fn observe_batch(
        &mut self,
        batch: &[(P, TaskId, Observation)],
        betas: &ForgettingFactors,
    ) -> Result<(), TrustError> {
        for (_, _, obs) in batch {
            obs.validate()?;
        }
        let keys: Vec<(P, TaskId)> = batch.iter().map(|&(p, t, _)| (p, t)).collect();
        self.backend.update_batch(&keys, &mut |i, prior| folded(prior, &batch[i].2, betas));
        // one fsync for the whole batch; a barrier failure is worth the
        // caller's attention here since this path already returns Result
        self.backend.commit_barrier()
    }

    /// Eq. 18 trustworthiness toward `peer` on `task`, `None` without
    /// direct experience.
    pub fn trustworthiness(&self, peer: P, task: TaskId) -> Option<Trustworthiness> {
        self.record(peer, task).map(|r| r.trustworthiness(self.normalizer))
    }

    /// Every `(task, trustworthiness)` experience with `peer`, for use with
    /// the inference machinery. Tasks lacking a registered definition are
    /// skipped.
    pub fn experiences_with(&self, peer: P) -> Vec<Experience<'_>> {
        let mut out = Vec::new();
        let tasks = &self.tasks;
        let normalizer = self.normalizer;
        self.backend.for_each_experience(peer, &mut |tid, rec| {
            if let Some(task) = tasks.get(&tid) {
                out.push(Experience::new(task, rec.trustworthiness(normalizer).value()));
            }
        });
        out
    }

    /// Visits every record held about `peer` in ascending task order —
    /// for consumers that interpret records with their own task registry
    /// (e.g. a shared task pool) instead of the engine's.
    pub fn for_each_record(&self, peer: P, mut f: impl FnMut(TaskId, TrustRecord)) {
        self.backend.for_each_experience(peer, &mut f);
    }

    /// Eq. 4 inference toward `peer` for a task it never performed.
    pub fn infer(&self, peer: P, new_task: &Task) -> Result<f64, TrustError> {
        infer_task(new_task, &self.experiences_with(peer))
    }

    /// Direct trustworthiness when available, inferred otherwise.
    pub fn trustworthiness_or_inferred(&self, peer: P, task: &Task) -> Option<Trustworthiness> {
        if let Some(tw) = self.trustworthiness(peer, task.id()) {
            return Some(tw);
        }
        self.infer(peer, task).ok().map(Trustworthiness::new)
    }

    /// The usage log about `peer` (for reverse evaluation).
    pub fn usage_log(&self, peer: P) -> UsageLog {
        self.logs.get(&peer).copied().unwrap_or_default()
    }

    /// Installs `seed()` as the usage log about `peer` if none exists yet
    /// and returns the (possibly pre-existing) log read-only — for
    /// warm-starting reverse evaluation from historical interactions. The
    /// closure only runs on first contact (and only a first contact is
    /// journaled by durable backends). Live entries are appended by
    /// executed [sessions](Self::delegate), not by hand.
    pub fn seed_usage_log(&mut self, peer: P, seed: impl FnOnce() -> UsageLog) -> &UsageLog {
        if let std::collections::btree_map::Entry::Vacant(slot) = self.logs.entry(peer) {
            let log = seed();
            slot.insert(log);
            self.backend.note_usage_log(peer, log);
            let _ = self.backend.commit_barrier();
        }
        self.logs.get(&peer).expect("present: inserted above on first contact")
    }

    /// Mutable usage log about `peer`.
    ///
    /// Raw layer: sessions fold resource use automatically; reach for this
    /// only when replaying externally-validated histories.
    ///
    /// **Durability**: mutations through the returned reference bypass the
    /// backend's journal — on a durable engine they are not persisted until
    /// the next [`Self::flush`] (which re-journals every usage log) or the
    /// next session commit touching the same peer. Sessions and the seeding
    /// APIs have no such gap.
    #[must_use = "journal-bypassing until flush: mutate the returned log or use seed_usage_log"]
    pub fn usage_log_mut(&mut self, peer: P) -> &mut UsageLog {
        self.logs.entry(peer).or_default()
    }

    /// Mutable usage log about `peer`, seeded by `seed` on first access.
    ///
    /// Raw layer: prefer [`Self::seed_usage_log`], which hands back a
    /// read-only log so live entries can only come from sessions. The seed
    /// itself is journaled by durable backends; later mutations through the
    /// returned reference carry the same caveat as [`Self::usage_log_mut`].
    #[must_use = "journal-bypassing until flush: mutate the returned log or use seed_usage_log"]
    pub fn usage_log_mut_or_seed(
        &mut self,
        peer: P,
        seed: impl FnOnce() -> UsageLog,
    ) -> &mut UsageLog {
        if let std::collections::btree_map::Entry::Vacant(slot) = self.logs.entry(peer) {
            let log = seed();
            slot.insert(log);
            self.backend.note_usage_log(peer, log);
            let _ = self.backend.commit_barrier();
        }
        self.logs.get_mut(&peer).expect("present: inserted above on first contact")
    }

    /// Pushes engine state down to stable storage: re-journals every usage
    /// log (absolute state — cheap when nothing changed, and the only way
    /// raw [`Self::usage_log_mut`] edits become durable) and then flushes
    /// the backend. A no-op `Ok(())` on in-memory backends.
    pub fn flush(&mut self) -> Result<(), TrustError> {
        self.rejournal_usage_logs();
        self.backend.flush()
    }

    /// Hands every usage log to the backend's durability hook — absolute
    /// state, so already-journaled logs are skipped cheaply. The shared
    /// step under [`Self::flush`] and the durable engine's `compact`.
    fn rejournal_usage_logs(&mut self) {
        for (&peer, &log) in &self.logs {
            self.backend.note_usage_log(peer, log);
        }
    }

    /// Peers with at least one record — each exactly once, ascending.
    ///
    /// The engine re-sorts and dedups defensively: backends *should* uphold
    /// the iterator contract, but a peer's records being non-adjacent in the
    /// underlying map (as in any hash layout) must never surface duplicates
    /// here.
    pub fn known_peers(&self) -> Vec<P> {
        let mut peers = self.backend.known_peers();
        peers.sort_unstable();
        peers.dedup();
        peers
    }

    /// Number of `(peer, task)` records held.
    pub fn record_count(&self) -> usize {
        self.backend.len()
    }

    /// Drops all records, keeping registered tasks and usage logs.
    pub fn clear_records(&mut self) {
        self.backend.clear();
        let _ = self.backend.commit_barrier();
    }

    /// The group-commit barrier (see
    /// [`TrustBackend::commit_barrier`]):
    /// on a durable backend under
    /// [`FsyncPolicy::Always`](crate::log::FsyncPolicy::Always), one fsync
    /// covering every frame appended since the last barrier. Every engine
    /// write API already runs one before returning; call it directly when
    /// batching through raw backend access or to re-check a sticky append
    /// failure without consuming it.
    pub fn commit_barrier(&mut self) -> Result<(), TrustError> {
        self.backend.commit_barrier()
    }
}

impl<P: LogKey + fmt::Debug> TrustEngine<P, LogBackend<P>> {
    /// Opens (or creates) a durable engine in `dir`: loads the snapshot,
    /// replays the log tail (truncating a torn final frame), and recovers
    /// records *and* usage logs to their exact pre-shutdown state.
    /// Re-[register](Self::register_task) task definitions after opening —
    /// they are configuration, not state.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, TrustError> {
        Ok(Self::with_backend(LogBackend::open(dir)?))
    }

    /// [`Self::open`] with explicit [`LogOptions`] (fsync policy,
    /// auto-compaction threshold).
    pub fn open_with(dir: impl AsRef<Path>, options: LogOptions) -> Result<Self, TrustError> {
        Ok(Self::with_backend(LogBackend::open_with(dir, options)?))
    }

    /// The on-disk directory of shard `shard` under a sharded-service
    /// `root`: `root/shard-NNN`. One name for both halves of the durable
    /// sharded story — [`Self::open_shard`] at spawn and at recovery.
    pub fn shard_dir(root: impl AsRef<Path>, shard: usize) -> std::path::PathBuf {
        root.as_ref().join(format!("shard-{shard:03}"))
    }

    /// Opens (or creates) the durable engine of one service shard: per-shard
    /// construction seam for
    /// [`ShardedTrustService::spawn_sharded`](crate::service::ShardedTrustService::spawn_sharded),
    /// giving every shard its own journal directory
    /// ([`Self::shard_dir`]). Reopen with the **same shard count**: records
    /// do not migrate between shard directories, so a different count would
    /// route peers to shards that never held their history.
    pub fn open_shard(root: impl AsRef<Path>, shard: usize) -> Result<Self, TrustError> {
        Self::open(Self::shard_dir(root, shard))
    }

    /// [`Self::open_shard`] with explicit [`LogOptions`].
    pub fn open_shard_with(
        root: impl AsRef<Path>,
        shard: usize,
        options: LogOptions,
    ) -> Result<Self, TrustError> {
        Self::open_with(Self::shard_dir(root, shard), options)
    }

    /// Full compaction of the backing chain (see [`LogBackend::compact`]).
    /// Usage logs raw-mutated since the last [`Self::flush`] are
    /// re-journaled first so the snapshot is complete.
    pub fn compact(&mut self) -> Result<(), TrustError> {
        self.rejournal_usage_logs();
        self.backend.compact()
    }

    /// Incremental, churn-proportional compaction (see
    /// [`LogBackend::compact_churned`]) — folds only the frames appended
    /// since the last compaction, falling back to the full form when the
    /// chain needs it. Same usage-log re-journaling as [`Self::compact`].
    pub fn compact_churned(&mut self) -> Result<(), TrustError> {
        self.rejournal_usage_logs();
        self.backend.compact_churned()
    }

    /// Number of segments in the committed chain (see
    /// [`LogBackend::segments`]).
    pub fn segments(&self) -> usize {
        self.backend.segments()
    }

    /// How many compacted (snapshot) segments lead the chain (see
    /// [`LogBackend::compacted_segments`]).
    pub fn compacted_segments(&self) -> usize {
        self.backend.compacted_segments()
    }
}

/// One Eq. 19–22 fold: blend into the prior, or initialize from the first
/// observation.
#[inline]
fn folded(prior: Option<TrustRecord>, obs: &Observation, betas: &ForgettingFactors) -> TrustRecord {
    match prior {
        Some(mut rec) => {
            rec.update(obs, betas);
            rec
        }
        None => TrustRecord::from_first_observation(obs),
    }
}

/// One Eq. 25–28 fold: remove the environment's influence, then blend.
#[inline]
fn folded_env(
    prior: Option<TrustRecord>,
    obs: &Observation,
    envs: &[EnvIndicator],
    betas: &ForgettingFactors,
) -> TrustRecord {
    match prior {
        Some(mut rec) => {
            update_with_environment(&mut rec, obs, envs, betas);
            rec
        }
        None => {
            let adjusted = Observation {
                success_rate: remove_influence(obs.success_rate, envs),
                gain: remove_influence(obs.gain, envs),
                damage: remove_influence(obs.damage, envs),
                cost: remove_influence(obs.cost, envs),
            };
            TrustRecord::from_first_observation(&adjusted)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ShardedBackend;
    use crate::task::CharacteristicId;

    fn task(id: u32, cs: &[u32]) -> Task {
        Task::uniform(TaskId(id), cs.iter().map(|&i| CharacteristicId(i))).unwrap()
    }

    #[test]
    fn observe_creates_and_updates() {
        let mut store: TrustStore<u32> = TrustStore::new();
        let betas = ForgettingFactors::uniform(0.5);
        store.observe(7, TaskId(0), &Observation::success(1.0, 0.0), &betas);
        let rec = store.record(7, TaskId(0)).unwrap();
        assert_eq!(rec.interactions, 1);
        assert!(rec.s_hat > 0.5);
        assert!(store.record(7, TaskId(1)).is_none());
        assert!(store.record(8, TaskId(0)).is_none());
    }

    #[test]
    fn trustworthiness_requires_experience() {
        let store: TrustStore<u32> = TrustStore::new();
        assert!(store.trustworthiness(1, TaskId(0)).is_none());
    }

    #[test]
    fn inference_via_store() {
        let mut store: TrustStore<u32> = TrustStore::new();
        let gps = task(0, &[0]);
        let image = task(1, &[1]);
        let traffic = task(2, &[0, 1]);
        store.register_task(gps);
        store.register_task(image);
        let betas = ForgettingFactors::uniform(0.0); // jump to observation
                                                     // strong experience on both component tasks
        for tid in [TaskId(0), TaskId(1)] {
            store.observe(5, tid, &Observation::success(1.0, 0.0), &betas);
        }
        let inferred = store.infer(5, &traffic).unwrap();
        assert!(inferred > 0.8, "inferred = {inferred}");
        // no record for τ2 itself
        assert!(store.trustworthiness(5, TaskId(2)).is_none());
        assert!(store.trustworthiness_or_inferred(5, &traffic).unwrap().value() > 0.8);
    }

    #[test]
    fn inference_fails_without_coverage() {
        let mut store: TrustStore<u32> = TrustStore::new();
        let gps = task(0, &[0]);
        store.register_task(gps);
        store.observe(5, TaskId(0), &Observation::success(1.0, 0.0), &ForgettingFactors::paper());
        let exotic = task(9, &[7]);
        assert!(store.infer(5, &exotic).is_err());
        assert!(store.trustworthiness_or_inferred(5, &exotic).is_none());
    }

    #[test]
    fn experiences_scoped_per_peer() {
        let mut store: TrustStore<u32> = TrustStore::new();
        store.register_task(task(0, &[0]));
        let betas = ForgettingFactors::paper();
        store.observe(1, TaskId(0), &Observation::success(1.0, 0.0), &betas);
        store.observe(2, TaskId(0), &Observation::failure(1.0, 1.0), &betas);
        assert_eq!(store.experiences_with(1).len(), 1);
        assert_eq!(store.experiences_with(2).len(), 1);
        assert_eq!(store.experiences_with(3).len(), 0);
        assert_eq!(store.known_peers(), vec![1, 2]);
        assert_eq!(store.record_count(), 2);
    }

    #[test]
    fn environment_aware_observe() {
        let mut store: TrustStore<u32> = TrustStore::new();
        let betas = ForgettingFactors::uniform(0.0);
        let hostile = [EnvIndicator::saturating(0.4)];
        store.observe_with_environment(
            1,
            TaskId(0),
            &Observation { success_rate: 0.32, gain: 0.0, damage: 0.0, cost: 0.0 },
            &hostile,
            &betas,
        );
        assert!((store.record(1, TaskId(0)).unwrap().s_hat - 0.8).abs() < 1e-12);
    }

    #[test]
    fn usage_logs() {
        let mut store: TrustStore<u32> = TrustStore::new();
        store.usage_log_mut(9).record_abusive();
        store.usage_log_mut(9).record_abusive();
        store.usage_log_mut(9).record_responsive();
        let log = store.usage_log(9);
        assert_eq!(log.total(), 3);
        assert_eq!(log.abusive, 2);
        assert_eq!(store.usage_log(1), UsageLog::default());
    }

    #[test]
    fn usage_log_seeding_runs_once() {
        let mut store: TrustStore<u32> = TrustStore::new();
        let seeded = store.usage_log_mut_or_seed(4, || {
            let mut l = UsageLog::new();
            l.record_abusive();
            l
        });
        assert_eq!(seeded.total(), 1);
        // second access must keep the existing log, not reseed
        let again = store.usage_log_mut_or_seed(4, UsageLog::new);
        again.record_responsive();
        assert_eq!(store.usage_log(4).total(), 2);
        assert_eq!(store.usage_log(4).abusive, 1);
    }

    #[test]
    fn records_with_tendril_task_ids_stay_separate() {
        let mut store: TrustStore<u32> = TrustStore::new();
        let betas = ForgettingFactors::paper();
        store.observe(1, TaskId(0), &Observation::success(1.0, 0.0), &betas);
        store.observe(1, TaskId(u32::MAX), &Observation::failure(1.0, 1.0), &betas);
        assert_eq!(store.experiences_with(1).len(), 0, "unregistered tasks are skipped");
        assert_eq!(store.record_count(), 2);
    }

    #[test]
    fn default_impl() {
        let store: TrustStore<u8> = TrustStore::default();
        assert_eq!(store.record_count(), 0);
    }

    #[test]
    fn sharded_engine_matches_btree_engine() {
        let mut a: TrustEngine<u32> = TrustEngine::new();
        let mut b: TrustEngine<u32, ShardedBackend<u32>> = TrustEngine::new();
        let betas = ForgettingFactors::figures();
        for i in 0..200u32 {
            let peer = i % 17;
            let tid = TaskId(i % 5);
            let obs = Observation {
                success_rate: (i % 11) as f64 / 10.0,
                gain: (i % 7) as f64 / 6.0,
                damage: (i % 3) as f64 / 2.0,
                cost: (i % 13) as f64 / 12.0,
            };
            a.observe(peer, tid, &obs, &betas);
            b.observe(peer, tid, &obs, &betas);
        }
        assert_eq!(a.record_count(), b.record_count());
        assert_eq!(a.known_peers(), b.known_peers());
        for peer in a.known_peers() {
            for t in 0..5 {
                assert_eq!(a.record(peer, TaskId(t)), b.record(peer, TaskId(t)));
            }
        }
    }

    #[test]
    fn known_peers_unique_under_hash_layout() {
        // Regression: `known_peers` once deduped only *adjacent* entries,
        // which silently assumed the B-tree layout. A sharded backend
        // interleaves peers arbitrarily; every peer must still appear
        // exactly once, ascending.
        let mut e: TrustEngine<u32, ShardedBackend<u32>> = TrustEngine::new();
        let betas = ForgettingFactors::figures();
        // many tasks per peer, inserted round-robin so one peer's records
        // never arrive adjacently
        for t in 0..7u32 {
            for peer in (0..50u32).rev() {
                e.observe(peer, TaskId(t), &Observation::success(0.5, 0.1), &betas);
            }
        }
        let peers = e.known_peers();
        assert_eq!(peers, (0..50).collect::<Vec<_>>());
        assert_eq!(e.record_count(), 350);
    }

    #[test]
    fn observe_batch_equals_sequential_observes() {
        let betas = ForgettingFactors::figures();
        let batch: Vec<(u32, TaskId, Observation)> = (0..500u32)
            .map(|i| {
                (
                    i % 23,
                    TaskId(i % 3),
                    Observation {
                        success_rate: (i % 10) as f64 / 9.0,
                        gain: 0.4,
                        damage: 0.2,
                        cost: 0.1,
                    },
                )
            })
            .collect();

        let mut seq: TrustEngine<u32, ShardedBackend<u32>> = TrustEngine::new();
        for (p, t, obs) in &batch {
            seq.observe(*p, *t, obs, &betas);
        }
        let mut batched: TrustEngine<u32, ShardedBackend<u32>> = TrustEngine::new();
        batched.observe_batch(&batch, &betas).unwrap();

        assert_eq!(seq.record_count(), batched.record_count());
        for &(p, t, _) in &batch {
            assert_eq!(seq.record(p, t), batched.record(p, t));
        }
    }

    #[test]
    fn insert_record_seeds_state() {
        let mut store: TrustStore<u32> = TrustStore::new();
        store.insert_record(3, TaskId(2), TrustRecord::with_priors(0.9, 0.8, 0.1, 0.2));
        let rec = store.record(3, TaskId(2)).unwrap();
        assert!((rec.s_hat - 0.9).abs() < 1e-12);
        store.clear_records();
        assert_eq!(store.record_count(), 0);
    }

    #[test]
    fn seed_record_matches_insert_record() {
        let mut a: TrustStore<u32> = TrustStore::new();
        let mut b: TrustStore<u32> = TrustStore::new();
        let rec = TrustRecord::with_priors(0.7, 0.6, 0.2, 0.1);
        a.seed_record(5, TaskId(1), rec);
        b.insert_record(5, TaskId(1), rec);
        assert_eq!(a.record(5, TaskId(1)), b.record(5, TaskId(1)));
    }

    #[test]
    fn seed_usage_log_runs_once_and_is_read_only() {
        let mut store: TrustStore<u32> = TrustStore::new();
        let seeded = store.seed_usage_log(4, || UsageLog { responsive: 3, abusive: 1 });
        assert_eq!(seeded.total(), 4);
        // second access keeps the existing log, the closure never runs
        let again = store.seed_usage_log(4, || panic!("must not reseed"));
        assert_eq!(again.abusive, 1);
    }

    #[test]
    fn observe_batch_rejects_invalid_observations_atomically() {
        let mut store: TrustStore<u32> = TrustStore::new();
        let betas = ForgettingFactors::figures();
        let batch = vec![
            (1u32, TaskId(0), Observation::success(0.9, 0.1)),
            (
                2u32,
                TaskId(0),
                Observation { success_rate: f64::NAN, gain: 0.5, damage: 0.5, cost: 0.5 },
            ),
        ];
        let err = store.observe_batch(&batch, &betas).unwrap_err();
        assert!(matches!(err, TrustError::OutOfUnitRange { what: "success_rate", .. }));
        assert_eq!(store.record_count(), 0, "nothing folded, even the valid element");
    }
}
