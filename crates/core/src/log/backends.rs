//! The durable backend over the segmented journal: [`LogBackend`].

use super::frames::{encode_frame, Frame};
use super::journal::{ChurnCompact, Journal};
use super::{LogKey, LogOptions, BUFFER_SPILL, MAX_COMPACTED_SEGMENTS};
use crate::backend::TrustBackend;
use crate::error::TrustError;
use crate::mutuality::UsageLog;
use crate::record::TrustRecord;
use crate::task::TaskId;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// The durable ordered-map backend: a [`BTreeBackend`]-layout in-memory map
/// mirrored into the segmented journal described in the [module
/// docs](super).
///
/// Reads are pure memory; every write appends one absolute-state frame.
/// Construction without a directory ([`Default`]/ephemeral) journals
/// nothing — which is what the backend-equivalence property tests
/// exercise. [`LogBackend::open`] makes it durable.
///
/// Cloning a file-backed `LogBackend` keeps the full in-memory state but
/// **detaches from the file**: the clone journals nowhere (two handles
/// appending to one chain would interleave corruptly). Clone is for
/// forking experiments, not for sharing a durable store.
///
/// [`BTreeBackend`]: crate::backend::BTreeBackend
#[derive(Clone)]
pub struct LogBackend<P: LogKey> {
    mem: BTreeMap<(P, TaskId), TrustRecord>,
    journal: Journal<P>,
}

impl<P: LogKey> Default for LogBackend<P> {
    fn default() -> Self {
        LogBackend { mem: BTreeMap::new(), journal: Journal::ephemeral(LogOptions::default()) }
    }
}

impl<P: LogKey> LogBackend<P> {
    /// Opens (or creates) a durable backend in `dir` with default options:
    /// replays the manifest's segment chain (truncating a torn tail frame
    /// on the active segment). A version-1 directory is refused with
    /// [`TrustError::UnsupportedFormat`] and left untouched.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, TrustError> {
        Self::open_with(dir, LogOptions::default())
    }

    /// [`Self::open`] with explicit [`LogOptions`].
    pub fn open_with(dir: impl AsRef<Path>, options: LogOptions) -> Result<Self, TrustError> {
        let (journal, mem) = Journal::open(dir.as_ref(), options)?;
        Ok(LogBackend { mem, journal })
    }

    /// Whether this backend persists to disk (`false` for ephemeral
    /// construction and detached clones).
    pub fn is_durable(&self) -> bool {
        self.journal.is_durable()
    }

    /// The backing directory, if durable.
    pub fn dir(&self) -> Option<&Path> {
        self.journal.dir()
    }

    /// Frames appended since the last compaction (replayed raw-segment
    /// frames count, so a freshly opened backend reports its replay
    /// backlog).
    pub fn frames_since_compaction(&self) -> u64 {
        self.journal.frames_since_compact
    }

    /// Segments in the committed chain (0 when ephemeral).
    pub fn segments(&self) -> usize {
        self.journal.segments()
    }

    /// Compacted segments leading the chain (0 when ephemeral).
    pub fn compacted_segments(&self) -> usize {
        self.journal.compacted_segments()
    }

    /// Full compaction: rewrites the complete state as one compacted
    /// segment and resets the chain to `[compacted, active]`. O(total
    /// state) — prefer [`Self::compact_churned`] unless the chain needs
    /// the full form. No-op (beyond resetting the frame counter) for
    /// ephemeral backends.
    pub fn compact(&mut self) -> Result<(), TrustError> {
        self.journal.compact_from(self.mem.iter().map(|(&(p, t), &r)| (p, t, r)))
    }

    /// Incremental compaction: folds only the frames appended since the
    /// last compaction (the chain's raw segments) into a new compacted
    /// segment — O(churn), not O(state). Falls back to the full form when
    /// the churn window holds a `clear` or the chain already carries
    /// [`MAX_COMPACTED_SEGMENTS`] incremental snapshots.
    pub fn compact_churned(&mut self) -> Result<(), TrustError> {
        if self.journal.compacted_segments() >= MAX_COMPACTED_SEGMENTS {
            return self.compact();
        }
        match self.journal.compact_churned()? {
            ChurnCompact::Done => Ok(()),
            ChurnCompact::NeedsFull => self.compact(),
        }
    }

    /// Forces buffered frames down **and** fsyncs regardless of the
    /// configured [`FsyncPolicy`](super::FsyncPolicy) — the "I need this
    /// on disk now" call.
    pub fn sync(&mut self) -> Result<(), TrustError> {
        self.journal.sync()
    }

    fn after_write(&mut self) {
        let every = self.journal.options.compact_every;
        if every > 0 && self.journal.frames_since_compact >= every {
            // auto-compaction failure is sticky; the next flush surfaces it
            if let Err(e) = self.compact_churned() {
                self.journal.fail(e.to_string());
            }
        }
    }
}

impl<P: LogKey> fmt::Debug for LogBackend<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogBackend")
            .field("records", &self.mem.len())
            .field("journal", &self.journal)
            .finish()
    }
}

impl<P: LogKey + fmt::Debug> TrustBackend<P> for LogBackend<P> {
    fn get(&self, peer: P, task: TaskId) -> Option<TrustRecord> {
        self.mem.get(&(peer, task)).copied()
    }

    fn insert(&mut self, peer: P, task: TaskId, rec: TrustRecord) {
        self.mem.insert((peer, task), rec);
        self.journal.append_record(peer, task, rec);
        self.after_write();
    }

    fn update(
        &mut self,
        peer: P,
        task: TaskId,
        f: &mut dyn FnMut(Option<TrustRecord>) -> TrustRecord,
    ) {
        let rec = match self.mem.get_mut(&(peer, task)) {
            Some(slot) => {
                *slot = f(Some(*slot));
                *slot
            }
            None => {
                let rec = f(None);
                self.mem.insert((peer, task), rec);
                rec
            }
        };
        self.journal.append_record(peer, task, rec);
        self.after_write();
    }

    fn update_batch(
        &mut self,
        items: &[(P, TaskId)],
        f: &mut dyn FnMut(usize, Option<TrustRecord>) -> TrustRecord,
    ) {
        if items.is_empty() {
            return;
        }
        // fold the whole batch, then append its frames in one shot: one
        // buffer extend and one spill check per batch instead of per record
        let mut buf = Vec::with_capacity((items.len() * 64).min(BUFFER_SPILL));
        for (i, &(peer, task)) in items.iter().enumerate() {
            let rec = match self.mem.get_mut(&(peer, task)) {
                Some(slot) => {
                    *slot = f(i, Some(*slot));
                    *slot
                }
                None => {
                    let rec = f(i, None);
                    self.mem.insert((peer, task), rec);
                    rec
                }
            };
            encode_frame(&mut buf, &Frame::PutRecord { peer, task, rec });
        }
        self.journal.append_encoded(&buf, items.len() as u64);
        self.after_write();
    }

    fn for_each_experience(&self, peer: P, f: &mut dyn FnMut(TaskId, TrustRecord)) {
        for (&(_, tid), &rec) in self.mem.range((peer, TaskId(0))..=(peer, TaskId(u32::MAX))) {
            f(tid, rec);
        }
    }

    fn known_peers(&self) -> Vec<P> {
        let mut peers: Vec<P> = self.mem.keys().map(|&(p, _)| p).collect();
        peers.dedup(); // key order keeps a peer's records adjacent
        peers
    }

    fn len(&self) -> usize {
        self.mem.len()
    }

    fn clear(&mut self) {
        self.mem.clear();
        self.journal.append(&Frame::ClearRecords);
        self.after_write();
    }

    fn note_usage_log(&mut self, peer: P, log: UsageLog) {
        self.journal.note_usage(peer, log);
        self.after_write();
    }

    fn recovered_usage_logs(&self) -> Vec<(P, UsageLog)> {
        self.journal.usage.iter().map(|(&p, &l)| (p, l)).collect()
    }

    fn flush(&mut self) -> Result<(), TrustError> {
        self.journal.flush()
    }

    fn commit_barrier(&mut self) -> Result<(), TrustError> {
        self.journal.commit_barrier()
    }
}

#[cfg(test)]
mod tests {
    use super::super::frames::{read_frame, FrameRead};
    use super::super::{FsyncPolicy, MANIFEST_FILE};
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn rec(s: f64) -> TrustRecord {
        TrustRecord::with_priors(s, 0.5, 0.25, 0.125)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "siot-log-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        let frames: Vec<Frame<u32>> = vec![
            Frame::PutRecord { peer: 7, task: TaskId(3), rec: rec(0.75) },
            Frame::PutUsage { peer: 9, log: UsageLog { responsive: 4, abusive: 1 } },
            Frame::ClearRecords,
        ];
        for f in &frames {
            encode_frame(&mut buf, f);
        }
        let mut off = 0;
        let mut seen = 0;
        loop {
            match read_frame::<u32>(&buf, off) {
                FrameRead::End => break,
                FrameRead::Frame(frame, next) => {
                    match (seen, frame) {
                        (0, Frame::PutRecord { peer, task, rec: r }) => {
                            assert_eq!((peer, task), (7, TaskId(3)));
                            assert_eq!(r, rec(0.75));
                        }
                        (1, Frame::PutUsage { peer, log }) => {
                            assert_eq!(peer, 9);
                            assert_eq!(log, UsageLog { responsive: 4, abusive: 1 });
                        }
                        (2, Frame::ClearRecords) => {}
                        _ => panic!("unexpected frame #{seen}"),
                    }
                    seen += 1;
                    off = next;
                }
                FrameRead::Invalid => panic!("clean buffer must replay"),
            }
        }
        assert_eq!(seen, 3);
    }

    #[test]
    fn ephemeral_backend_matches_contract() {
        // same exercise the other backends run in backend.rs
        let mut b = LogBackend::<u32>::default();
        assert!(b.is_empty());
        assert!(!b.is_durable());
        b.insert(7, TaskId(1), rec(0.5));
        b.insert(3, TaskId(0), rec(0.25));
        b.insert(7, TaskId(0), rec(0.75));
        assert_eq!(b.len(), 3);
        b.update(7, TaskId(1), &mut |prior| {
            let mut r = prior.expect("existing");
            r.s_hat = 0.9;
            r
        });
        assert_eq!(b.get(7, TaskId(1)).unwrap().s_hat, 0.9);
        let mut seen = Vec::new();
        b.for_each_experience(7, &mut |tid, r| seen.push((tid, r.s_hat)));
        assert_eq!(seen, vec![(TaskId(0), 0.75), (TaskId(1), 0.9)]);
        assert_eq!(b.known_peers(), vec![3, 7]);
        b.clear();
        assert!(b.is_empty());
        assert!(b.flush().is_ok());
        assert!(b.commit_barrier().is_ok());
    }

    #[test]
    fn reopen_recovers_records_and_usage() {
        let dir = tmpdir("reopen");
        {
            let mut b = LogBackend::<u32>::open(&dir).unwrap();
            assert!(b.is_durable());
            assert_eq!(b.dir(), Some(dir.as_path()));
            assert!(dir.join(MANIFEST_FILE).exists());
            b.insert(1, TaskId(0), rec(0.5));
            b.update(1, TaskId(0), &mut |p| {
                let mut r = p.unwrap();
                r.interactions += 1;
                r
            });
            b.insert(2, TaskId(3), rec(1.0));
            b.note_usage_log(2, UsageLog { responsive: 5, abusive: 2 });
            // dropped without flush: the journal flushes on drop
        }
        let b = LogBackend::<u32>::open(&dir).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(1, TaskId(0)).unwrap().interactions, 1);
        assert_eq!(b.get(2, TaskId(3)).unwrap(), rec(1.0));
        assert_eq!(b.recovered_usage_logs(), vec![(2, UsageLog { responsive: 5, abusive: 2 })]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_writes_recover_exactly() {
        let dir = tmpdir("batch");
        {
            let mut b = LogBackend::<u32>::open(&dir).unwrap();
            let items: Vec<(u32, TaskId)> = (0..64u32).map(|p| (p, TaskId(0))).collect();
            b.update_batch(&items, &mut |i, _| rec(i as f64 / 64.0));
        }
        let b = LogBackend::<u32>::open(&dir).unwrap();
        assert_eq!(b.len(), 64);
        for i in 0..64u32 {
            assert_eq!(b.get(i, TaskId(0)), Some(rec(f64::from(i) / 64.0)), "peer {i}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_seals_segments_and_reopen_replays_the_chain() {
        let dir = tmpdir("rotate");
        let opts = LogOptions { segment_bytes: 512, ..LogOptions::default() };
        {
            let mut b = LogBackend::<u32>::open_with(&dir, opts).unwrap();
            for i in 0..200u32 {
                b.insert(i, TaskId(0), rec(f64::from(i) / 200.0));
            }
            b.flush().unwrap();
            assert!(b.segments() > 2, "512-byte segments must rotate, got {}", b.segments());
        }
        let b = LogBackend::<u32>::open_with(&dir, opts).unwrap();
        assert_eq!(b.len(), 200);
        for i in (0..200u32).step_by(17) {
            assert_eq!(b.get(i, TaskId(0)), Some(rec(f64::from(i) / 200.0)), "peer {i}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_truncates_chain_and_survives_reopen() {
        let dir = tmpdir("compact");
        {
            let mut b = LogBackend::<u32>::open(&dir).unwrap();
            for i in 0..50u32 {
                b.insert(i, TaskId(0), rec(0.5));
            }
            b.note_usage_log(3, UsageLog { responsive: 1, abusive: 0 });
            assert!(b.frames_since_compaction() >= 51);
            b.compact().unwrap();
            assert_eq!(b.frames_since_compaction(), 0);
            assert_eq!(b.segments(), 2, "full compaction resets to [compacted, active]");
            b.insert(99, TaskId(1), rec(0.25)); // post-snapshot tail frame
        }
        let b = LogBackend::<u32>::open(&dir).unwrap();
        assert_eq!(b.len(), 51);
        assert_eq!(b.frames_since_compaction(), 1, "only the tail frame is raw");
        assert_eq!(b.get(99, TaskId(1)).unwrap(), rec(0.25));
        assert_eq!(b.recovered_usage_logs().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn churned_compaction_folds_only_raw_segments() {
        let dir = tmpdir("churn");
        {
            let mut b = LogBackend::<u32>::open(&dir).unwrap();
            for i in 0..100u32 {
                b.insert(i, TaskId(0), rec(0.5));
            }
            // chain: [compacted, active]
            b.compact().unwrap();
            // churn a handful of keys, then compact just the churn
            for i in 0..5u32 {
                b.insert(i, TaskId(0), rec(0.875));
            }
            b.compact_churned().unwrap();
            assert_eq!(b.compacted_segments(), 2, "the churn snapshot appends to the chain");
            assert_eq!(b.frames_since_compaction(), 0);
            b.insert(7, TaskId(1), rec(0.25));
        }
        let b = LogBackend::<u32>::open(&dir).unwrap();
        assert_eq!(b.len(), 101);
        for i in 0..5u32 {
            assert_eq!(b.get(i, TaskId(0)), Some(rec(0.875)), "churned peer {i} wins on replay");
        }
        assert_eq!(b.get(50, TaskId(0)), Some(rec(0.5)), "unchurned state intact");
        assert_eq!(b.get(7, TaskId(1)), Some(rec(0.25)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clear_in_churn_window_falls_back_to_full_compaction() {
        let dir = tmpdir("churn-clear");
        let mut b = LogBackend::<u32>::open(&dir).unwrap();
        for i in 0..20u32 {
            b.insert(i, TaskId(0), rec(0.5));
        }
        b.compact().unwrap();
        b.clear();
        b.insert(1, TaskId(0), rec(0.75));
        // an appended snapshot cannot express the clear: must go full
        b.compact_churned().unwrap();
        assert_eq!(b.compacted_segments(), 1, "clear forces the chain-resetting full form");
        drop(b);
        let b = LogBackend::<u32>::open(&dir).unwrap();
        assert_eq!(b.len(), 1, "cleared records stay cleared after reopen");
        assert_eq!(b.get(1, TaskId(0)), Some(rec(0.75)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chain_of_incremental_snapshots_folds_into_full_at_cap() {
        let dir = tmpdir("churn-cap");
        let mut b = LogBackend::<u32>::open(&dir).unwrap();
        for round in 0..=MAX_COMPACTED_SEGMENTS as u32 {
            b.insert(round, TaskId(0), rec(0.5));
            b.compact_churned().unwrap();
            assert!(b.compacted_segments() <= MAX_COMPACTED_SEGMENTS);
        }
        assert_eq!(b.compacted_segments(), 1, "hitting the cap folds the chain into one");
        drop(b);
        let b = LogBackend::<u32>::open(&dir).unwrap();
        assert_eq!(b.len(), MAX_COMPACTED_SEGMENTS + 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_compaction_fires_on_threshold() {
        let dir = tmpdir("autocompact");
        let opts = LogOptions { compact_every: 16, ..LogOptions::default() };
        let mut b = LogBackend::<u32>::open_with(&dir, opts).unwrap();
        for i in 0..40u32 {
            b.insert(i, TaskId(0), rec(0.5));
        }
        assert!(b.frames_since_compaction() < 16, "threshold keeps the raw chain short");
        assert!(b.compacted_segments() >= 1, "the trigger wrote a compacted segment");
        drop(b);
        let b = LogBackend::<u32>::open(&dir).unwrap();
        assert_eq!(b.len(), 40);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clone_detaches_from_the_file() {
        let dir = tmpdir("clone");
        let mut a = LogBackend::<u32>::open(&dir).unwrap();
        a.insert(1, TaskId(0), rec(0.5));
        let mut c = a.clone();
        assert!(!c.is_durable());
        c.insert(2, TaskId(0), rec(0.75)); // journals nowhere
        assert_eq!(c.len(), 2);
        drop(a);
        let reopened = LogBackend::<u32>::open(&dir).unwrap();
        assert_eq!(reopened.len(), 1, "the clone's writes never reach the file");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_policies_all_reach_disk() {
        for policy in [FsyncPolicy::Never, FsyncPolicy::OnFlush, FsyncPolicy::Always] {
            let dir = tmpdir("fsync");
            let opts = LogOptions { fsync: policy, ..LogOptions::default() };
            let mut b = LogBackend::<u32>::open_with(&dir, opts).unwrap();
            b.insert(1, TaskId(0), rec(0.5));
            b.flush().unwrap();
            drop(b);
            let b = LogBackend::<u32>::open(&dir).unwrap();
            assert_eq!(b.len(), 1, "policy {policy:?}");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn wrong_magic_is_corrupt_not_clobbered() {
        let dir = tmpdir("magic");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(super::super::LOG_FILE), b"NOTSIOTFILE!").unwrap();
        let err = LogBackend::<u32>::open(&dir).unwrap_err();
        assert!(matches!(err, TrustError::Corrupt { what: "log header", .. }));
        // the foreign file is untouched
        assert_eq!(fs::read(dir.join(super::super::LOG_FILE)).unwrap(), b"NOTSIOTFILE!");
        fs::remove_dir_all(&dir).unwrap();
    }
}
