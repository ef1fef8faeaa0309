//! The journal: the durable sink under [`LogBackend`] — segment chain
//! bookkeeping, rotation, group-commit barriers, compaction (full and
//! churn-proportional), and recovery, including the refusal of version-1
//! directories.
//!
//! [`LogBackend`]: super::LogBackend

use super::frames::{encode_frame, Frame, RecordMap, Replayed};
use super::manifest::{read_manifest, write_manifest, Manifest, SegmentEntry, SegmentKind};
use super::segment::{check_header, create_segment, replay_strict, replay_tail, sync_dir};
use super::{
    segment_file_name, FsyncPolicy, LogKey, LogOptions, BUFFER_SPILL, FORMAT_VERSION, HEADER_LEN,
    KIND_SEGMENT, LOG_FILE, MANIFEST_FILE, MANIFEST_TMP, SNAP_FILE,
};
use crate::error::TrustError;
use crate::mutuality::UsageLog;
use crate::record::TrustRecord;
use crate::task::TaskId;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// The file-backed half of a [`Sink`]: the active segment's handle plus
/// the chain the manifest last committed.
pub(super) struct FileSink {
    /// Open handle on the active (last) segment, positioned at its end.
    file: File,
    pub(super) dir: PathBuf,
    /// Frames buffered ahead of the OS.
    buf: Vec<u8>,
    /// Bytes of the active segment already written to the OS (header
    /// included) — the rotation trigger and the churn-window bound.
    active_bytes: u64,
    /// The durably committed chain.
    manifest: Manifest,
}

pub(super) enum Sink {
    /// Ephemeral: frames are dropped as they are appended. The mode of
    /// [`Default`] construction and of clones detached from their file.
    Null,
    /// File-backed: frames buffer in `buf` and spill to the active segment.
    File(FileSink),
}

/// What an incremental compaction attempt concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum ChurnCompact {
    /// The churn window was folded into a new compacted segment.
    Done,
    /// The window contains a `clear` frame (or the chain shape rules the
    /// incremental form out) — the caller must run a full compaction,
    /// which has the complete state the incremental form lacks.
    NeedsFull,
}

pub(super) struct Journal<P: LogKey> {
    pub(super) sink: Sink,
    /// Authoritative post-append usage logs (what the engine recovers).
    pub(super) usage: BTreeMap<P, UsageLog>,
    pub(super) options: LogOptions,
    pub(super) frames_since_compact: u64,
    /// Whether frames were appended since the last fsync-carrying drain —
    /// lets a commit barrier with nothing new skip the fsync entirely, so
    /// stacked barriers (engine-level + service-level) cost one syscall.
    dirty: bool,
    /// Last I/O failure on the spill/rotation path, surfaced (exactly
    /// once) at the next flush/sync. Frames keep buffering after a failure
    /// — the buffer drains incrementally on the next successful flush, so
    /// nothing is lost or written twice.
    pub(super) failed: Option<String>,
}

impl<P: LogKey> Journal<P> {
    pub(super) fn ephemeral(options: LogOptions) -> Self {
        Journal {
            sink: Sink::Null,
            usage: BTreeMap::new(),
            options,
            frames_since_compact: 0,
            dirty: false,
            failed: None,
        }
    }

    /// Opens (or creates) the journal in `dir`: replays the manifest's
    /// segment chain, truncates a torn tail on the active segment, and
    /// sweeps orphan files left by crashed chain mutations. A version-1
    /// directory is refused (see `refuse_legacy`), never treated as fresh.
    pub(super) fn open(
        dir: &Path,
        options: LogOptions,
    ) -> Result<(Self, RecordMap<P>), TrustError> {
        fs::create_dir_all(dir)?;
        let manifest_path = dir.join(MANIFEST_FILE);
        let mut state = Replayed::default();
        let (manifest, frames, valid_len) = if manifest_path.exists() {
            let manifest = read_manifest(&fs::read(&manifest_path)?)?;
            let mut frames = 0u64;
            let mut valid_len = HEADER_LEN;
            let last = manifest.entries.len() - 1;
            for (i, entry) in manifest.entries.iter().enumerate() {
                let data = fs::read(entry.path(dir)).map_err(|e| {
                    if e.kind() == std::io::ErrorKind::NotFound {
                        // a manifest-listed segment cannot vanish by crash
                        // (deletes happen only after the superseding
                        // manifest is durable) — its absence is corruption
                        TrustError::Corrupt {
                            what: "segment listed in manifest",
                            offset: entry.seq,
                        }
                    } else {
                        TrustError::from(e)
                    }
                })?;
                check_header(&data, KIND_SEGMENT, "segment header")?;
                if i == last {
                    // the active segment: a crash tears at most its tail
                    let (len, n) = replay_tail(&data, &mut state)?;
                    valid_len = len;
                    frames += n;
                } else {
                    // sealed/compacted segments were fsynced before the
                    // manifest listed them: strictly valid, end to end
                    let n = replay_strict(&data, &mut state)?;
                    if entry.kind == SegmentKind::Raw {
                        frames += n;
                    }
                }
            }
            (manifest, frames, valid_len)
        } else {
            refuse_legacy(dir)?;
            let manifest = Manifest {
                entries: vec![SegmentEntry { seq: 1, kind: SegmentKind::Raw }],
                next_seq: 2,
            };
            create_segment(&manifest.entries[0].path(dir), KIND_SEGMENT, &[])?;
            sync_dir(dir)?;
            write_manifest(dir, &manifest)?;
            (manifest, 0, HEADER_LEN)
        };
        // drop the active segment's torn tail so appends continue from a
        // valid frame
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(dir.join(segment_file_name(manifest.active_seq())))?;
        file.set_len(valid_len as u64)?;
        file.seek(SeekFrom::End(0))?;
        remove_orphans(dir, &manifest);
        let journal = Journal {
            sink: Sink::File(FileSink {
                file,
                dir: dir.to_path_buf(),
                buf: Vec::new(),
                active_bytes: valid_len as u64,
                manifest,
            }),
            usage: state.usage,
            options,
            frames_since_compact: frames,
            dirty: false,
            failed: None,
        };
        Ok((journal, state.records))
    }

    pub(super) fn is_durable(&self) -> bool {
        matches!(self.sink, Sink::File(_))
    }

    pub(super) fn dir(&self) -> Option<&Path> {
        match &self.sink {
            Sink::File(f) => Some(&f.dir),
            Sink::Null => None,
        }
    }

    /// How many compacted segments lead the chain (0 when ephemeral).
    pub(super) fn compacted_segments(&self) -> usize {
        match &self.sink {
            Sink::File(f) => f.manifest.compacted_len(),
            Sink::Null => 0,
        }
    }

    /// Number of segments in the committed chain (0 when ephemeral).
    pub(super) fn segments(&self) -> usize {
        match &self.sink {
            Sink::File(f) => f.manifest.entries.len(),
            Sink::Null => 0,
        }
    }

    pub(super) fn fail(&mut self, msg: String) {
        self.failed = Some(msg);
    }

    /// Appends pre-encoded frame bytes (the batch path encodes a whole
    /// slate first). Frames buffer even after a spill failure — the buffer
    /// drains incrementally once the disk recovers, so a transient error
    /// loses and duplicates nothing.
    pub(super) fn append_encoded(&mut self, bytes: &[u8], frames: u64) {
        self.frames_since_compact += frames;
        let spill = match &mut self.sink {
            Sink::Null => false,
            Sink::File(f) => {
                f.buf.extend_from_slice(bytes);
                self.dirty = true;
                self.failed.is_none()
                    && (f.buf.len() >= BUFFER_SPILL
                        || f.active_bytes + f.buf.len() as u64 >= self.options.segment_bytes)
            }
        };
        if spill {
            if let Err(e) = self.drain(self.options.fsync) {
                self.fail(e.to_string());
            } else {
                self.maybe_rotate();
            }
        }
    }

    pub(super) fn append(&mut self, frame: &Frame<P>) {
        match &mut self.sink {
            Sink::Null => self.frames_since_compact += 1,
            Sink::File(_) => {
                let mut bytes = Vec::with_capacity(64);
                encode_frame(&mut bytes, frame);
                self.append_encoded(&bytes, 1);
            }
        }
    }

    pub(super) fn append_record(&mut self, peer: P, task: TaskId, rec: TrustRecord) {
        self.append(&Frame::PutRecord { peer, task, rec });
    }

    /// Journals `peer`'s post-append usage log, skipping the frame when the
    /// state is already journaled (makes re-journaling sweeps cheap).
    pub(super) fn note_usage(&mut self, peer: P, log: UsageLog) {
        if self.usage.get(&peer) == Some(&log) {
            return;
        }
        self.usage.insert(peer, log);
        self.append(&Frame::PutUsage { peer, log });
    }

    /// Writes the buffer down to the active segment, fsyncing per
    /// `policy`, and keeps `active_bytes`/`dirty` truthful even across
    /// partial writes.
    fn drain(&mut self, policy: FsyncPolicy) -> std::io::Result<()> {
        if let Sink::File(f) = &mut self.sink {
            let (written, res) = write_out(&mut f.file, &mut f.buf, policy);
            f.active_bytes += written;
            res?;
            if policy != FsyncPolicy::Never {
                self.dirty = false;
            }
        }
        Ok(())
    }

    /// Rotates the active segment when it crossed the size threshold.
    /// Failures are sticky, never fatal: appends continue into the
    /// oversized segment and rotation retries at the next drain.
    fn maybe_rotate(&mut self) {
        if self.failed.is_some() {
            return;
        }
        let threshold = self.options.segment_bytes;
        if let Sink::File(f) = &mut self.sink {
            if f.buf.is_empty() && f.active_bytes >= threshold {
                if let Err(e) = rotate(f) {
                    self.failed = Some(e.to_string());
                }
            }
        }
    }

    /// Pushes buffered frames to the OS (fsync per policy). A success
    /// clears any earlier spill failure (the buffer has fully drained); a
    /// failure is recorded and returned — retrying after the disk recovers
    /// resumes exactly where the write stopped.
    pub(super) fn flush(&mut self) -> Result<(), TrustError> {
        self.flush_with(self.options.fsync)
    }

    /// [`Self::flush`] with the fsync forced regardless of policy.
    pub(super) fn sync(&mut self) -> Result<(), TrustError> {
        self.flush_with(FsyncPolicy::Always)
    }

    pub(super) fn flush_with(&mut self, policy: FsyncPolicy) -> Result<(), TrustError> {
        match self.drain(policy) {
            Ok(()) => {
                self.maybe_rotate();
                // surface a recorded append/rotation failure exactly once,
                // even though the buffer has since drained cleanly
                match self.failed.take() {
                    Some(msg) => Err(TrustError::Io(msg)),
                    None => Ok(()),
                }
            }
            Err(e) => {
                let msg = e.to_string();
                self.fail(msg.clone());
                Err(TrustError::Io(msg))
            }
        }
    }

    /// The group-commit barrier: under [`FsyncPolicy::Always`], drains the
    /// buffer and issues the one `sync_all` covering every frame appended
    /// since the last barrier — the call a write batch makes *before* its
    /// receipts are released, so an acked receipt is a durable receipt.
    /// A no-op under the other policies (their contract defers durability
    /// to flush time) and when nothing new was appended, so stacked
    /// barriers are free.
    ///
    /// Reports — but does not consume — a sticky I/O failure:
    /// [`Self::flush`]/[`Self::sync`] remain the surface-once point.
    pub(super) fn commit_barrier(&mut self) -> Result<(), TrustError> {
        if self.options.fsync != FsyncPolicy::Always {
            return Ok(());
        }
        if self.dirty && self.failed.is_none() {
            if let Err(e) = self.drain(FsyncPolicy::Always) {
                self.fail(e.to_string());
            } else {
                self.maybe_rotate();
            }
        }
        match &self.failed {
            Some(msg) => Err(TrustError::Io(msg.clone())),
            None => Ok(()),
        }
    }

    /// Writes the full state (`records` + the journal's usage logs) as one
    /// compacted segment and swaps the manifest to `[compacted, active]` —
    /// the chain-resetting full form. Buffered frames are superseded by
    /// the snapshot and dropped once the swap is durable. A crash anywhere
    /// recovers cleanly: before the manifest rename the old chain wins
    /// (the half-written new segments are orphans, swept on open); after
    /// it, the new chain wins and the old segments are the orphans.
    pub(super) fn compact_from(
        &mut self,
        records: impl Iterator<Item = (P, TaskId, TrustRecord)>,
    ) -> Result<(), TrustError> {
        if let Sink::File(f) = &mut self.sink {
            let mut body = Vec::new();
            for (peer, task, rec) in records {
                encode_frame(&mut body, &Frame::PutRecord { peer, task, rec });
            }
            for (&peer, &log) in &self.usage {
                encode_frame(&mut body, &Frame::PutUsage { peer, log });
            }
            swap_chain(f, body, f.manifest.next_seq, Vec::new(), |old| old.entries.clone())?;
        }
        self.dirty = false;
        self.frames_since_compact = 0;
        self.failed = None; // the snapshot superseded any unflushed bytes
        Ok(())
    }

    /// Incremental compaction: folds the **churn window** — every raw
    /// segment in the chain plus the unwritten buffer — into one new
    /// compacted segment appended after the existing compacted prefix,
    /// then deletes the raw segments it superseded. Cost is proportional
    /// to churn, not to total state size.
    ///
    /// Returns [`ChurnCompact::NeedsFull`] (without touching the chain)
    /// when the window holds a `clear` frame: an appended snapshot cannot
    /// express "records dropped", so the caller — which owns the full
    /// state — must run [`Self::compact_from`].
    pub(super) fn compact_churned(&mut self) -> Result<ChurnCompact, TrustError> {
        let Sink::File(f) = &mut self.sink else {
            self.frames_since_compact = 0;
            return Ok(ChurnCompact::Done);
        };
        let mut window = Replayed::<P>::default();
        let active_seq = f.manifest.active_seq();
        for entry in f.manifest.entries.iter().filter(|e| e.kind == SegmentKind::Raw) {
            let mut data = fs::read(entry.path(&f.dir))?;
            if entry.seq == active_seq {
                // the churn window ends exactly at what we wrote: the
                // drained prefix on disk plus the still-buffered suffix
                data.truncate(f.active_bytes as usize);
                data.extend_from_slice(&f.buf);
            }
            check_header(&data, KIND_SEGMENT, "segment header")?;
            replay_strict(&data, &mut window)?;
        }
        if window.saw_clear {
            return Ok(ChurnCompact::NeedsFull);
        }
        let mut body = Vec::new();
        for (&(peer, task), &rec) in &window.records {
            encode_frame(&mut body, &Frame::PutRecord { peer, task, rec });
        }
        for (&peer, &log) in &window.usage {
            encode_frame(&mut body, &Frame::PutUsage { peer, log });
        }
        let keep: Vec<SegmentEntry> = f
            .manifest
            .entries
            .iter()
            .copied()
            .filter(|e| e.kind == SegmentKind::Compacted)
            .collect();
        swap_chain(f, body, f.manifest.next_seq, keep, |old| {
            old.entries.iter().copied().filter(|e| e.kind == SegmentKind::Raw).collect()
        })?;
        self.dirty = false;
        self.frames_since_compact = 0;
        self.failed = None; // the window covered any unflushed bytes
        Ok(ChurnCompact::Done)
    }
}

/// Shared chain-swap tail of both compaction forms: writes `body` as
/// compacted segment `cseq`, creates a fresh active segment `cseq + 1`,
/// durably swaps the manifest to `keep + [compacted, active]`, and only
/// then (point of no return) deletes the superseded files `obsolete(old)`
/// and installs the new handle.
fn swap_chain(
    f: &mut FileSink,
    body: Vec<u8>,
    cseq: u64,
    mut keep: Vec<SegmentEntry>,
    obsolete: impl FnOnce(&Manifest) -> Vec<SegmentEntry>,
) -> Result<(), TrustError> {
    let aseq = cseq + 1;
    create_segment(&f.dir.join(segment_file_name(cseq)), KIND_SEGMENT, &body)?;
    let new_active = create_segment(&f.dir.join(segment_file_name(aseq)), KIND_SEGMENT, &[])?;
    sync_dir(&f.dir)?;
    keep.push(SegmentEntry { seq: cseq, kind: SegmentKind::Compacted });
    keep.push(SegmentEntry { seq: aseq, kind: SegmentKind::Raw });
    let manifest = Manifest { entries: keep, next_seq: aseq + 1 };
    write_manifest(&f.dir, &manifest)?;
    let old = std::mem::replace(&mut f.manifest, manifest);
    for entry in obsolete(&old) {
        let _ = fs::remove_file(entry.path(&f.dir));
    }
    f.file = new_active;
    f.active_bytes = HEADER_LEN as u64;
    f.buf.clear();
    Ok(())
}

/// Seals the active segment and swaps the manifest to a chain ending in a
/// fresh one. Everything here is made durable regardless of the fsync
/// policy — the outgoing segment becomes a mid-chain file, whose "strictly
/// valid" recovery contract only holds because this seal fsynced it.
fn rotate(f: &mut FileSink) -> std::io::Result<()> {
    debug_assert!(f.buf.is_empty(), "rotation follows a full drain");
    f.file.sync_all()?;
    let seq = f.manifest.next_seq;
    let new_file = create_segment(&f.dir.join(segment_file_name(seq)), KIND_SEGMENT, &[])?;
    sync_dir(&f.dir)?;
    let mut manifest = f.manifest.clone();
    manifest.entries.push(SegmentEntry { seq, kind: SegmentKind::Raw });
    manifest.next_seq = seq + 1;
    write_manifest(&f.dir, &manifest)?;
    f.manifest = manifest;
    f.file = new_file;
    f.active_bytes = HEADER_LEN as u64;
    Ok(())
}

/// Drains `buf` into `file` and fsyncs per `policy` (`sync_all`: appends
/// grow the file, so size metadata must be durable too — `sync_data` once
/// let `Always`-acked frames vanish as a torn tail). Written bytes are
/// consumed from the buffer incrementally and reported even on failure,
/// so `active_bytes` stays truthful and a retry resumes without
/// duplicating or dropping anything.
fn write_out(
    file: &mut File,
    buf: &mut Vec<u8>,
    policy: FsyncPolicy,
) -> (u64, std::io::Result<()>) {
    use std::io::Write;
    let mut written = 0u64;
    while !buf.is_empty() {
        match file.write(buf) {
            Ok(0) => {
                let e = std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "log append wrote zero bytes",
                );
                return (written, Err(e));
            }
            Ok(n) => {
                buf.drain(..n);
                written += n as u64;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return (written, Err(e)),
        }
    }
    if policy != FsyncPolicy::Never {
        if let Err(e) = file.sync_all() {
            return (written, Err(e));
        }
    }
    (written, Ok(()))
}

/// Sweeps files a crashed chain mutation left behind: segment files the
/// manifest does not list and the manifest temp file. Best-effort — an
/// orphan is garbage by construction, never state.
fn remove_orphans(dir: &Path, manifest: &Manifest) {
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let listed = manifest.entries.iter().any(|e| segment_file_name(e.seq) == name);
            let orphan_segment = name.starts_with("seg-") && name.ends_with(".log") && !listed;
            if orphan_segment || name == MANIFEST_TMP {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

/// Refuses a version-1 directory — `trust.log` / `trust.snap` and no
/// manifest. This build neither reads nor migrates that format, and
/// starting a fresh chain beside the old files would silently shadow the
/// state they hold, so open fails typed and leaves them untouched. A file
/// under a v1 name that lacks the header magic is reported as corrupt.
fn refuse_legacy(dir: &Path) -> Result<(), TrustError> {
    for (name, what) in [(LOG_FILE, "log header"), (SNAP_FILE, "snapshot header")] {
        let path = dir.join(name);
        if path.exists() {
            let data = fs::read(&path)?;
            if data.len() < HEADER_LEN || &data[..4] != b"SIOT" {
                return Err(TrustError::Corrupt { what, offset: 0 });
            }
            return Err(TrustError::UnsupportedFormat { found: data[5], expected: FORMAT_VERSION });
        }
    }
    Ok(())
}

impl<P: LogKey> Drop for Journal<P> {
    fn drop(&mut self) {
        // best effort: committed sessions survive a plain drop without an
        // explicit flush; errors here have nowhere to go
        let _ = self.flush_with(self.options.fsync);
    }
}

impl<P: LogKey> Clone for Journal<P> {
    /// Clones detach from the file: the clone keeps the recovered usage
    /// state but journals into a [`Sink::Null`], so it never competes for
    /// the original's segment chain.
    fn clone(&self) -> Self {
        Journal {
            sink: Sink::Null,
            usage: self.usage.clone(),
            options: self.options,
            frames_since_compact: 0,
            dirty: false,
            // a detached clone journals nowhere: the original's pending
            // I/O failure is not its problem
            failed: None,
        }
    }
}

impl<P: LogKey> fmt::Debug for Journal<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("dir", &self.dir())
            .field("segments", &self.segments())
            .field("usage_logs", &self.usage.len())
            .field("frames_since_compact", &self.frames_since_compact)
            .field("failed", &self.failed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "siot-journal-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn rec(s: f64) -> TrustRecord {
        TrustRecord::with_priors(s, 0.5, 0.25, 0.125)
    }

    fn opts() -> LogOptions {
        LogOptions { fsync: FsyncPolicy::Never, compact_every: 0, ..LogOptions::default() }
    }

    /// Regression for the v1 `u16` wrapping generation stamp: after 65 536
    /// compactions a stale v1 log could collide with a current snapshot's
    /// generation and silently replay stale frames. The manifest's `u64`
    /// sequence numbers must sail straight through that boundary — chains
    /// whose sequence numbers cross 65 536 still recover exactly.
    #[test]
    fn segment_sequences_survive_the_u16_wrap_boundary() {
        let dir = tmpdir("wrap");
        {
            let (mut j, _) = Journal::<u32>::open(&dir, opts()).expect("fresh dir");
            // fast-forward the allocator to just under the old u16 wrap
            if let Sink::File(f) = &mut j.sink {
                f.manifest.next_seq = u64::from(u16::MAX) - 1;
            }
            j.append_record(1, TaskId(0), rec(0.125));
            // each compaction consumes two sequence numbers; three of them
            // cross the 65 536 boundary the v1 stamp wrapped at
            for round in 0..3u32 {
                j.append_record(round, TaskId(1), rec(0.5));
                j.compact_from(
                    [(1u32, TaskId(0), rec(0.125)), (round, TaskId(1), rec(0.5))].into_iter(),
                )
                .expect("compaction succeeds");
            }
            j.append_record(7, TaskId(2), rec(0.75));
            j.flush().expect("flush succeeds");
            if let Sink::File(f) = &j.sink {
                assert!(
                    f.manifest.next_seq > u64::from(u16::MAX),
                    "the chain crossed the wrap boundary ({})",
                    f.manifest.next_seq
                );
            }
        }
        let (j, records) = Journal::<u32>::open(&dir, opts()).expect("reopen");
        assert_eq!(records.get(&(1, TaskId(0))), Some(&rec(0.125)));
        assert_eq!(records.get(&(2, TaskId(1))), Some(&rec(0.5)), "post-wrap frames replay");
        assert_eq!(records.get(&(7, TaskId(2))), Some(&rec(0.75)), "post-wrap tail replays");
        drop(j);
        fs::remove_dir_all(&dir).expect("scratch removable");
    }

    /// Stacked barriers fsync once: the second barrier sees a clean buffer
    /// and skips the syscall (pinned via the dirty flag, which is all the
    /// barrier consults).
    #[test]
    fn barrier_is_idempotent_until_new_appends() {
        let dir = tmpdir("barrier");
        let options = LogOptions { fsync: FsyncPolicy::Always, ..LogOptions::default() };
        let (mut j, _) = Journal::<u32>::open(&dir, options).expect("fresh dir");
        j.append_record(1, TaskId(0), rec(0.5));
        assert!(j.dirty);
        j.commit_barrier().expect("barrier succeeds");
        assert!(!j.dirty, "barrier drained and synced");
        j.commit_barrier().expect("stacked barrier is a no-op");
        assert!(!j.dirty);
        j.append_record(2, TaskId(0), rec(0.25));
        assert!(j.dirty, "new appends re-arm the barrier");
        drop(j);
        fs::remove_dir_all(&dir).expect("scratch removable");
    }

    /// Under `Always`, appends buffer until the barrier — one fsync per
    /// batch, not per frame — and everything acked by a barrier is on
    /// disk: reopening recovers exactly the barriered frames.
    #[test]
    fn barriered_frames_recover_exactly() {
        let dir = tmpdir("barrier-recover");
        let options = LogOptions { fsync: FsyncPolicy::Always, ..LogOptions::default() };
        {
            let (mut j, _) = Journal::<u32>::open(&dir, options).expect("fresh dir");
            for i in 0..100u32 {
                j.append_record(i, TaskId(0), rec(0.5));
            }
            j.commit_barrier().expect("barrier succeeds");
            // no flush, no clean drop path needed: the barrier synced
            std::mem::forget(j);
        }
        let (j, records) = Journal::<u32>::open(&dir, options).expect("reopen");
        assert_eq!(records.len(), 100, "every barriered frame recovered");
        drop(j);
        fs::remove_dir_all(&dir).expect("scratch removable");
    }
}
