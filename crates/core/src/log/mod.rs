//! Durable trust state: a **segmented** append-only record log with
//! manifest-tracked chains, incremental snapshot compaction, and
//! group-commit fsync.
//!
//! Every backend before this one was in-memory, so a process restart erased
//! exactly the history the paper's trust process depends on: the
//! direct-experience records Eq. 4 inference draws from, the §4.1 mutuality
//! usage logs, and the environment-corrected expectations of §4.5. This
//! module makes that state survive — and keeps both the write path and the
//! compaction path affordable at millions of records:
//!
//! * [`LogBackend`] — a [`TrustBackend`](crate::backend::TrustBackend) whose
//!   in-memory ordered map (the
//!   same layout as [`BTreeBackend`](crate::backend::BTreeBackend), so it is
//!   bit-identical to it by construction) is mirrored into the segmented
//!   frame log. Reopening replays the segment chain and recovers the exact
//!   pre-crash state.
//!
//! Several writers reach one durable engine through the actor tier
//! ([`TrustService`](crate::service::TrustService) /
//! [`ShardedTrustService`](crate::service::ShardedTrustService)), which
//! owns the engine exclusively — the backend itself is single-writer.
//!
//! ## On-disk format (version 2)
//!
//! A backend directory holds one **manifest** and a chain of bounded
//! **segments**:
//!
//! ```text
//! trust.manifest   8-byte header + one checksummed frame: the segment chain
//! seg-00000001.log 8-byte header, then length-prefixed checksummed frames
//! seg-00000002.log …
//! ```
//!
//! Headers: `"SIOT"`, a kind byte (`'M'` manifest / `'G'` segment), the
//! format version byte, two zero bytes. A version mismatch fails open with
//! [`TrustError::UnsupportedFormat`](crate::error::TrustError::UnsupportedFormat)
//! — the format is pinned by a golden-file
//! test, so readers never silently misparse old state. Version-1
//! directories (`trust.log` + `trust.snap`, no manifest) are refused the
//! same way — `found: 1` — and left byte-for-byte untouched; they are never
//! mistaken for a fresh directory.
//!
//! The manifest lists the chain in replay order: zero or more **compacted**
//! segments (snapshot state, strictly valid end to end) followed by one or
//! more **raw** segments (live appends). The last raw segment is the
//! **active** one — the only file ever appended to, and the only one where
//! a torn tail frame is tolerated on recovery. Segment sequence numbers are
//! `u64` and never reused, so a stale file can never masquerade as current
//! state (the v1 format tracked compactions with a wrapping `u16`
//! generation, which could collide after 65 536 compactions; the manifest
//! replaces that scheme outright).
//!
//! Frame: `len: u32 LE | crc32: u32 LE | payload`, CRC-32 (IEEE) over the
//! payload — the shared [`framing`](crate::framing) codec, the same frame
//! shape [`service::remote`](crate::service::remote) speaks over TCP.
//! Payloads carry **absolute** state — the post-fold record, the
//! post-append usage log — never deltas, so replaying a frame twice is
//! harmless and double-counting on recovery is unrepresentable.
//!
//! | kind byte | payload |
//! |---|---|
//! | `1` record | peer `u64`, task `u32`, `Ŝ Ĝ D̂ Ĉ` as `f64` bits, interactions `u64` |
//! | `2` usage log | peer `u64`, responsive `u64`, abusive `u64` |
//! | `3` clear | (records dropped, usage logs kept — mirrors [`TrustBackend::clear`](crate::backend::TrustBackend::clear)) |
//!
//! ## Crash recovery
//!
//! A crash can tear at most the frame being appended to the active
//! segment, so recovery accepts the **longest checksum-valid prefix**
//! there: an incomplete or checksum-failing frame at the active tail is
//! truncated away silently. Everywhere else — sealed raw segments,
//! compacted segments, the manifest — every byte must verify: rotation and
//! compaction fsync the files *and the directory* before the manifest swap
//! commits the new chain, so damage in a non-active file cannot be a torn
//! append and surfaces as
//! [`TrustError::Corrupt`](crate::error::TrustError::Corrupt). Chain changes are
//! always made durable regardless of [`FsyncPolicy`] (they are rare —
//! every few megabytes — and recovery's torn-vs-corrupt distinction
//! depends on them); the policy governs the per-append data path.
//!
//! ## Compaction tracks churn, not state size
//!
//! Rewriting the full state image per compaction is O(total state) — fatal
//! with millions of records and a trickle of updates.
//! [`LogBackend::compact_churned`] instead replays only the chain's raw
//! segments (the frames appended since the last compaction), folds them
//! into one new compacted segment appended to the chain, and deletes the
//! raw segments it superseded: cost is proportional to **churn**. A full
//! rewrite ([`LogBackend::compact`]) still runs when the chain accumulates
//! [`MAX_COMPACTED_SEGMENTS`] incremental snapshots or a `clear` frame
//! makes the incremental form ambiguous; the `compact_every` auto-trigger
//! picks whichever applies.
//!
//! ## Group commit: acked means durable
//!
//! Under [`FsyncPolicy::Always`] the journal no longer fsyncs per appended
//! frame. Instead, write paths buffer and the **commit barrier**
//! ([`TrustBackend::commit_barrier`](crate::backend::TrustBackend::commit_barrier))
//! drains the buffer and issues one
//! `sync_all` covering everything appended since the last barrier. Every
//! engine-level write API runs a barrier before returning, so the
//! per-operation durability contract is unchanged — but a batch (a
//! [`TrustService`](crate::service::TrustService) drain, a
//! `commit_batch`, an `observe_batch`) shares **one** fsync across all its
//! frames, and the service actor acks per-caller receipts only after that
//! covering fsync returns. Under `Never`/`OnFlush` the barrier is a no-op
//! and the v1 semantics (fsync on flush/spill/drop) are preserved.
//!
//! ## Durability knobs
//!
//! [`LogOptions`] controls the [`FsyncPolicy`], `compact_every`
//! (auto-compaction after that many frames) and `segment_bytes` (rotation
//! threshold). Appends buffer in memory and spill to the OS at a fixed
//! threshold, on [`flush`](crate::backend::TrustBackend::flush), at barriers, on rotation
//! and compaction, and on drop — dropping an engine without an explicit
//! flush still persists every committed session. I/O failures on the
//! append path are sticky and surface at the next `flush`/`sync`.
//! `SIOT_FSYNC=always|onflush|never` overrides the default policy
//! process-wide (the CI knob that forces the durable ack path).

mod backends;
mod frames;
mod journal;
mod manifest;
mod segment;

pub use backends::LogBackend;

/// The on-disk format version this build writes and reads.
pub const FORMAT_VERSION: u8 = 2;

/// Manifest file name inside the backend directory.
pub const MANIFEST_FILE: &str = "trust.manifest";
pub(crate) const MANIFEST_TMP: &str = "trust.manifest.tmp";

/// Version-1 log file name (never written; its presence without a
/// manifest makes `open` refuse the directory).
pub const LOG_FILE: &str = "trust.log";
/// Version-1 snapshot file name (never written; refused like [`LOG_FILE`]).
pub const SNAP_FILE: &str = "trust.snap";

/// The file name of segment `seq` inside the backend directory.
pub fn segment_file_name(seq: u64) -> String {
    format!("seg-{seq:08}.log")
}

pub(crate) const HEADER_LEN: usize = 8;
pub(crate) const KIND_SEGMENT: u8 = b'G';
pub(crate) const KIND_MANIFEST: u8 = b'M';

/// Frames are tens of bytes; anything claiming more than this is garbage,
/// rejected before the length can drive a huge allocation.
pub(crate) const MAX_FRAME_LEN: u32 = 1 << 16;

/// Buffered frame bytes spill to the OS past this size even without an
/// explicit flush, bounding the window a crash can lose under
/// [`FsyncPolicy::OnFlush`].
pub(crate) const BUFFER_SPILL: usize = 256 * 1024;

/// Incremental compactions append a compacted segment each; past this many
/// the chain is folded into one full snapshot instead (bounds both open
/// cost and directory clutter).
pub const MAX_COMPACTED_SEGMENTS: usize = 8;

// ---------------------------------------------------------------------------
// Key serialization
// ---------------------------------------------------------------------------

/// Peer keys a durable backend can serialize: a lossless round trip through
/// `u64`. Implemented for the unsigned integers here; newtype ids (e.g. the
/// IoT crate's `DeviceId`) implement it over their inner integer.
pub trait LogKey: Copy + Ord {
    /// The key as its on-disk `u64` representation.
    fn to_log_u64(self) -> u64;
    /// Rebuilds the key from its on-disk representation. Only ever called
    /// with values a [`Self::to_log_u64`] of the same type produced (frames
    /// are checksummed), so truncating conversions are unreachable in
    /// practice.
    fn from_log_u64(raw: u64) -> Self;
}

macro_rules! impl_log_key {
    ($($t:ty),*) => {$(
        impl LogKey for $t {
            fn to_log_u64(self) -> u64 {
                self as u64
            }
            fn from_log_u64(raw: u64) -> Self {
                raw as $t
            }
        }
    )*};
}
impl_log_key!(u8, u16, u32, u64);

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

/// When the journal calls `fsync` on the active segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync the data path — buffered writes still reach the OS, so
    /// state survives a process crash, but a host crash may lose the tail.
    /// Fastest; right for benches and recomputable state. (Chain-structure
    /// changes — rotation, compaction, the manifest — are still fsynced:
    /// recovery depends on them.)
    Never,
    /// Fsync whenever buffered frames are pushed down: explicit
    /// [`flush`](crate::backend::TrustBackend::flush)/[`sync`](LogBackend::sync) calls,
    /// buffer spills, compaction, and drop. The default.
    OnFlush,
    /// Fsync before any write operation is acknowledged — via the **group
    /// commit barrier**: one `sync_all` covers every frame a batch
    /// appended, issued before the batch's receipts are released. Maximum
    /// durability at an amortized (per batch, not per frame) syscall cost.
    Always,
}

impl Default for FsyncPolicy {
    /// [`FsyncPolicy::OnFlush`], unless the `SIOT_FSYNC` environment
    /// variable (`always` / `onflush` / `never`, read once per process)
    /// overrides it — the knob CI uses to force the durable ack path
    /// through the whole test suite.
    fn default() -> Self {
        static ENV: std::sync::OnceLock<FsyncPolicy> = std::sync::OnceLock::new();
        *ENV.get_or_init(|| match std::env::var("SIOT_FSYNC") {
            Ok(v) if v.eq_ignore_ascii_case("always") => FsyncPolicy::Always,
            Ok(v) if v.eq_ignore_ascii_case("never") => FsyncPolicy::Never,
            _ => FsyncPolicy::OnFlush,
        })
    }
}

/// Construction knobs for a durable backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogOptions {
    /// When `fsync` runs (default [`FsyncPolicy::OnFlush`], overridable
    /// process-wide via `SIOT_FSYNC`).
    pub fsync: FsyncPolicy,
    /// Auto-compact once this many frames accumulate since the last
    /// compaction; `0` (the default) means compaction only happens through
    /// explicit [`LogBackend::compact`]/[`LogBackend::compact_churned`]
    /// calls. The trigger prefers the churn-proportional incremental form.
    pub compact_every: u64,
    /// Rotate the active segment once it reaches this many bytes (default
    /// [`DEFAULT_SEGMENT_BYTES`]). Bounded segments are what keep
    /// incremental compaction and recovery costs proportional to churn.
    pub segment_bytes: u64,
}

/// Default rotation threshold for the active segment (4 MiB).
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 * 1024 * 1024;

impl Default for LogOptions {
    fn default() -> Self {
        LogOptions {
            fsync: FsyncPolicy::default(),
            compact_every: 0,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
        }
    }
}
