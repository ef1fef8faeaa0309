//! The manifest: one atomically-swapped file naming the segment chain.
//!
//! The manifest is the durable truth about which segments constitute the
//! state and in what order they replay. Every chain mutation — rotation,
//! compaction — writes a new manifest to a temp file, fsyncs it, renames
//! it into place and fsyncs the directory; a crash on
//! either side of the rename leaves a complete old or complete new chain,
//! never a mix. Segment sequence numbers are `u64` and never reused, so a
//! file from a superseded chain can never be mistaken for current state.

use super::segment::{check_header, header, sync_dir};
use super::{segment_file_name, KIND_MANIFEST, MANIFEST_FILE, MANIFEST_TMP, MAX_FRAME_LEN};
use crate::error::TrustError;
use crate::framing::{self, RawFrame};
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

/// What a chain entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SegmentKind {
    /// Snapshot state written by a compaction: strictly valid, replayed
    /// in full.
    Compacted,
    /// Live appends: sealed raw segments are strictly valid; the last raw
    /// segment is the active one and tolerates a torn tail.
    Raw,
}

/// One segment in the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SegmentEntry {
    pub(crate) seq: u64,
    pub(crate) kind: SegmentKind,
}

impl SegmentEntry {
    pub(crate) fn path(&self, dir: &Path) -> PathBuf {
        dir.join(segment_file_name(self.seq))
    }
}

/// The decoded manifest: the chain in replay order plus the next segment
/// sequence number to allocate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Manifest {
    pub(crate) entries: Vec<SegmentEntry>,
    pub(crate) next_seq: u64,
}

impl Manifest {
    /// Sequence number of the active (last) segment.
    pub(crate) fn active_seq(&self) -> u64 {
        self.entries.last().expect("validated: chains are non-empty").seq
    }

    /// How many compacted segments lead the chain.
    pub(crate) fn compacted_len(&self) -> usize {
        self.entries.iter().filter(|e| e.kind == SegmentKind::Compacted).count()
    }
}

fn corrupt(offset: u64) -> TrustError {
    TrustError::Corrupt { what: "manifest", offset }
}

/// Parses and validates manifest bytes. The manifest is written atomically,
/// so *any* damage — bad frame, trailing garbage, an empty or malformed
/// chain — is real corruption, never silently treated as a fresh store.
pub(crate) fn read_manifest(data: &[u8]) -> Result<Manifest, TrustError> {
    check_header(data, KIND_MANIFEST, "manifest header")?;
    let (payload, next) = match framing::read_frame(data, super::HEADER_LEN, MAX_FRAME_LEN) {
        RawFrame::Frame { payload, next } => (payload, next),
        _ => return Err(corrupt(super::HEADER_LEN as u64)),
    };
    if next != data.len() {
        return Err(corrupt(next as u64)); // trailing bytes after the chain frame
    }
    if payload.len() < 12 {
        return Err(corrupt(super::HEADER_LEN as u64));
    }
    let next_seq = u64::from_le_bytes(payload[..8].try_into().expect("length checked"));
    let count = u32::from_le_bytes(payload[8..12].try_into().expect("length checked")) as usize;
    if payload.len() != 12 + count * 9 || count == 0 {
        return Err(corrupt(super::HEADER_LEN as u64));
    }
    let mut entries = Vec::with_capacity(count);
    let mut seen_raw = false;
    for i in 0..count {
        let at = 12 + i * 9;
        let seq = u64::from_le_bytes(payload[at..at + 8].try_into().expect("length checked"));
        let kind = match payload[at + 8] {
            0 => SegmentKind::Compacted,
            1 => SegmentKind::Raw,
            _ => return Err(corrupt((at + 8) as u64)),
        };
        // the writer's invariant, enforced on read: compacted segments
        // lead, raw segments trail, the chain ends raw (the active
        // segment), and sequence numbers stay below next_seq
        if kind == SegmentKind::Compacted && seen_raw {
            return Err(corrupt(at as u64));
        }
        seen_raw |= kind == SegmentKind::Raw;
        if seq >= next_seq {
            return Err(corrupt(at as u64));
        }
        entries.push(SegmentEntry { seq, kind });
    }
    if !seen_raw {
        return Err(corrupt(super::HEADER_LEN as u64));
    }
    Ok(Manifest { entries, next_seq })
}

/// Encodes the manifest bytes (header + one checksummed chain frame).
pub(crate) fn encode_manifest(manifest: &Manifest) -> Vec<u8> {
    let mut out = header(KIND_MANIFEST).to_vec();
    let start = framing::begin_frame(&mut out);
    out.extend_from_slice(&manifest.next_seq.to_le_bytes());
    out.extend_from_slice(&(manifest.entries.len() as u32).to_le_bytes());
    for e in &manifest.entries {
        out.extend_from_slice(&e.seq.to_le_bytes());
        out.push(match e.kind {
            SegmentKind::Compacted => 0,
            SegmentKind::Raw => 1,
        });
    }
    framing::end_frame(&mut out, start);
    out
}

/// Atomically swaps the manifest: temp file, fsync, rename, directory
/// fsync. Always fully durable regardless of the fsync policy — chain
/// mutations are rare and recovery's correctness depends on them — and
/// every error propagates to the caller (which records it sticky).
pub(crate) fn write_manifest(dir: &Path, manifest: &Manifest) -> std::io::Result<()> {
    let tmp = dir.join(MANIFEST_TMP);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&encode_manifest(manifest))?;
        f.sync_all()?;
    }
    fs::rename(&tmp, dir.join(MANIFEST_FILE))?;
    sync_dir(dir)
}
