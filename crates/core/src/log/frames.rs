//! The record/usage/clear frame codec shared by raw and compacted
//! segments, plus the replay accumulator.

use super::{LogKey, MAX_FRAME_LEN};
use crate::framing::{self, RawFrame};
use crate::mutuality::UsageLog;
use crate::record::TrustRecord;
use crate::task::TaskId;
use std::collections::BTreeMap;

pub(crate) enum Frame<P> {
    PutRecord { peer: P, task: TaskId, rec: TrustRecord },
    PutUsage { peer: P, log: UsageLog },
    ClearRecords,
}

const KIND_PUT_RECORD: u8 = 1;
const KIND_PUT_USAGE: u8 = 2;
const KIND_CLEAR: u8 = 3;

pub(crate) fn encode_frame<P: LogKey>(out: &mut Vec<u8>, frame: &Frame<P>) {
    let start = framing::begin_frame(out);
    match *frame {
        Frame::PutRecord { peer, task, rec } => {
            out.push(KIND_PUT_RECORD);
            out.extend_from_slice(&peer.to_log_u64().to_le_bytes());
            out.extend_from_slice(&task.0.to_le_bytes());
            for v in [rec.s_hat, rec.g_hat, rec.d_hat, rec.c_hat] {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            out.extend_from_slice(&rec.interactions.to_le_bytes());
        }
        Frame::PutUsage { peer, log } => {
            out.push(KIND_PUT_USAGE);
            out.extend_from_slice(&peer.to_log_u64().to_le_bytes());
            out.extend_from_slice(&log.responsive.to_le_bytes());
            out.extend_from_slice(&log.abusive.to_le_bytes());
        }
        Frame::ClearRecords => out.push(KIND_CLEAR),
    }
    framing::end_frame(out, start);
}

fn read_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("bounds checked by caller"))
}

pub(crate) fn decode_frame<P: LogKey>(payload: &[u8]) -> Option<Frame<P>> {
    match *payload.first()? {
        KIND_PUT_RECORD if payload.len() == 53 => Some(Frame::PutRecord {
            peer: P::from_log_u64(read_u64(payload, 1)),
            task: TaskId(u32::from_le_bytes(payload[9..13].try_into().ok()?)),
            rec: TrustRecord {
                s_hat: f64::from_bits(read_u64(payload, 13)),
                g_hat: f64::from_bits(read_u64(payload, 21)),
                d_hat: f64::from_bits(read_u64(payload, 29)),
                c_hat: f64::from_bits(read_u64(payload, 37)),
                interactions: read_u64(payload, 45),
            },
        }),
        KIND_PUT_USAGE if payload.len() == 25 => Some(Frame::PutUsage {
            peer: P::from_log_u64(read_u64(payload, 1)),
            log: UsageLog { responsive: read_u64(payload, 9), abusive: read_u64(payload, 17) },
        }),
        KIND_CLEAR if payload.len() == 1 => Some(Frame::ClearRecords),
        _ => None,
    }
}

pub(crate) enum FrameRead<P> {
    /// A valid frame and the offset of the next one.
    Frame(Frame<P>, usize),
    /// Clean end of data (exactly at a frame boundary).
    End,
    /// Torn, checksum-failing, or unparseable bytes at this offset.
    Invalid,
}

pub(crate) fn read_frame<P: LogKey>(data: &[u8], off: usize) -> FrameRead<P> {
    match framing::read_frame(data, off, MAX_FRAME_LEN) {
        RawFrame::End => FrameRead::End,
        RawFrame::Invalid => FrameRead::Invalid,
        RawFrame::Frame { payload, next } => match decode_frame(payload) {
            Some(frame) => FrameRead::Frame(frame, next),
            None => FrameRead::Invalid,
        },
    }
}

/// Whether a well-formed frame (checksum-valid and decodable) exists
/// anywhere after the invalid bytes at `off` — the torn-tail vs.
/// mid-log-corruption test, with the payload decoder as the validity
/// check on top of the shared framing scan.
pub(crate) fn followed_by_valid_frame<P: LogKey>(data: &[u8], off: usize) -> bool {
    framing::followed_by_valid_frame(data, off, MAX_FRAME_LEN, |payload| {
        decode_frame::<P>(payload).is_some()
    })
}

/// The recovered record map, keyed like the ordered backends.
pub(crate) type RecordMap<P> = BTreeMap<(P, TaskId), TrustRecord>;

/// Replay accumulator: absolute frames land latest-wins.
pub(crate) struct Replayed<P> {
    pub(crate) records: RecordMap<P>,
    pub(crate) usage: BTreeMap<P, UsageLog>,
    /// Whether a clear frame was replayed — incremental compaction cannot
    /// represent "records dropped" as an appended snapshot, so a clear in
    /// the churn window forces the full form.
    pub(crate) saw_clear: bool,
}

impl<P> Default for Replayed<P> {
    fn default() -> Self {
        Replayed { records: BTreeMap::new(), usage: BTreeMap::new(), saw_clear: false }
    }
}

impl<P: LogKey> Replayed<P> {
    pub(crate) fn apply(&mut self, frame: Frame<P>) {
        match frame {
            Frame::PutRecord { peer, task, rec } => {
                self.records.insert((peer, task), rec);
            }
            Frame::PutUsage { peer, log } => {
                self.usage.insert(peer, log);
            }
            Frame::ClearRecords => {
                self.records.clear();
                self.saw_clear = true;
            }
        }
    }
}
