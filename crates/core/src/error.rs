//! Error type for the trust model.

use std::fmt;

/// Errors surfaced by trust-model operations.
#[derive(Debug, Clone, PartialEq)]
pub enum TrustError {
    /// A value that must lie in `[0, 1]` (rates, probabilities,
    /// trustworthiness inputs) was outside it.
    OutOfUnitRange {
        /// Name of the offending quantity.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// An environment indicator outside `(0, 1]` (Eq. 29 divides by it).
    BadEnvironment(f64),
    /// A task was built without characteristics.
    EmptyTask,
    /// Characteristic weights must be positive.
    NonPositiveWeight(f64),
    /// Inference failed: the new task has characteristics never experienced.
    UncoveredCharacteristics {
        /// How many characteristics had no covering experience.
        missing: usize,
    },
    /// A service actor thread panicked: joining it in
    /// [`TrustService::shutdown`](crate::service::TrustService::shutdown) /
    /// [`ShardedTrustService::shutdown`](crate::service::ShardedTrustService::shutdown)
    /// found no engine to hand back. Observations are validated before they
    /// reach the actor, so this signals a bug in the fold path (or a
    /// panicking backend), not bad input; the drain it was folding may be
    /// partially applied.
    WorkerPanicked,
    /// A persisted trust-state file failed integrity validation at a point
    /// recovery must not skip: a *non-tail* log frame with a bad checksum,
    /// or any damage inside a snapshot (snapshots are written atomically,
    /// so a torn snapshot is real corruption, not a crash artifact). A torn
    /// *tail* frame is recovered from silently — see
    /// [`LogBackend`](crate::log_backend::LogBackend).
    Corrupt {
        /// What failed validation (e.g. `"log frame checksum"`).
        what: &'static str,
        /// Byte offset of the offending frame within its file.
        offset: u64,
    },
    /// A persisted trust-state file carries a format version this build
    /// does not read. Bump-and-migrate is deliberate: the on-disk format
    /// is pinned by a golden-file test.
    UnsupportedFormat {
        /// The version byte found in the file header.
        found: u8,
        /// The version this build reads.
        expected: u8,
    },
    /// An I/O failure underneath a durable backend (open, append, flush,
    /// fsync, compaction). Carries the rendered `std::io::Error`.
    Io(String),
    /// The [`TrustService`](crate::service::TrustService) actor behind a
    /// handle is gone: it was shut down (or its thread exited) before the
    /// request could be served. Work acked before the shutdown is safe;
    /// this request was not accepted.
    ServiceStopped,
    /// A deadline elapsed before the operation completed: a remote
    /// connect/handshake that never answered, or a fleet request whose
    /// per-request deadline expired. The operation may or may not have
    /// taken effect remotely — retried commits are safe only through the
    /// fleet's idempotent (session, sequence)-tagged path.
    TimedOut,
    /// A fleet node could not be reached: its connection is down and
    /// reconnection is failing (or in backoff). Only the key range routed
    /// to this node is affected — requests routed to other nodes keep
    /// succeeding, and broadcasts report the node as missing instead.
    NodeUnavailable {
        /// The unreachable node's address, as configured in the fleet.
        addr: String,
    },
}

impl From<std::io::Error> for TrustError {
    fn from(e: std::io::Error) -> Self {
        TrustError::Io(e.to_string())
    }
}

impl fmt::Display for TrustError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrustError::OutOfUnitRange { what, value } => {
                write!(f, "{what} = {value} outside [0, 1]")
            }
            TrustError::BadEnvironment(e) => {
                write!(f, "environment indicator {e} outside (0, 1]")
            }
            TrustError::EmptyTask => write!(f, "a task needs at least one characteristic"),
            TrustError::NonPositiveWeight(w) => {
                write!(f, "characteristic weight {w} must be positive")
            }
            TrustError::UncoveredCharacteristics { missing } => {
                write!(f, "{missing} characteristic(s) not covered by any experienced task")
            }
            TrustError::WorkerPanicked => {
                write!(
                    f,
                    "a trust-service actor thread panicked (its last drain may be partially folded)"
                )
            }
            TrustError::Corrupt { what, offset } => {
                write!(f, "persisted trust state corrupt: {what} at byte offset {offset}")
            }
            TrustError::UnsupportedFormat { found, expected } => {
                write!(f, "trust-state file format version {found} (this build reads {expected})")
            }
            TrustError::Io(msg) => write!(f, "trust-state I/O failure: {msg}"),
            TrustError::ServiceStopped => {
                write!(f, "trust service stopped before the request could be served")
            }
            TrustError::TimedOut => {
                write!(f, "deadline elapsed before the operation completed (timed out)")
            }
            TrustError::NodeUnavailable { addr } => {
                write!(f, "fleet node {addr} unavailable (connection down, reconnect failing)")
            }
        }
    }
}

impl std::error::Error for TrustError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = TrustError::OutOfUnitRange { what: "success_rate", value: 1.5 };
        assert!(e.to_string().contains("success_rate"));
        assert!(TrustError::BadEnvironment(0.0).to_string().contains("(0, 1]"));
        assert!(TrustError::EmptyTask.to_string().contains("characteristic"));
        assert!(TrustError::NonPositiveWeight(-1.0).to_string().contains("-1"));
        assert!(TrustError::UncoveredCharacteristics { missing: 2 }.to_string().contains('2'));
        assert!(TrustError::WorkerPanicked.to_string().contains("panicked"));
        let c = TrustError::Corrupt { what: "log frame checksum", offset: 40 };
        assert!(c.to_string().contains("checksum") && c.to_string().contains("40"));
        let v = TrustError::UnsupportedFormat { found: 9, expected: 1 };
        assert!(v.to_string().contains('9') && v.to_string().contains('1'));
        assert!(TrustError::Io("disk full".into()).to_string().contains("disk full"));
        assert!(TrustError::ServiceStopped.to_string().contains("service stopped"));
        assert!(TrustError::TimedOut.to_string().contains("timed out"));
        let n = TrustError::NodeUnavailable { addr: "10.0.0.7:4000".into() };
        assert!(n.to_string().contains("10.0.0.7:4000") && n.to_string().contains("unavailable"));
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        assert!(matches!(TrustError::from(io), TrustError::Io(msg) if msg.contains("gone")));
    }
}
