//! Cluster runtime errors.

use crate::transport::Addr;
use saps_core::ConfigError;
use saps_proto::ProtoError;

/// Everything that can go wrong driving a cluster run.
#[derive(Debug)]
pub enum ClusterError {
    /// A frame failed to decode (corruption on the wire).
    Proto(ProtoError),
    /// A control request was rejected (e.g. churn below the minimum
    /// fleet) — carries the same [`ConfigError`] the in-memory trainer
    /// would have returned.
    Config(ConfigError),
    /// The transport failed to move bytes (socket errors, unknown
    /// destination).
    Transport(String),
    /// A node received a message the protocol does not allow in its
    /// current state.
    Protocol(String),
    /// The wire went silent: `at` waited the whole stall limit for a
    /// frame of round `round` that never arrived (dropped, or its
    /// sender is gone). A typed error after a bounded wait, never a
    /// hang.
    Stalled {
        /// Where the awaited frame should have arrived.
        at: Addr,
        /// The round in progress.
        round: u64,
    },
    /// A worker sent provably invalid traffic — a frame that fails to
    /// decode, or a payload of a shape the receiver did not ask for
    /// (its checksum passed, so it is what the sender framed). The
    /// SAPS-PSGD trainer quarantines the rank and replays the round
    /// without it; this variant surfaces when that recovery itself is
    /// impossible (e.g. the fleet would drop below the minimum), and
    /// from the baselines, which do not recover.
    Byzantine {
        /// The offending worker's rank.
        rank: u32,
        /// What the worker sent.
        detail: String,
    },
    /// A joiner's model catch-up could not complete: every serving peer
    /// was tried (the preferred donor first, then each fallback in the
    /// bandwidth ranking) and the download still died — sources
    /// disconnected, served only corrupt chunks, or exhausted the
    /// chunk retry budget.
    ResyncFailed {
        /// The donor originally selected for the joiner.
        donor: u32,
        /// The joiner that failed to catch up.
        rank: u32,
        /// Why the final attempt died.
        detail: String,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Proto(e) => write!(f, "wire decode error: {e}"),
            ClusterError::Config(e) => write!(f, "control request rejected: {e}"),
            ClusterError::Transport(e) => write!(f, "transport error: {e}"),
            ClusterError::Protocol(e) => write!(f, "protocol violation: {e}"),
            ClusterError::Stalled { at, round } => write!(
                f,
                "protocol violation: transport quiescent waiting for a frame at {at} \
                 (round {round})"
            ),
            ClusterError::Byzantine { rank, detail } => {
                write!(f, "byzantine worker {rank}: {detail}")
            }
            ClusterError::ResyncFailed {
                donor,
                rank,
                detail,
            } => {
                write!(
                    f,
                    "resync of joiner {rank} failed (donor {donor}): {detail}"
                )
            }
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<ProtoError> for ClusterError {
    fn from(e: ProtoError) -> Self {
        ClusterError::Proto(e)
    }
}

impl From<ConfigError> for ClusterError {
    fn from(e: ConfigError) -> Self {
        ClusterError::Config(e)
    }
}
