//! Model/gradient compression for the SAPS-PSGD reproduction.
//!
//! Three mechanisms from the paper and its baselines:
//!
//! * [`mask`] — the shared-seed Bernoulli **random mask** `m_t` of
//!   SAPS-PSGD (Section II-B, Eq. 3): every worker expands the
//!   coordinator's seed into the *same* mask, so peers agree on which
//!   coordinates travel without exchanging indices.
//! * [`topk`] — Top-k sparsification with **error feedback** residuals,
//!   used by TopK-PSGD \[20\] and DCD-PSGD-style compression.
//! * [`codec`] — wire encodings for sparse and dense payloads, with exact
//!   byte accounting (the traffic numbers of Table IV and Fig. 4 come from
//!   these sizes).
//!
//! # Example
//!
//! ```
//! use saps_compress::mask::RandomMask;
//!
//! // Two workers derive the mask for round 7 from the broadcast seed 42.
//! let a = RandomMask::generate(1000, 100.0, 42, 7);
//! let b = RandomMask::generate(1000, 100.0, 42, 7);
//! assert_eq!(a.indices(), b.indices()); // identical without communication
//! ```

#![warn(missing_docs)]

pub mod codec;
pub mod mask;
pub mod topk;
