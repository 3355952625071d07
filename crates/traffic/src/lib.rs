//! Deterministic synthetic IP traffic for scheduler experiments.
//!
//! The paper motivates its circuit with streaming workloads — VoIP and
//! IPTV shrink packets and tighten delay bounds (§I) — and argues that
//! the distribution of new finishing-tag values tracks the traffic
//! profile (Fig. 6: "streaming VoIP is likely to produce a distribution
//! weighted to the left, while a diverse mix of traffic will have a
//! classic bell curve"). This crate supplies the flows those experiments
//! need:
//!
//! * [`FlowSpec`] — per-flow weight, rate, packet-size law
//!   ([`SizeDist`]) and arrival process ([`ArrivalProcess`]);
//! * [`generate`] / [`generate_flow`] — seeded, reproducible packet
//!   traces merged across flows in arrival order;
//! * ready-made profiles ([`profiles`]) for VoIP, video, bulk TCP-like
//!   transfers, and the classic IMIX blend.
//!
//! All randomness flows from a caller-provided seed, so every experiment
//! in the bench harness is exactly reproducible.
//!
//! # Example
//!
//! ```
//! use traffic::{ArrivalProcess, FlowId, FlowSpec, SizeDist, generate};
//!
//! let flows = vec![
//!     FlowSpec::new(FlowId(0), 4.0, 64_000.0)   // a weighted VoIP flow
//!         .size(SizeDist::Fixed(140))
//!         .arrivals(ArrivalProcess::Cbr),
//!     FlowSpec::new(FlowId(1), 1.0, 1_000_000.0) // bursty background
//!         .size(SizeDist::Imix)
//!         .arrivals(ArrivalProcess::Poisson),
//! ];
//! let trace = generate(&flows, 0.5, 42);
//! assert!(!trace.is_empty());
//! // Arrivals are merged in time order.
//! assert!(trace.windows(2).all(|w| w[0].arrival <= w[1].arrival));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gen;
mod packet;
pub mod profiles;
pub mod rng;
mod scale;
mod shaping;
mod spec;
pub mod trace;
mod zipf;

pub use gen::{generate, generate_flow};
pub use packet::{FlowId, Packet, Time};
pub use scale::{ChurnSpec, ScaleConfig, ScaleWorkload};
pub use shaping::TokenBucket;
pub use spec::{ArrivalProcess, FlowSpec, SizeDist};
pub use zipf::Zipf;
