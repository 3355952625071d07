//! Fair-queueing scheduling algorithms and baselines.
//!
//! The sort/retrieve circuit of the paper exists to serve a *family* of
//! fair-queueing algorithms ("the tag sorting architecture ... can
//! operate with any of the family of fair queueing algorithms that
//! requires finishing tag timestamps to be sorted", §I-B). This crate
//! implements that family, plus the round-robin schedulers the paper
//! compares against and the GPS fluid model they all approximate:
//!
//! * [`GpsVirtualClock`] — the incremental GPS virtual-time tracker of
//!   paper eq. (1) and reference \[8\]: the WFQ tag computation circuit's
//!   algorithm, exposed for the `scheduler` crate to pair with the
//!   sorter.
//! * [`gps_finish_times`] — the exact fluid GPS reference, used to
//!   verify the PGPS delay bound ("WFQ ... approximates GPS within one
//!   packet transmission time regardless of the arrival patterns").
//! * [`Scheduler`] implementations: [`Wfq`] (PGPS), [`Wf2q`], [`Wf2qPlus`],
//!   [`Scfq`], [`Sfq`], [`Fbfq`], the round-robin family [`Wrr`],
//!   [`Drr`], [`Mdrr`], the stratified scheme [`StratifiedRr`] the paper
//!   contrasts against (ref. \[11\]), plus a [`Fifo`] baseline.
//! * [`LinkSim`] — a non-preemptive output link that drives any scheduler
//!   over a packet trace, and [`metrics`] to analyze the departures.
//!
//! # Example
//!
//! ```
//! use fairq::{LinkSim, Wfq, metrics};
//! use traffic::{FlowId, FlowSpec, SizeDist, generate};
//!
//! let flows = vec![
//!     FlowSpec::new(FlowId(0), 3.0, 600_000.0).size(SizeDist::Fixed(500)),
//!     FlowSpec::new(FlowId(1), 1.0, 600_000.0).size(SizeDist::Fixed(500)),
//! ];
//! let trace = generate(&flows, 1.0, 7);
//! let link_rate = 800_000.0; // oversubscribed: weights decide shares
//! let departures = LinkSim::new(link_rate, Wfq::new(&flows, link_rate)).run(&trace);
//! // While both flows are backlogged (the first second), flow 0
//! // (weight 3) receives about three times flow 1's bandwidth.
//! let mut bytes = [0u64; 2];
//! for d in departures.iter().filter(|d| d.finish <= traffic::Time(1.0)) {
//!     bytes[d.packet.flow.0 as usize] += u64::from(d.packet.size_bytes);
//! }
//! let ratio = bytes[0] as f64 / bytes[1] as f64;
//! assert!((2.5..3.5).contains(&ratio), "ratio {ratio}");
//! let report = metrics::analyze(&flows, &trace, &departures);
//! assert!(report[0].mean_delay_s < report[1].mean_delay_s);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gps;
mod hierarchy;
mod link;
pub mod metrics;
mod network;
pub mod rank;
mod rr;
mod scheduler;
mod stratified;
mod timestamp;
mod virtual_time;

pub use gps::gps_finish_times;
pub use hierarchy::{Cbq, ClassMap, HierarchicalWf2q};
pub use link::{serve_links, Admit, Departure, DropPolicy, Egress, LinkSim};
pub use network::{end_to_end_delays, pg_end_to_end_bound, NetworkSim};
pub use rank::{
    AnyPolicy, FifoPlusRank, HierarchicalWfqRank, LeakyBucketRank, RankPolicy, SrptRank, StfqRank,
    StrictPriorityRank, WfqRank,
};
pub use rr::{Drr, Mdrr, Wrr};
pub use scheduler::{Fifo, Scheduler};
pub use stratified::{Fbfq, StratifiedRr};
pub use timestamp::{Scfq, Sfq, Wf2q, Wf2qPlus, Wfq};
pub use virtual_time::{GpsVirtualClock, StateError, VirtualTime};
