//! The complete hardware WFQ scheduler of paper Fig. 1.
//!
//! Three modules in one data path, exactly as the paper draws them:
//!
//! 1. **WFQ tag computation** (reference \[8\]) — the
//!    [`fairq::GpsVirtualClock`] produces a continuous finishing tag per
//!    packet; the [`TagQuantizer`] turns it into the fixed-width integer
//!    tag the silicon sorts, handling the value wrap-around of Fig. 6.
//! 2. **Shared packet buffer** (reference \[9\]) — [`PacketBuffer`], a
//!    slotted memory with a free list; the sorter stores only
//!    [`tagsort::PacketRef`]s into it.
//! 3. **Tag sort/retrieve circuit** — the [`tagsort::SortRetrieveCircuit`]
//!    this repository reproduces.
//!
//! [`HwScheduler`] wires the three together: `enqueue` computes, stores,
//! and sorts; `dequeue` serves the smallest tag and frees its buffer
//! slot. Its cycle accounting reproduces §IV's throughput derivation
//! (4 cycles per packet at 143.2 MHz ⇒ 35.8 Mpps ⇒ 40 Gb/s at 140-byte
//! packets).
//!
//! # Example
//!
//! ```
//! use scheduler::{HwScheduler, SchedulerConfig};
//! use traffic::{FlowId, FlowSpec, Packet, Time};
//!
//! # fn main() -> Result<(), scheduler::SchedulerError> {
//! let flows = [
//!     FlowSpec::new(FlowId(0), 1.0, 1e6),
//!     FlowSpec::new(FlowId(1), 4.0, 1e6),
//! ];
//! let mut sched = HwScheduler::new(&flows, 1e9, SchedulerConfig::default());
//! sched.enqueue(Packet { flow: FlowId(0), size_bytes: 1500, arrival: Time(0.0), seq: 0 })?;
//! sched.enqueue(Packet { flow: FlowId(1), size_bytes: 1500, arrival: Time(0.0), seq: 1 })?;
//! // The weight-4 flow's packet finishes earlier in GPS: it is served first.
//! assert_eq!(sched.dequeue().unwrap().seq, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod egress;
mod hwsched;
mod quantize;
mod shard;

pub use buffer::{BufferStats, PacketBuffer, Sideband};
pub use egress::{EgressSim, HwLinkSim};
pub use fairq::DropPolicy;
pub use hwsched::{
    AdmissionPolicy, HwScheduler, MigratedEntry, MigratedFlow, SchedulerConfig, SchedulerError,
    SchedulerStats, SojournStamp,
};
pub use quantize::{QuantizeOutcome, TagQuantizer, WrapPolicy};
pub use shard::{
    shard_of, PortDeparture, ShardError, ShardStats, ShardedLinkSim, ShardedScheduler,
};
pub use statesync::{Placement, RebalanceHint, Rebalancer, RebalancerConfig, ShardLoad};
