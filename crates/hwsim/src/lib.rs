//! Cycle-accurate hardware simulation substrate.
//!
//! The paper implements its tag sort/retrieve circuit in 130-nm silicon.
//! This crate stands in for that silicon: it provides the building blocks
//! needed to model the circuit's behaviour *and* its timing claims in
//! software, so that statements such as "an insert takes exactly four
//! clock cycles" or "the select & look-ahead matcher has the shortest
//! critical path" become checkable properties rather than assumptions.
//!
//! The substrate has two halves:
//!
//! * **Sequential** — [`Clock`], [`Register`], and the [`Sram`] memory
//!   model. The SRAM model arbitrates port usage per cycle: issuing two
//!   accesses on a single port within one cycle is an error, which is how
//!   the 4-cycle read/read/write/write schedule of the tag storage memory
//!   is enforced rather than merely counted.
//! * **Combinational** — the [`netlist`] module, a small gate-level
//!   netlist builder with topological evaluation, unit-delay critical-path
//!   extraction, and LUT-style area accounting. The matching circuits of
//!   the paper's Figs. 7–8 are constructed as netlists so their delay and
//!   area curves are measured from structure, not asserted.
//!
//! # Example
//!
//! ```
//! use hwsim::{Clock, Sram, SramConfig};
//!
//! # fn main() -> Result<(), hwsim::SramError> {
//! let mut clock = Clock::new();
//! let mut mem = Sram::new(SramConfig::single_port(1024, 32));
//! mem.write(clock.now(), 5, 0xdead)?;
//! clock.tick();
//! assert_eq!(mem.read(clock.now(), 5)?, 0xdead);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arbiter;
mod clock;
pub mod netlist;
mod paged;
mod register;
mod sram;
mod stats;
mod verilog;

pub use arbiter::PortArbiter;
pub use clock::{Clock, Cycle};
pub use netlist::{GateView, Netlist, Signal, Word};
pub use paged::PagedArray;
pub use register::Register;
pub use sram::{ParityAlarm, PortKind, Sram, SramConfig, SramError, SramEvent, SramStats};
pub use stats::AccessStats;
