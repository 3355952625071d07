//! Packet, flow, and time value types shared by the scheduling crates.

use std::fmt;

/// Identifier of a flow (the paper's "session" / virtual queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FlowId(pub u32);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow {}", self.0)
    }
}

/// Simulation time in seconds.
///
/// A thin wrapper over `f64` that is totally ordered (the generators and
/// schedulers never produce NaN), so times can key ordered collections.
///
/// # Example
///
/// ```
/// use traffic::Time;
/// let a = Time(1.0);
/// assert!(a < Time(2.0));
/// assert_eq!(a + Time(0.5), Time(1.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Time(pub f64);

impl Time {
    /// Time zero.
    pub const ZERO: Time = Time(0.0);

    /// The raw seconds value.
    pub fn seconds(self) -> f64 {
        self.0
    }

    /// The larger of two times.
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two times.
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Eq for Time {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl std::ops::Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl std::ops::Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

/// One IP packet as the scheduler sees it: a flow label, a length, and an
/// arrival instant.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Packet {
    /// The flow (session) the packet belongs to.
    pub flow: FlowId,
    /// Packet length in bytes.
    pub size_bytes: u32,
    /// Arrival time at the scheduler.
    pub arrival: Time,
    /// Sequence number within the whole trace (stable identity).
    pub seq: u64,
}

impl Packet {
    /// Packet length in bits.
    pub fn size_bits(&self) -> f64 {
        f64::from(self.size_bytes) * 8.0
    }

    /// Transmission duration on a link of `rate_bps`.
    pub fn service_time(&self, rate_bps: f64) -> Time {
        Time(self.size_bits() / rate_bps)
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pkt #{} ({} B, {} @ {})",
            self.seq, self.size_bytes, self.flow, self.arrival
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ordering_and_arithmetic() {
        assert!(Time(1.0) < Time(1.5));
        assert_eq!(Time(1.0) + Time(2.0), Time(3.0));
        assert_eq!(Time(3.0) - Time(2.0), Time(1.0));
        assert_eq!(Time(1.0).max(Time(2.0)), Time(2.0));
        assert_eq!(Time(1.0).min(Time(2.0)), Time(1.0));
        assert_eq!(Time::ZERO.seconds(), 0.0);
    }

    #[test]
    fn packet_service_time() {
        let p = Packet {
            flow: FlowId(1),
            size_bytes: 1250,
            arrival: Time(0.0),
            seq: 0,
        };
        assert_eq!(p.size_bits(), 10_000.0);
        // 10 kb at 1 Mb/s = 10 ms.
        assert!((p.service_time(1e6).seconds() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(FlowId(3).to_string(), "flow 3");
        assert_eq!(Time(0.25).to_string(), "0.250000s");
    }

    #[test]
    fn times_sort_in_collections() {
        let mut v = vec![Time(3.0), Time(1.0), Time(2.0)];
        v.sort();
        assert_eq!(v, vec![Time(1.0), Time(2.0), Time(3.0)]);
    }
}
