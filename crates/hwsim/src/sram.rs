//! Cycle-accurate SRAM model with per-cycle port arbitration.
//!
//! The tag storage memory of the paper is an external SRAM accessed through
//! a fixed four-cycle schedule (two reads followed by two writes, Fig. 9).
//! The point of this model is to make that schedule *enforceable*: each
//! port may carry at most one access per clock cycle, and a second access
//! in the same cycle is a simulation error, not a silently absorbed one.
//!
//! The word array is a [`PagedArray`] of 4096-word pages: a page
//! materializes on its first non-zero write, and an unwritten word reads
//! as zero. A memory configured at paper scale therefore costs host
//! memory in proportion to the words it holds, and
//! [`Sram::resident_words`] reports how many that is.

use std::error::Error;
use std::fmt;

use faultsim::FaultTarget;

use crate::clock::Cycle;
use crate::paged::PagedArray;

/// One recorded memory access (tracing must be enabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SramEvent {
    /// Cycle the access occupied.
    pub cycle: Cycle,
    /// Port that carried it.
    pub port: usize,
    /// True for writes, false for reads.
    pub is_write: bool,
    /// Word address accessed.
    pub addr: usize,
    /// Data written, or the value read.
    pub data: u64,
}

impl fmt::Display for SramEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: port {} {} @{:<4} = {:#x}",
            self.cycle,
            self.port,
            if self.is_write { "WR" } else { "RD" },
            self.addr,
            self.data
        )
    }
}

/// A parity mismatch observed on a word read.
///
/// The model keeps one parity bit per word, updated on every write and
/// checked on every read (the paper's external SRAM parts carry parity
/// sideband bits for exactly this purpose). An alarm is raised at most
/// once per corruption episode: re-reading the same damaged word does not
/// duplicate the alarm, and a subsequent write re-arms detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParityAlarm {
    /// Cycle of the read that tripped the check.
    pub cycle: Cycle,
    /// Word address whose parity mismatched.
    pub addr: usize,
}

impl fmt::Display for ParityAlarm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: parity mismatch @{}", self.cycle, self.addr)
    }
}

/// Which operations a memory port may carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortKind {
    /// The port accepts both reads and writes (one per cycle in total).
    ReadWrite,
    /// The port accepts only reads.
    ReadOnly,
    /// The port accepts only writes.
    WriteOnly,
}

/// Static configuration of an [`Sram`] instance.
///
/// # Example
///
/// ```
/// use hwsim::{SramConfig, PortKind};
///
/// // The paper's level-3 tree memory: 4 kbit of single-port on-chip SRAM.
/// let cfg = SramConfig::single_port(256, 16);
/// assert_eq!(cfg.total_bits(), 4096);
///
/// // A QDR-style part: one read port and one write port.
/// let qdr = SramConfig::new(1 << 20, 36, vec![PortKind::ReadOnly, PortKind::WriteOnly]);
/// assert_eq!(qdr.ports().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SramConfig {
    words: usize,
    width_bits: u32,
    ports: Vec<PortKind>,
}

impl SramConfig {
    /// A memory with an explicit port list.
    ///
    /// # Panics
    ///
    /// Panics if `words` is zero, `width_bits` is zero or above 64, or no
    /// ports are given.
    pub fn new(words: usize, width_bits: u32, ports: Vec<PortKind>) -> Self {
        assert!(words > 0, "memory must have at least one word");
        assert!(
            (1..=64).contains(&width_bits),
            "word width must be 1..=64 bits, got {width_bits}"
        );
        assert!(!ports.is_empty(), "memory must have at least one port");
        Self {
            words,
            width_bits,
            ports,
        }
    }

    /// A single read/write port memory — the paper's on-chip SRAM flavour.
    pub fn single_port(words: usize, width_bits: u32) -> Self {
        Self::new(words, width_bits, vec![PortKind::ReadWrite])
    }

    /// A dual-port memory with two independent read/write ports.
    pub fn dual_port(words: usize, width_bits: u32) -> Self {
        Self::new(
            words,
            width_bits,
            vec![PortKind::ReadWrite, PortKind::ReadWrite],
        )
    }

    /// Number of addressable words.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Width of one word in bits.
    pub fn width_bits(&self) -> u32 {
        self.width_bits
    }

    /// The configured ports.
    pub fn ports(&self) -> &[PortKind] {
        &self.ports
    }

    /// Total storage capacity in bits (the unit Table II reports).
    pub fn total_bits(&self) -> u64 {
        self.words as u64 * u64::from(self.width_bits)
    }
}

/// Errors returned by the SRAM model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SramError {
    /// The address is outside the configured word count.
    AddressOutOfRange {
        /// Offending address.
        addr: usize,
        /// Configured number of words.
        words: usize,
    },
    /// The written value does not fit the configured word width.
    ValueTooWide {
        /// Offending value.
        value: u64,
        /// Configured word width in bits.
        width_bits: u32,
    },
    /// A port was asked to carry a second access within one cycle.
    PortConflict {
        /// The port index that was double-booked.
        port: usize,
        /// The cycle in which the conflict occurred.
        cycle: Cycle,
    },
    /// The requested port does not exist.
    NoSuchPort {
        /// Requested port index.
        port: usize,
        /// Number of configured ports.
        ports: usize,
    },
    /// The requested port cannot carry this operation (e.g. write on a
    /// read-only port).
    PortKindMismatch {
        /// Requested port index.
        port: usize,
        /// The port's configured kind.
        kind: PortKind,
    },
}

impl fmt::Display for SramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SramError::AddressOutOfRange { addr, words } => {
                write!(f, "address {addr} out of range for {words}-word memory")
            }
            SramError::ValueTooWide { value, width_bits } => {
                write!(f, "value {value:#x} does not fit in {width_bits} bits")
            }
            SramError::PortConflict { port, cycle } => {
                write!(f, "port {port} already used in {cycle}")
            }
            SramError::NoSuchPort { port, ports } => {
                write!(f, "port {port} does not exist ({ports} ports configured)")
            }
            SramError::PortKindMismatch { port, kind } => {
                write!(f, "port {port} ({kind:?}) cannot carry this operation")
            }
        }
    }
}

impl Error for SramError {}

/// Per-memory access statistics.
///
/// `busy_cycles` counts distinct cycles during which at least one port was
/// active, which is the utilization figure the scheduler experiments use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SramStats {
    /// Total read operations served.
    pub reads: u64,
    /// Total write operations served.
    pub writes: u64,
    /// Number of distinct cycles with at least one access.
    pub busy_cycles: u64,
}

impl SramStats {
    /// Total accesses of either kind.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }
}

/// A cycle-accurate word-addressed static RAM.
///
/// Reads are modelled as same-cycle (the surrounding FSM accounts for
/// latency by how it schedules accesses across cycles, exactly as the
/// paper's four-cycle insert schedule does). What the model enforces is
/// *port bandwidth*: one access per port per cycle.
///
/// # Example
///
/// ```
/// use hwsim::{Clock, Sram, SramConfig};
///
/// # fn main() -> Result<(), hwsim::SramError> {
/// let mut clk = Clock::new();
/// let mut mem = Sram::new(SramConfig::single_port(16, 12));
/// mem.write(clk.now(), 3, 0xabc)?;
/// // A second access in the same cycle on the single port is refused:
/// assert!(mem.read(clk.now(), 3).is_err());
/// clk.tick();
/// assert_eq!(mem.read(clk.now(), 3)?, 0xabc);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Sram {
    config: SramConfig,
    data: PagedArray<u64>,
    /// One parity bit per word, packed 64 per entry. Writes refresh it;
    /// [`Sram::corrupt`] deliberately does not, which is what makes a
    /// corrupted word detectable on the next port read.
    parity: Vec<u64>,
    /// Words whose mismatch has already been reported (alarm dedup).
    alarmed: Vec<u64>,
    alarms: Vec<ParityAlarm>,
    /// Last cycle each port carried an access, if any.
    port_last_use: Vec<Option<Cycle>>,
    last_busy_cycle: Option<Cycle>,
    stats: SramStats,
    trace: Option<Vec<SramEvent>>,
}

fn bitset_get(set: &[u64], idx: usize) -> bool {
    set[idx / 64] >> (idx % 64) & 1 == 1
}

fn bitset_assign(set: &mut [u64], idx: usize, value: bool) {
    if value {
        set[idx / 64] |= 1 << (idx % 64);
    } else {
        set[idx / 64] &= !(1 << (idx % 64));
    }
}

impl Sram {
    /// Creates a zero-initialized memory. No word is resident until it
    /// is first written non-zero (see [`Sram::resident_words`]).
    pub fn new(config: SramConfig) -> Self {
        let words = config.words();
        let ports = config.ports().len();
        Self {
            config,
            data: PagedArray::new(words),
            parity: vec![0; words.div_ceil(64)],
            alarmed: vec![0; words.div_ceil(64)],
            alarms: Vec::new(),
            port_last_use: vec![None; ports],
            last_busy_cycle: None,
            stats: SramStats::default(),
            trace: None,
        }
    }

    /// `(resident, peak_resident, total)` word counts: resident pages
    /// times the page size, capped at the configured word count.
    pub fn resident_words(&self) -> (usize, usize, usize) {
        self.data.residency()
    }

    /// Enables event tracing: every subsequent access is recorded and
    /// retrievable with [`Sram::take_trace`]. Use for waveform-style
    /// inspection of FSM schedules; off by default (zero cost).
    pub fn enable_tracing(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// Drains and returns the recorded events (empty if tracing is off).
    pub fn take_trace(&mut self) -> Vec<SramEvent> {
        self.trace.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// The static configuration.
    pub fn config(&self) -> &SramConfig {
        &self.config
    }

    /// Accumulated access statistics.
    pub fn stats(&self) -> SramStats {
        self.stats
    }

    /// Resets the statistics counters (contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = SramStats::default();
    }

    /// Reads the word at `addr` through port 0.
    ///
    /// # Errors
    ///
    /// Fails on address range violations or if port 0 is already busy in
    /// `cycle`.
    pub fn read(&mut self, cycle: Cycle, addr: usize) -> Result<u64, SramError> {
        self.read_port(cycle, 0, addr)
    }

    /// Writes `value` at `addr` through port 0.
    ///
    /// # Errors
    ///
    /// Fails on range/width violations or if port 0 is already busy in
    /// `cycle`.
    pub fn write(&mut self, cycle: Cycle, addr: usize, value: u64) -> Result<(), SramError> {
        self.write_port(cycle, 0, addr, value)
    }

    /// Reads the word at `addr` through the given port.
    ///
    /// # Errors
    ///
    /// Fails if the port does not exist, is write-only, is already busy in
    /// `cycle`, or `addr` is out of range.
    pub fn read_port(&mut self, cycle: Cycle, port: usize, addr: usize) -> Result<u64, SramError> {
        self.check_addr(addr)?;
        self.claim_port(cycle, port, /*is_write=*/ false)?;
        self.stats.reads += 1;
        let value = self.data.get(addr);
        let stored_parity = bitset_get(&self.parity, addr);
        if (value.count_ones() & 1 == 1) != stored_parity && !bitset_get(&self.alarmed, addr) {
            bitset_assign(&mut self.alarmed, addr, true);
            self.alarms.push(ParityAlarm { cycle, addr });
        }
        if let Some(trace) = &mut self.trace {
            trace.push(SramEvent {
                cycle,
                port,
                is_write: false,
                addr,
                data: value,
            });
        }
        Ok(value)
    }

    /// Writes `value` at `addr` through the given port.
    ///
    /// # Errors
    ///
    /// Fails if the port does not exist, is read-only, is already busy in
    /// `cycle`, `addr` is out of range, or `value` does not fit the word
    /// width.
    pub fn write_port(
        &mut self,
        cycle: Cycle,
        port: usize,
        addr: usize,
        value: u64,
    ) -> Result<(), SramError> {
        self.check_addr(addr)?;
        let width = self.config.width_bits();
        if width < 64 && value >> width != 0 {
            return Err(SramError::ValueTooWide {
                value,
                width_bits: width,
            });
        }
        self.claim_port(cycle, port, /*is_write=*/ true)?;
        self.stats.writes += 1;
        self.data.set(addr, value);
        // A write refreshes the sideband parity and re-arms detection for
        // this word — overwriting a corrupted word silently "heals" it,
        // exactly as real parity-per-word memories behave.
        bitset_assign(&mut self.parity, addr, value.count_ones() & 1 == 1);
        bitset_assign(&mut self.alarmed, addr, false);
        if let Some(trace) = &mut self.trace {
            trace.push(SramEvent {
                cycle,
                port,
                is_write: true,
                addr,
                data: value,
            });
        }
        Ok(())
    }

    /// Reads without cycle accounting — for test assertions and snapshot
    /// inspection only, never from modelled hardware.
    ///
    /// Peeks bypass the parity check: they model a logic analyser on the
    /// die, not a functional read.
    ///
    /// # Errors
    ///
    /// Fails if `addr` is out of range.
    pub fn peek(&self, addr: usize) -> Result<u64, SramError> {
        self.check_addr(addr)?;
        Ok(self.data.get(addr))
    }

    /// Flips the bits of `mask` in word `addr` *without* refreshing the
    /// sideband parity bit — an SEU striking the array, not a write.
    ///
    /// Returns the pre-fault word. The next functional read of the word
    /// raises a [`ParityAlarm`] iff an odd number of bits flipped (even-bit
    /// flips defeat single-bit parity, which is the realistic failure mode
    /// multi-bit fault plans probe).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn corrupt(&mut self, addr: usize, mask: u64) -> u64 {
        assert!(
            addr < self.config.words(),
            "fault address {addr} out of range for {}-word memory",
            self.config.words()
        );
        let width = self.config.width_bits();
        let mask = if width < 64 {
            mask & ((1 << width) - 1)
        } else {
            mask
        };
        let old = self.data.get(addr);
        self.data.set(addr, old ^ mask);
        old
    }

    /// Drains the parity alarms raised by reads since the last call.
    pub fn take_parity_alarms(&mut self) -> Vec<ParityAlarm> {
        std::mem::take(&mut self.alarms)
    }

    fn check_addr(&self, addr: usize) -> Result<(), SramError> {
        if addr >= self.config.words() {
            return Err(SramError::AddressOutOfRange {
                addr,
                words: self.config.words(),
            });
        }
        Ok(())
    }

    fn claim_port(&mut self, cycle: Cycle, port: usize, is_write: bool) -> Result<(), SramError> {
        let kinds = self.config.ports();
        let kind = *kinds.get(port).ok_or(SramError::NoSuchPort {
            port,
            ports: kinds.len(),
        })?;
        let allowed = match kind {
            PortKind::ReadWrite => true,
            PortKind::ReadOnly => !is_write,
            PortKind::WriteOnly => is_write,
        };
        if !allowed {
            return Err(SramError::PortKindMismatch { port, kind });
        }
        if self.port_last_use[port] == Some(cycle) {
            return Err(SramError::PortConflict { port, cycle });
        }
        self.port_last_use[port] = Some(cycle);
        if self.last_busy_cycle != Some(cycle) {
            self.last_busy_cycle = Some(cycle);
            self.stats.busy_cycles += 1;
        }
        Ok(())
    }
}

impl FaultTarget for Sram {
    fn fault_words(&self) -> usize {
        self.config.words()
    }

    fn fault_word_bits(&self, _word: usize) -> u32 {
        self.config.width_bits()
    }

    fn inject_fault(&mut self, word: usize, mask: u64) -> u64 {
        self.corrupt(word, mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE_WORDS: usize = PagedArray::<u64>::PAGE;
    use crate::Clock;

    #[test]
    fn read_back_what_was_written() {
        let mut clk = Clock::new();
        let mut mem = Sram::new(SramConfig::single_port(8, 16));
        mem.write(clk.now(), 2, 0xbeef).unwrap();
        clk.tick();
        assert_eq!(mem.read(clk.now(), 2).unwrap(), 0xbeef);
        assert_eq!(mem.peek(2).unwrap(), 0xbeef);
    }

    #[test]
    fn single_port_refuses_two_accesses_per_cycle() {
        let clk = Clock::new();
        let mut mem = Sram::new(SramConfig::single_port(8, 16));
        mem.write(clk.now(), 0, 1).unwrap();
        let err = mem.read(clk.now(), 0).unwrap_err();
        assert!(matches!(err, SramError::PortConflict { port: 0, .. }));
    }

    #[test]
    fn dual_port_allows_two_accesses_per_cycle() {
        let clk = Clock::new();
        let mut mem = Sram::new(SramConfig::dual_port(8, 16));
        mem.write_port(clk.now(), 0, 0, 1).unwrap();
        // Writes commit same-edge in this model, so the other port already
        // observes the new value; what matters is that both ports were
        // usable within one cycle.
        assert_eq!(mem.read_port(clk.now(), 1, 0).unwrap(), 1);
    }

    #[test]
    fn port_becomes_free_next_cycle() {
        let mut clk = Clock::new();
        let mut mem = Sram::new(SramConfig::single_port(8, 16));
        mem.write(clk.now(), 0, 1).unwrap();
        clk.tick();
        assert_eq!(mem.read(clk.now(), 0).unwrap(), 1);
    }

    #[test]
    fn qdr_style_ports_reject_wrong_operation() {
        let clk = Clock::new();
        let cfg = SramConfig::new(8, 16, vec![PortKind::ReadOnly, PortKind::WriteOnly]);
        let mut mem = Sram::new(cfg);
        assert!(matches!(
            mem.write_port(clk.now(), 0, 0, 1),
            Err(SramError::PortKindMismatch { port: 0, .. })
        ));
        assert!(matches!(
            mem.read_port(clk.now(), 1, 0),
            Err(SramError::PortKindMismatch { port: 1, .. })
        ));
        mem.write_port(clk.now(), 1, 0, 9).unwrap();
        assert_eq!(mem.read_port(clk.now(), 0, 0).unwrap(), 9);
    }

    #[test]
    fn address_and_width_violations() {
        let clk = Clock::new();
        let mut mem = Sram::new(SramConfig::single_port(4, 4));
        assert!(matches!(
            mem.read(clk.now(), 4),
            Err(SramError::AddressOutOfRange { addr: 4, words: 4 })
        ));
        assert!(matches!(
            mem.write(clk.now(), 0, 16),
            Err(SramError::ValueTooWide { value: 16, .. })
        ));
        // A failed access must not consume the port.
        mem.write(clk.now(), 0, 15).unwrap();
    }

    #[test]
    fn no_such_port() {
        let clk = Clock::new();
        let mut mem = Sram::new(SramConfig::single_port(4, 8));
        assert!(matches!(
            mem.read_port(clk.now(), 3, 0),
            Err(SramError::NoSuchPort { port: 3, ports: 1 })
        ));
    }

    #[test]
    fn stats_count_reads_writes_and_busy_cycles() {
        let mut clk = Clock::new();
        let mut mem = Sram::new(SramConfig::dual_port(8, 16));
        mem.write_port(clk.now(), 0, 0, 1).unwrap();
        mem.read_port(clk.now(), 1, 0).unwrap(); // same cycle: one busy cycle
        clk.tick();
        mem.read(clk.now(), 0).unwrap();
        let s = mem.stats();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.accesses(), 3);
        assert_eq!(s.busy_cycles, 2);
        mem.reset_stats();
        assert_eq!(mem.stats(), SramStats::default());
    }

    #[test]
    fn tracing_records_accesses_in_order() {
        let mut clk = Clock::new();
        let mut mem = Sram::new(SramConfig::single_port(8, 16));
        mem.enable_tracing();
        mem.write(clk.now(), 3, 0xa).unwrap();
        clk.tick();
        mem.read(clk.now(), 3).unwrap();
        let trace = mem.take_trace();
        assert_eq!(trace.len(), 2);
        assert!(trace[0].is_write && !trace[1].is_write);
        assert_eq!(trace[0].addr, 3);
        assert_eq!(trace[1].data, 0xa);
        assert_eq!(trace[0].to_string(), "cycle 0: port 0 WR @3    = 0xa");
        // Trace drained; subsequent accesses accumulate afresh.
        assert!(mem.take_trace().is_empty());
        clk.tick();
        mem.read(clk.now(), 3).unwrap();
        assert_eq!(mem.take_trace().len(), 1);
    }

    #[test]
    fn tracing_off_by_default() {
        let clk = Clock::new();
        let mut mem = Sram::new(SramConfig::single_port(8, 16));
        mem.write(clk.now(), 0, 1).unwrap();
        assert!(mem.take_trace().is_empty());
    }

    #[test]
    fn total_bits_matches_paper_level3_example() {
        // Paper §III-A: the third tree level is 4 kbit of on-chip SRAM —
        // 256 nodes of 16 bits.
        let cfg = SramConfig::single_port(256, 16);
        assert_eq!(cfg.total_bits(), 4096);
    }

    #[test]
    fn full_width_64_bit_words_accept_any_value() {
        let clk = Clock::new();
        let mut mem = Sram::new(SramConfig::single_port(2, 64));
        mem.write(clk.now(), 0, u64::MAX).unwrap();
        assert_eq!(mem.peek(0).unwrap(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "word width must be 1..=64")]
    fn zero_width_rejected() {
        let _ = SramConfig::single_port(8, 0);
    }

    #[test]
    fn corrupted_word_trips_parity_once_until_rewritten() {
        let mut clk = Clock::new();
        let mut mem = Sram::new(SramConfig::single_port(8, 16));
        mem.write(clk.now(), 2, 0xbeef).unwrap();
        clk.tick();
        assert_eq!(mem.corrupt(2, 0b100), 0xbeef);
        assert_eq!(mem.read(clk.now(), 2).unwrap(), 0xbeeb);
        clk.tick();
        // Re-reading the same damaged word does not duplicate the alarm.
        mem.read(clk.now(), 2).unwrap();
        let alarms = mem.take_parity_alarms();
        assert_eq!(
            alarms,
            vec![ParityAlarm {
                cycle: Cycle(1),
                addr: 2
            }]
        );
        assert!(mem.take_parity_alarms().is_empty());
        // A write heals the word and re-arms detection.
        clk.tick();
        mem.write(clk.now(), 2, 0xbeef).unwrap();
        clk.tick();
        mem.read(clk.now(), 2).unwrap();
        assert!(mem.take_parity_alarms().is_empty());
        mem.corrupt(2, 1);
        clk.tick();
        mem.read(clk.now(), 2).unwrap();
        assert_eq!(mem.take_parity_alarms().len(), 1);
    }

    #[test]
    fn even_bit_flips_defeat_parity() {
        let mut clk = Clock::new();
        let mut mem = Sram::new(SramConfig::single_port(4, 16));
        mem.write(clk.now(), 0, 0xff).unwrap();
        mem.corrupt(0, 0b11);
        clk.tick();
        assert_eq!(mem.read(clk.now(), 0).unwrap(), 0xfc);
        assert!(mem.take_parity_alarms().is_empty());
    }

    #[test]
    fn peek_bypasses_parity_detection() {
        let clk = Clock::new();
        let mut mem = Sram::new(SramConfig::single_port(4, 16));
        mem.write(clk.now(), 1, 0x7).unwrap();
        mem.corrupt(1, 1);
        assert_eq!(mem.peek(1).unwrap(), 0x6);
        assert!(mem.take_parity_alarms().is_empty());
    }

    #[test]
    fn corrupt_masks_to_word_width() {
        let clk = Clock::new();
        let mut mem = Sram::new(SramConfig::single_port(4, 4));
        mem.write(clk.now(), 0, 0b1010).unwrap();
        mem.corrupt(0, 0xf0f);
        assert_eq!(mem.peek(0).unwrap(), 0b0101);
    }

    #[test]
    #[should_panic(expected = "fault address 9 out of range")]
    fn corrupt_rejects_bad_address() {
        let mut mem = Sram::new(SramConfig::single_port(4, 8));
        mem.corrupt(9, 1);
    }

    #[test]
    fn sram_is_a_fault_target() {
        use faultsim::FaultTarget;
        let mut mem = Sram::new(SramConfig::single_port(8, 12));
        assert_eq!(mem.fault_words(), 8);
        assert_eq!(mem.fault_word_bits(3), 12);
        assert_eq!(mem.inject_fault(3, 0b1000), 0);
        assert_eq!(mem.peek(3).unwrap(), 0b1000);
    }

    #[test]
    fn unwritten_words_read_zero_and_pages_materialize_on_write() {
        let mut clk = Clock::new();
        let mut mem = Sram::new(SramConfig::single_port(3 * PAGE_WORDS, 16));
        assert_eq!(mem.resident_words(), (0, 0, 3 * PAGE_WORDS));
        assert_eq!(mem.read(clk.now(), 2 * PAGE_WORDS + 1).unwrap(), 0);
        assert_eq!(mem.resident_words().0, 0, "a read materializes nothing");
        clk.tick();
        // A zero write is already represented; a non-zero write pages in.
        mem.write(clk.now(), 5, 0).unwrap();
        assert_eq!(mem.resident_words().0, 0);
        clk.tick();
        mem.write(clk.now(), 5, 0xbeef).unwrap();
        assert_eq!(
            mem.resident_words(),
            (PAGE_WORDS, PAGE_WORDS, 3 * PAGE_WORDS)
        );
        clk.tick();
        assert_eq!(mem.read(clk.now(), 5).unwrap(), 0xbeef);
        assert_eq!(mem.peek(5).unwrap(), 0xbeef);
    }

    #[test]
    fn corrupting_an_unwritten_word_pages_it_in_with_a_latent_alarm() {
        let mut clk = Clock::new();
        let mut mem = Sram::new(SramConfig::single_port(2 * PAGE_WORDS, 16));
        mem.write(clk.now(), 7, 0xff).unwrap();
        // Corruption of a never-written word pages it in without
        // refreshing parity, so the next read raises the alarm.
        assert_eq!(mem.corrupt(PAGE_WORDS + 3, 0b1), 0);
        clk.tick();
        assert_eq!(mem.read(clk.now(), PAGE_WORDS + 3).unwrap(), 1);
        assert_eq!(mem.take_parity_alarms().len(), 1);
        mem.corrupt(7, 0b100);
        clk.tick();
        mem.read(clk.now(), 7).unwrap();
        assert_eq!(mem.take_parity_alarms().len(), 1);
    }

    #[test]
    fn error_messages_are_informative() {
        let e = SramError::PortConflict {
            port: 0,
            cycle: Cycle(7),
        };
        assert_eq!(e.to_string(), "port 0 already used in cycle 7");
    }
}
