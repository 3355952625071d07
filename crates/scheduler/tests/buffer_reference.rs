//! `PacketBuffer` against the buffer it replaced, kept here as a
//! reference model.
//!
//! The buffer keeps one record per slot: the packet, the scheduler's
//! sideband (exact rank, enqueue cycle, tag section), the generation and
//! the occupied and parity flags. Before that, each of these lived in a
//! parallel per-slot array: `Option<Packet>` slots, generations, parity
//! and alarm bitsets, and beside the buffer the scheduler's own
//! `Vec<Option<SlotInfo>>` holding the sideband with a generational
//! `PacketRef`. The reference below is that composition. Random programs
//! of stores, sideband writes, takes by bare index, releases through
//! fresh and stale references, fault injection, alarm drains and
//! generation-wrapping churn must yield identical results op by op, and
//! identical statistics and slot contents after every op.

use fairq::VirtualTime;
use faultsim::FaultTarget;
use proptest::prelude::*;
use scheduler::{BufferStats, PacketBuffer, Sideband};
use tagsort::PacketRef;
use traffic::{FlowId, Packet, Time};

const _: () = assert!(PacketBuffer::SLOT_BYTES <= 48);

/// The descriptor word faults land in: flow id over length.
fn descriptor(pkt: &Packet) -> u64 {
    (u64::from(pkt.flow.0) << 32) | u64::from(pkt.size_bytes)
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

/// The parallel-array buffer: packets, generations, and parity and
/// alarm-dedup bitsets, one entry per slot in each.
struct OldBuffer {
    slots: Vec<Option<Packet>>,
    gens: Vec<u8>,
    free: Vec<u32>,
    stats: BufferStats,
    parity: Vec<u64>,
    alarmed: Vec<u64>,
    alarms: Vec<u32>,
}

impl OldBuffer {
    fn new(capacity: usize) -> Self {
        Self {
            slots: vec![None; capacity],
            gens: vec![0; capacity],
            free: (0..capacity as u32).rev().collect(),
            stats: BufferStats::default(),
            parity: vec![0; capacity.div_ceil(64)],
            alarmed: vec![0; capacity.div_ceil(64)],
            alarms: Vec::new(),
        }
    }

    fn is_live(&self, r: PacketRef) -> bool {
        let slot = r.index() as usize;
        slot < self.slots.len() && self.slots[slot].is_some() && self.gens[slot] == r.generation()
    }

    fn store(&mut self, pkt: Packet) -> Option<PacketRef> {
        let Some(slot) = self.free.pop() else {
            self.stats.rejected += 1;
            return None;
        };
        let parity = descriptor(&pkt).count_ones() & 1 == 1;
        bitset_assign(&mut self.parity, slot as usize, parity);
        bitset_assign(&mut self.alarmed, slot as usize, false);
        self.slots[slot as usize] = Some(pkt);
        self.stats.occupied += 1;
        self.stats.peak = self.stats.peak.max(self.stats.occupied);
        self.stats.stored += 1;
        Some(PacketRef::new(slot, self.gens[slot as usize]))
    }

    fn try_peek(&self, r: PacketRef) -> Option<&Packet> {
        if !self.is_live(r) {
            return None;
        }
        self.slots[r.index() as usize].as_ref()
    }

    fn try_release(&mut self, r: PacketRef) -> Option<Packet> {
        if !self.is_live(r) {
            return None;
        }
        let slot = r.index() as usize;
        if let Some(pkt) = &self.slots[slot] {
            let parity = descriptor(pkt).count_ones() & 1 == 1;
            if parity != bitset_get(&self.parity, slot) && !bitset_get(&self.alarmed, slot) {
                bitset_assign(&mut self.alarmed, slot, true);
                self.alarms.push(slot as u32);
            }
        }
        let pkt = self.slots[slot].take().expect("checked occupied");
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        self.free.push(r.index());
        self.stats.occupied -= 1;
        Some(pkt)
    }

    fn inject_fault(&mut self, word: usize, mask: u64) -> u64 {
        match self.slots[word].as_mut() {
            Some(pkt) => {
                let old = descriptor(pkt);
                let new = old ^ mask;
                pkt.flow = FlowId((new >> 32) as u32);
                pkt.size_bytes = new as u32;
                old
            }
            None => 0,
        }
    }
}

/// The scheduler's old per-slot sideband, beside the buffer.
#[derive(Debug, Clone, Copy)]
struct SlotInfo {
    finish: VirtualTime,
    enq_cycle: u64,
    full: PacketRef,
    section: u8,
}

/// The old buffer plus the old sideband vector, kept in step the way the
/// scheduler kept them.
struct Reference {
    buffer: OldBuffer,
    slot_info: Vec<Option<SlotInfo>>,
}

impl Reference {
    fn new(capacity: usize) -> Self {
        Self {
            buffer: OldBuffer::new(capacity),
            slot_info: vec![None; capacity],
        }
    }

    fn store(&mut self, pkt: Packet) -> Option<PacketRef> {
        let full = self.buffer.store(pkt)?;
        self.slot_info[full.index() as usize] = Some(SlotInfo {
            finish: VirtualTime::ZERO,
            enq_cycle: 0,
            full,
            section: 0,
        });
        Some(full)
    }

    fn set_sideband(&mut self, slot: u32, finish: VirtualTime, enq_cycle: u64, section: u8) {
        let info = self.slot_info[slot as usize]
            .as_mut()
            .expect("an occupied slot has sideband");
        (info.finish, info.enq_cycle, info.section) = (finish, enq_cycle, section);
    }

    fn take(&mut self, slot: u32) -> Option<(Packet, Sideband)> {
        let info = self.slot_info.get_mut(slot as usize)?.take()?;
        let pkt = self
            .buffer
            .try_release(info.full)
            .expect("sideband present means the buffer slot is live");
        let sb = Sideband {
            finish: info.finish,
            enq_cycle: info.enq_cycle,
            section: info.section,
        };
        Some((pkt, sb))
    }

    fn try_release(&mut self, r: PacketRef) -> Option<Packet> {
        let pkt = self.buffer.try_release(r)?;
        self.slot_info[r.index() as usize] = None;
        Some(pkt)
    }

    fn peek_slot(&self, slot: u32) -> Option<&Packet> {
        let info = self.slot_info.get(slot as usize)?.as_ref()?;
        Some(self.buffer.try_peek(info.full).expect("sideband is live"))
    }

    fn occupied_slots(&self) -> Vec<u32> {
        (0..self.slot_info.len() as u32)
            .filter(|&s| self.slot_info[s as usize].is_some())
            .collect()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Store {
        flow: u32,
        size: u32,
    },
    Annotate {
        pick: usize,
        finish: f64,
        enq_cycle: u64,
        section: u8,
    },
    /// A bare index, one past the capacity included.
    Take {
        slot: u32,
    },
    /// Any reference issued so far, live or stale.
    Release {
        pick: usize,
    },
    Peek {
        pick: usize,
    },
    Fault {
        word: usize,
        mask: u64,
    },
    Alarms,
    /// Stores and takes back `times` packets through the next free slot,
    /// wrapping its generation when `times` reaches 256.
    Churn {
        times: u16,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let mask = prop_oneof![(0..64u32).prop_map(|b| 1u64 << b), 0..u64::MAX];
    let pick = || 0..1usize << 20;
    prop_oneof![
        4 => (0..4u32, prop_oneof![Just(64u32), Just(100), Just(1500)])
            .prop_map(|(flow, size)| Op::Store { flow, size }),
        3 => (pick(), -1e6..1e6f64, 0..u64::MAX, 0..u8::MAX).prop_map(
            |(pick, finish, enq_cycle, section)| Op::Annotate { pick, finish, enq_cycle, section }
        ),
        3 => (0..8u32).prop_map(|slot| Op::Take { slot }),
        3 => pick().prop_map(|pick| Op::Release { pick }),
        1 => pick().prop_map(|pick| Op::Peek { pick }),
        2 => (0..8usize, mask).prop_map(|(word, mask)| Op::Fault { word, mask }),
        1 => Just(Op::Alarms),
        1 => prop_oneof![0..8u16, 250..300u16].prop_map(|times| Op::Churn { times }),
    ]
}

/// Runs `ops` on a fresh buffer and a fresh reference of `capacity`
/// slots, comparing every result.
fn run(capacity: usize, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut buf = PacketBuffer::new(capacity);
    let mut reference = Reference::new(capacity);
    let mut issued: Vec<PacketRef> = Vec::new();
    let mut seq = 0u64;
    let mut next_packet = |flow: u32, size_bytes: u32| {
        seq += 1;
        Packet {
            flow: FlowId(flow),
            size_bytes,
            arrival: Time(seq as f64 * 1e-6),
            seq,
        }
    };
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Store { flow, size } => {
                let pkt = next_packet(flow, size);
                let got = buf.store(pkt);
                prop_assert_eq!(got, reference.store(pkt), "op {}: {:?}", i, op);
                issued.extend(got);
            }
            Op::Annotate {
                pick,
                finish,
                enq_cycle,
                section,
            } => {
                let occupied = reference.occupied_slots();
                if let Some(&slot) = occupied.get(pick % occupied.len().max(1)) {
                    buf.set_sideband(slot, VirtualTime(finish), enq_cycle, section);
                    reference.set_sideband(slot, VirtualTime(finish), enq_cycle, section);
                }
            }
            Op::Take { slot } => {
                prop_assert_eq!(buf.take(slot), reference.take(slot), "op {}: {:?}", i, op);
            }
            Op::Release { pick } | Op::Peek { pick } if !issued.is_empty() => {
                let r = issued[pick % issued.len()];
                prop_assert_eq!(buf.try_peek(r), reference.buffer.try_peek(r), "op {}", i);
                if matches!(op, Op::Release { .. }) {
                    let got = buf.try_release(r);
                    prop_assert_eq!(got, reference.try_release(r), "op {}: {:?}", i, op);
                }
            }
            Op::Release { .. } | Op::Peek { .. } => {}
            Op::Fault { word, mask } => {
                let word = word % capacity;
                let got = buf.inject_fault(word, mask);
                prop_assert_eq!(got, reference.buffer.inject_fault(word, mask), "op {}", i);
            }
            Op::Alarms => {
                let want = std::mem::take(&mut reference.buffer.alarms);
                prop_assert_eq!(buf.take_fault_alarms(), want, "op {}", i);
            }
            Op::Churn { times } => {
                for _ in 0..times {
                    let pkt = next_packet(0, 64);
                    let got = buf.store(pkt);
                    prop_assert_eq!(got, reference.store(pkt), "op {}", i);
                    let Some(r) = got else { break };
                    issued.push(r);
                    let got = buf.take(r.index());
                    prop_assert_eq!(got, reference.take(r.index()), "op {}", i);
                }
            }
        }
        prop_assert_eq!(buf.stats(), reference.buffer.stats, "stats after op {}", i);
        for slot in 0..=capacity as u32 {
            prop_assert_eq!(
                buf.peek_slot(slot),
                reference.peek_slot(slot),
                "slot {} after op {}",
                slot,
                i
            );
        }
    }
    let want = std::mem::take(&mut reference.buffer.alarms);
    prop_assert_eq!(buf.take_fault_alarms(), want, "final alarms");
    Ok(())
}

fn check(capacity: usize, ops: &[Op]) -> Result<(), TestCaseError> {
    if run(capacity, ops).is_ok() {
        return Ok(());
    }
    let (ops, error) = proptest::shrink(ops.to_vec(), |ops| run(capacity, ops));
    Err(TestCaseError(format!(
        "{error}\n  capacity {capacity}, shrunk program ({} ops): {ops:?}",
        ops.len()
    )))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn buffer_matches_the_parallel_array_reference(
        capacity in 1..6usize,
        ops in proptest::collection::vec(op_strategy(), 1..300),
    ) {
        check(capacity, &ops)?;
    }
}

#[test]
fn a_slot_reused_256_times_aliases_its_first_reference_in_both() {
    let ops = [
        Op::Store { flow: 1, size: 100 },
        Op::Take { slot: 0 },
        Op::Churn { times: 255 },
        Op::Store { flow: 2, size: 100 },
        Op::Release { pick: 0 },
    ];
    check(1, &ops).unwrap();
}
