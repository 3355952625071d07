//! The layer recorder for the traced run.
//!
//! `HwScheduler` composes four public layers — a `RankPolicy`, the
//! `TagQuantizer`, the `PacketBuffer` and a `SortBackend` — and keeps
//! its bookkeeping between them private. This module re-expresses that
//! composition (admission with push-out, service, flow extraction and
//! installation) over the same public types, with the `HeapSorter`
//! oracle as sorter, and logs every call each layer receives with its
//! result. It is driven by the shard-level call stream of the oracle
//! pass and must reproduce the library's departures exactly, or the
//! traced run fails: the logs are only trusted because they replay the
//! library's behaviour call for call.
//!
//! Fault injection, WRED and telemetry are left out: no workload uses
//! the first two, and telemetry records no layer call.

use std::collections::BTreeSet;

use fairq::{RankPolicy, VirtualTime};
use scheduler::{AdmissionPolicy, PacketBuffer, TagQuantizer, WrapPolicy};
use statesync::VClockXlat;
use tagsort::{BackendSpec, HeapSorter, PacketRef, SortBackend, Tag};
use traffic::{FlowId, Packet};

use crate::drive::{ShardOp, Stream};
use crate::workload::Workload;

/// One rank-policy call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RankOp {
    Rank { shard: u8, seq: u32, out: f64 },
    Service { shard: u8, seq: u32, rank: f64 },
    Floor { shard: u8, out: f64 },
    FlowFinish { shard: u8, flow: u32, out: f64 },
    Adopt { shard: u8, flow: u32, finish: f64 },
}

/// One quantizer call. A quantize's recycled sections follow in
/// [`Logs::recycled`], `recycles` of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuantOp {
    Quantize {
        shard: u8,
        finish: f64,
        min_tick: Option<u64>,
        tag: u32,
        tick: u64,
        clamped: bool,
        recycles: u32,
    },
    Rebase {
        shard: u8,
        at: f64,
    },
}

/// One packet-buffer call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufOp {
    Store {
        shard: u8,
        seq: u32,
        out: Option<PacketRef>,
    },
    Release {
        shard: u8,
        r: PacketRef,
        seq: Option<u32>,
    },
}

/// One sort-backend call. An extraction's entries follow in
/// [`Logs::taken`], `taken` of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOp {
    Insert {
        shard: u8,
        tag: Tag,
        slot: PacketRef,
        ok: bool,
    },
    PopMin {
        shard: u8,
        out: Option<(Tag, PacketRef)>,
    },
    PopMax {
        shard: u8,
        out: Option<(Tag, PacketRef)>,
    },
    Recycle {
        shard: u8,
        section: u32,
    },
    Extract {
        shard: u8,
        taken: u32,
    },
}

/// Which layer a log entry belongs to, indexing [`Logs::starts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Rank = 0,
    Quantize = 1,
    Buffer = 2,
    Sort = 3,
}

/// Every layer's calls in global order, cut at the frontend's batches.
#[derive(Debug, Clone, Default)]
pub struct Logs {
    pub rank: Vec<RankOp>,
    pub quant: Vec<QuantOp>,
    pub recycled: Vec<u32>,
    pub buf: Vec<BufOp>,
    pub sort: Vec<SortOp>,
    pub taken: Vec<(Tag, PacketRef)>,
    /// `starts[b][layer]` opens batch `b` of that layer's log; one
    /// extra entry closes the logs.
    pub starts: Vec<[usize; 4]>,
}

impl Logs {
    fn mark(&mut self) {
        self.starts.push([
            self.rank.len(),
            self.quant.len(),
            self.buf.len(),
            self.sort.len(),
        ]);
    }

    /// The index range of `layer`'s batch `b`.
    pub fn range(&self, layer: Layer, b: usize) -> std::ops::Range<usize> {
        self.starts[b][layer as usize]..self.starts[b + 1][layer as usize]
    }
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    tick: u64,
    stamp: u64,
    finish: VirtualTime,
    full: PacketRef,
}

/// A flow in transit: its packets with their exact ranks, plus the
/// source shard's history needed to translate them.
struct Moving {
    entries: Vec<(Packet, VirtualTime)>,
    last_finish: VirtualTime,
    floor: VirtualTime,
}

struct Shard<P> {
    id: u8,
    policy: P,
    quantizer: TagQuantizer,
    buffer: PacketBuffer,
    sorter: HeapSorter,
    outstanding: BTreeSet<(u64, u64)>,
    slots: Vec<Option<Slot>>,
    next_stamp: u64,
    push_out: bool,
}

impl<P: RankPolicy> Shard<P> {
    fn enqueue(&mut self, pkt: Packet, log: &mut Logs) -> bool {
        let finish = self.policy.rank(&pkt);
        log.rank.push(RankOp::Rank {
            shard: self.id,
            seq: pkt.seq as u32,
            out: finish.value(),
        });
        self.admit(pkt, finish, true, log)
    }

    fn admit(&mut self, pkt: Packet, finish: VirtualTime, arrival: bool, log: &mut Logs) -> bool {
        let id = self.id;
        if self.sorter.is_empty()
            && self.quantizer.policy() == WrapPolicy::Saturate
            && self.policy.monotone()
        {
            let at = self.policy.rank_floor();
            log.rank.push(RankOp::Floor {
                shard: id,
                out: at.value(),
            });
            self.quantizer.rebase(at);
            log.quant.push(QuantOp::Rebase {
                shard: id,
                at: at.value(),
            });
        }
        let min_tick = self.outstanding.first().map(|&(t, _)| t);
        let out = self.quantizer.quantize(finish, min_tick);
        log.quant.push(QuantOp::Quantize {
            shard: id,
            finish: finish.value(),
            min_tick,
            tag: out.tag.value(),
            tick: out.tick,
            clamped: out.clamped,
            recycles: out.recycle.len() as u32,
        });
        log.recycled.extend_from_slice(&out.recycle);
        for &section in &out.recycle {
            self.sorter.recycle_section(section);
            log.sort.push(SortOp::Recycle { shard: id, section });
        }
        let mut stored = self.store(pkt, log);
        if stored.is_none() && arrival && self.push_out && self.evict_worse(out.tick, log) {
            stored = self.store(pkt, log);
        }
        let Some(full) = stored else {
            return false;
        };
        let slot = PacketRef(full.index());
        let ok = self.sorter.insert(out.tag, slot).is_ok();
        log.sort.push(SortOp::Insert {
            shard: id,
            tag: out.tag,
            slot,
            ok,
        });
        if !ok {
            self.release(full, log);
            return false;
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.outstanding.insert((out.tick, stamp));
        self.slots[slot.index() as usize] = Some(Slot {
            tick: out.tick,
            stamp,
            finish,
            full,
        });
        true
    }

    fn store(&mut self, pkt: Packet, log: &mut Logs) -> Option<PacketRef> {
        let out = self.buffer.store(pkt);
        log.buf.push(BufOp::Store {
            shard: self.id,
            seq: pkt.seq as u32,
            out,
        });
        out
    }

    fn release(&mut self, r: PacketRef, log: &mut Logs) -> Option<Packet> {
        let pkt = self.buffer.try_release(r);
        log.buf.push(BufOp::Release {
            shard: self.id,
            r,
            seq: pkt.map(|p| p.seq as u32),
        });
        pkt
    }

    /// Push-out: evicts the sorter's maximum when the arrival's tick is
    /// strictly smaller than the largest outstanding one.
    fn evict_worse(&mut self, tick: u64, log: &mut Logs) -> bool {
        let Some(&(max_tick, _)) = self.outstanding.last() else {
            return false;
        };
        if tick >= max_tick {
            return false;
        }
        let out = self.sorter.pop_max();
        log.sort.push(SortOp::PopMax {
            shard: self.id,
            out,
        });
        let Some((_, slot)) = out else {
            return false;
        };
        let victim = self.slots[slot.index() as usize]
            .take()
            .expect("the sorter and the slot records agree");
        self.outstanding.remove(&(victim.tick, victim.stamp));
        self.release(victim.full, log).is_some()
    }

    fn dequeue(&mut self, log: &mut Logs) -> Option<Packet> {
        let out = self.sorter.pop_min();
        log.sort.push(SortOp::PopMin {
            shard: self.id,
            out,
        });
        let (_, slot) = out?;
        let s = self.slots[slot.index() as usize]
            .take()
            .expect("the sorter and the slot records agree");
        let pkt = self
            .release(s.full, log)
            .expect("a queued packet has a live buffer slot");
        self.policy.on_service(&pkt, s.finish);
        log.rank.push(RankOp::Service {
            shard: self.id,
            seq: pkt.seq as u32,
            rank: s.finish.value(),
        });
        self.outstanding.remove(&(s.tick, s.stamp));
        Some(pkt)
    }

    fn extract(&mut self, flow: FlowId, log: &mut Logs) -> Moving {
        let (slots, buffer) = (&self.slots, &self.buffer);
        let taken = self.sorter.extract_flow(&mut |slot: PacketRef| {
            slots[slot.index() as usize].is_some_and(|s| buffer.peek(s.full).flow == flow)
        });
        log.sort.push(SortOp::Extract {
            shard: self.id,
            taken: taken.len() as u32,
        });
        log.taken.extend_from_slice(&taken);
        let mut entries = Vec::with_capacity(taken.len());
        for (_, slot) in taken {
            let s = self.slots[slot.index() as usize]
                .take()
                .expect("an extracted entry has a slot record");
            let pkt = self
                .release(s.full, log)
                .expect("an extracted entry has a live buffer slot");
            self.outstanding.remove(&(s.tick, s.stamp));
            entries.push((pkt, s.finish));
        }
        let last_finish = self.policy.flow_finish(flow);
        log.rank.push(RankOp::FlowFinish {
            shard: self.id,
            flow: flow.0,
            out: last_finish.value(),
        });
        let floor = self.policy.rank_floor();
        log.rank.push(RankOp::Floor {
            shard: self.id,
            out: floor.value(),
        });
        Moving {
            entries,
            last_finish,
            floor,
        }
    }

    fn install(&mut self, flow: FlowId, m: &Moving, log: &mut Logs) -> bool {
        let dst_floor = self.policy.rank_floor();
        log.rank.push(RankOp::Floor {
            shard: self.id,
            out: dst_floor.value(),
        });
        let xlat = VClockXlat::new(m.floor, dst_floor);
        let finish = xlat.translate(m.last_finish);
        self.policy.adopt_flow(flow, finish);
        log.rank.push(RankOp::Adopt {
            shard: self.id,
            flow: flow.0,
            finish: finish.value(),
        });
        m.entries.iter().all(|&(pkt, rank)| {
            let pkt = Packet { flow, ..pkt };
            self.admit(pkt, xlat.translate(rank), false, log)
        })
    }
}

/// Replays the oracle's shard-level stream through the layer model,
/// returning every layer's log, or the first place the model and the
/// library disagree.
pub fn record<P: RankPolicy + Default>(wl: &Workload, s: &Stream) -> Result<Logs, String> {
    let cfg = wl.config;
    assert!(
        !matches!(cfg.admission, AdmissionPolicy::Wred { .. }) && cfg.faults.is_none(),
        "the layer model covers tail-drop and push-out admission without faults"
    );
    let spec = BackendSpec {
        geometry: cfg.geometry,
        capacity: cfg.capacity,
        cleanup: cfg.cleanup,
        memory: cfg.memory,
    };
    let mut shards: Vec<Shard<P>> = (0..wl.ports)
        .map(|port| Shard {
            id: port as u8,
            policy: P::default().for_link(&wl.flows, wl.shard_rate()),
            quantizer: TagQuantizer::with_policy(cfg.geometry, cfg.tick_scale, cfg.wrap_policy),
            buffer: PacketBuffer::new(cfg.capacity),
            sorter: HeapSorter::build(&spec),
            outstanding: BTreeSet::new(),
            slots: vec![None; cfg.capacity],
            next_stamp: 0,
            push_out: cfg.admission == AdmissionPolicy::PushOut,
        })
        .collect();
    let mut log = Logs::default();
    for b in 0..s.batches.len() {
        log.mark();
        let (from, to) = s.batch(b);
        for (i, op) in s.shard_ops[from.shard_op..to.shard_op].iter().enumerate() {
            let at = || format!("batch {b}, shard call {}", from.shard_op + i);
            match *op {
                ShardOp::Enq { port, seq, ok } => {
                    let got = shards[port as usize].enqueue(s.packets[seq as usize], &mut log);
                    if got != ok {
                        return Err(format!("{}: admitted {got}, library {ok}", at()));
                    }
                }
                ShardOp::Deq { port, seq } => {
                    let got = shards[port as usize]
                        .dequeue(&mut log)
                        .map(|p| p.seq as u32);
                    if got != seq {
                        return Err(format!("{}: served {got:?}, library {seq:?}", at()));
                    }
                }
                ShardOp::Migrate {
                    flow,
                    from: src,
                    to: dst,
                    moved,
                } => {
                    let moving = shards[src as usize].extract(FlowId(flow), &mut log);
                    if moving.entries.len() != moved as usize {
                        return Err(format!(
                            "{}: moved {} packets, library {moved}",
                            at(),
                            moving.entries.len()
                        ));
                    }
                    let dst = dst.unwrap_or(src) as usize;
                    if !shards[dst].install(FlowId(flow), &moving, &mut log) {
                        return Err(format!("{}: install refused", at()));
                    }
                }
            }
        }
    }
    log.mark();
    Ok(log)
}
