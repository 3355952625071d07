//! `GpsVirtualClock` against the ordered-map clock it replaced.
//!
//! The clock keeps its busy sessions in an indexed 4-ary heap of keyed
//! entries over one record per flow. The reference below is an earlier
//! design, kept as a test-only model: an ordered map keyed by
//! `(drain tag, flow id)` beside separate per-flow weight, finish and
//! busy-key arrays. Both must agree bit for bit: V depends on the order
//! in which sessions drain and on the float operations that add and
//! remove busy weight, so any difference in drain order or in the
//! busy-weight arithmetic shows up as a different V.
//!
//! Random programs of arrivals, advances, drains, `set_last_finish`
//! calls and checkpoint round trips compare start and finish tags, V,
//! the busy count and the full checkpoint words after every operation.
//! The clock under test is built from the weight slice or from
//! `FlowSpec`s in a scrambled id order, over weight sets that exercise
//! its interning of distinct weights.
//! A failing program is shrunk to a short one before it is reported.
//! An ignored full-scale case replays a 2^20-flow Zipf incast; run it
//! with `cargo test --release -p fairq --test gps_reference -- --ignored`.

use std::collections::BTreeMap;

use fairq::{GpsVirtualClock, RankPolicy, VirtualTime, WfqRank};
use proptest::prelude::*;
use traffic::{FlowId, FlowSpec, ScaleConfig, ScaleWorkload, Time};

/// The ordered-map GPS clock: the same eq. (1) arithmetic, with the
/// busy set as a `BTreeMap` and the busy key stored beside the finish
/// tag.
#[derive(Debug, Clone)]
struct RefClock {
    weights: Vec<f64>,
    rate_bps: f64,
    v: f64,
    t_last: f64,
    last_finish: Vec<f64>,
    busy: BTreeMap<(VirtualTime, u32), ()>,
    busy_key: Vec<Option<VirtualTime>>,
    sum_phi_busy: f64,
}

impl RefClock {
    fn new(weights: &[f64], rate_bps: f64) -> Self {
        Self {
            weights: weights.to_vec(),
            rate_bps,
            v: 0.0,
            t_last: 0.0,
            last_finish: vec![0.0; weights.len()],
            busy: BTreeMap::new(),
            busy_key: vec![None; weights.len()],
            sum_phi_busy: 0.0,
        }
    }

    fn advance(&mut self, to: Time) {
        let to = to.seconds().max(self.t_last);
        loop {
            let Some((&(drain_v, flow), _)) = self.busy.iter().next() else {
                self.t_last = to;
                return;
            };
            let slope = self.rate_bps / self.sum_phi_busy;
            let t_hit = self.t_last + (drain_v.0 - self.v) / slope;
            if t_hit <= to {
                self.v = drain_v.0;
                self.t_last = t_hit;
                self.busy.remove(&(drain_v, flow));
                self.busy_key[flow as usize] = None;
                self.sum_phi_busy -= self.weights[flow as usize];
                if self.busy.is_empty() {
                    self.sum_phi_busy = 0.0;
                }
            } else {
                self.v += (to - self.t_last) * slope;
                self.t_last = to;
                return;
            }
        }
    }

    fn on_arrival(&mut self, flow: FlowId, size_bits: f64, at: Time) -> (f64, f64) {
        let idx = flow.0 as usize;
        self.advance(at);
        let start = self.v.max(self.last_finish[idx]);
        let finish = start + size_bits / self.weights[idx];
        self.last_finish[idx] = finish;
        if let Some(old) = self.busy_key[idx].take() {
            self.busy.remove(&(old, flow.0));
        } else {
            self.sum_phi_busy += self.weights[idx];
        }
        self.busy.insert((VirtualTime(finish), flow.0), ());
        self.busy_key[idx] = Some(VirtualTime(finish));
        (start, finish)
    }

    fn drain(&mut self) -> f64 {
        while let Some((&(drain_v, _), _)) = self.busy.iter().next() {
            let slope = self.rate_bps / self.sum_phi_busy;
            let t_hit = self.t_last + (drain_v.0 - self.v) / slope;
            self.advance(Time(t_hit));
        }
        self.t_last
    }

    fn set_last_finish(&mut self, flow: FlowId, v: f64) {
        let idx = flow.0 as usize;
        if let Some(old) = self.busy_key[idx].take() {
            self.busy.remove(&(old, flow.0));
            self.sum_phi_busy -= self.weights[idx];
            if self.busy.is_empty() {
                self.sum_phi_busy = 0.0;
            }
        }
        self.last_finish[idx] = v;
        if v > self.v {
            self.busy.insert((VirtualTime(v), flow.0), ());
            self.busy_key[idx] = Some(VirtualTime(v));
            self.sum_phi_busy += self.weights[idx];
        }
    }

    fn state_words(&self) -> Vec<u64> {
        let n = self.weights.len();
        let mut words = vec![self.v.to_bits(), self.t_last.to_bits(), n as u64];
        words.extend(self.last_finish.iter().map(|f| f.to_bits()));
        words.extend(self.busy_key.iter().map(|k| u64::from(k.is_some())));
        words
    }

    fn load_state_words(&mut self, words: &[u64]) {
        let n = self.weights.len();
        self.v = f64::from_bits(words[0]);
        self.t_last = f64::from_bits(words[1]);
        self.busy.clear();
        self.sum_phi_busy = 0.0;
        for i in 0..n {
            self.last_finish[i] = f64::from_bits(words[3 + i]);
            self.busy_key[i] = None;
            if words[3 + n + i] != 0 {
                let key = VirtualTime(self.last_finish[i]);
                self.busy.insert((key, i as u32), ());
                self.busy_key[i] = Some(key);
                self.sum_phi_busy += self.weights[i];
            }
        }
    }
}

/// Where a `SetLastFinish` puts the flow's new tag, relative to the
/// reference's state just before the call.
#[derive(Debug, Clone, Copy)]
enum TagAt {
    /// `x` below V: the flow goes (or stays) idle.
    BelowV,
    /// Exactly V: idle too, since busy means strictly ahead of V.
    AtV,
    /// Between V and the flow's current tag: lowers a busy flow's key.
    Lower,
    /// Equal to another flow's tag: a tie broken by flow id.
    TieWith(u32),
    /// `x` above the flow's current tag.
    Above,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// An arrival `gap_ns` after the previous event time.
    Arrive { flow: u32, bits: u32, gap_ns: u32 },
    /// Advance real time by `gap_ns`.
    Advance { gap_ns: u32 },
    /// Run until every session drains.
    Drain,
    /// Overwrite a flow's last finish tag.
    SetLastFinish { flow: u32, at: TagAt, x: u32 },
    /// Checkpoint both clocks and restore each into a fresh clock.
    RoundTrip,
}

/// Packet sizes, in bits, weighted towards equal and zero sizes so that
/// equal finish tags on different flows are common.
const SIZES: [u32; 6] = [0, 512, 512, 4000, 12_000, 1];

fn op_strategy(flows: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        12 => (0..flows, 0..SIZES.len() as u32, 0u32..4, 0u32..4000).prop_map(
            |(flow, size, gap_kind, gap)| Op::Arrive {
                flow,
                bits: SIZES[size as usize],
                // Half the arrivals land at the same instant as the
                // previous event.
                gap_ns: if gap_kind < 2 { 0 } else { gap },
            }
        ),
        3 => (0u32..20_000).prop_map(|gap_ns| Op::Advance { gap_ns }),
        1 => Just(Op::Drain),
        4 => (0..flows, 0u32..5, 0..flows, 0u32..65_536).prop_map(|(flow, kind, other, x)| {
            let at = match kind {
                0 => TagAt::BelowV,
                1 => TagAt::AtV,
                2 => TagAt::Lower,
                3 => TagAt::TieWith(other),
                _ => TagAt::Above,
            };
            Op::SetLastFinish { flow, at, x }
        }),
        2 => Just(Op::RoundTrip),
    ]
}

/// Weight sets: all equal; non-dyadic fractions, whose busy-weight
/// sums round, so the order of removals shows in V; and a population
/// large enough for the heap to grow three levels deep. The clock
/// interns weights into classes, so [`weight_set`] adds populations
/// that exercise the interning: many distinct weights, repeated weights
/// that are never adjacent, and all-distinct weights.
const WEIGHTS: [&[f64]; 4] = [
    &[1.0; 6],
    &[0.1, 0.7, 1.3, 0.1, 2.9],
    &[7.0],
    &[
        0.3, 1.1, 0.7, 2.0, 0.1, 1.9, 0.3, 1.1, 0.7, 2.0, 0.1, 1.9, 0.3, 1.1, 0.7, 2.0, 0.1, 1.9,
        0.3, 1.1, 0.7, 2.0, 0.1, 1.9, 0.3, 1.1, 0.7, 2.0, 0.1, 1.9, 0.3, 1.1, 0.7, 2.0, 0.1, 1.9,
        0.3, 1.1, 0.7, 2.0,
    ],
];

/// Number of weight sets [`weight_set`] builds.
const WEIGHT_SETS: usize = WEIGHTS.len() + 3;

/// Weight set `set`: one of [`WEIGHTS`], or a computed population.
fn weight_set(set: usize) -> Vec<f64> {
    const CYCLE: [f64; 7] = [0.3, 1.7, 0.9, 2.3, 0.1, 1.1, 0.7];
    match set.checked_sub(WEIGHTS.len()) {
        None => WEIGHTS[set].to_vec(),
        // 64 flows over 48 distinct weights.
        Some(0) => (0..64).map(|i| 0.1 + f64::from(i % 48) * 0.37).collect(),
        // Each of seven weights every seventh flow, never beside itself.
        Some(1) => (0..35).map(|i| CYCLE[(i * 5) % 7]).collect(),
        // 64 flows, no two weights equal.
        _ => (0..64).map(|i| 0.05 + f64::from(i) * 0.113).collect(),
    }
}

/// A flow population and how the clock under test is built for it.
#[derive(Debug)]
struct Population {
    /// Weight of flow `i`, as the reference is built.
    weights: Vec<f64>,
    /// Build the clock from `FlowSpec`s handed over in a scrambled id
    /// order instead of from the dense weight slice.
    from_specs: bool,
}

impl Population {
    fn clock(&self, rate_bps: f64) -> GpsVirtualClock {
        if !self.from_specs {
            return GpsVirtualClock::new(&self.weights, rate_bps);
        }
        GpsVirtualClock::for_flows(&scrambled_specs(&self.weights), rate_bps)
    }
}

/// One `FlowSpec` per weight, ids in a fixed scrambled order.
fn scrambled_specs(weights: &[f64]) -> Vec<FlowSpec> {
    let mut ids: Vec<u32> = (0..weights.len() as u32).collect();
    ids.sort_by_key(|&i| i.wrapping_mul(0x9e37_79b9).rotate_left(7));
    ids.iter()
        .map(|&i| FlowSpec::new(FlowId(i), weights[i as usize], 1e6))
        .collect()
}

fn program_strategy() -> impl Strategy<Value = (usize, bool, Vec<Op>)> {
    // Flow ids are drawn below 64 and reduced onto the chosen weight
    // set.
    (
        0..WEIGHT_SETS,
        any::<bool>(),
        proptest::collection::vec(op_strategy(64), 1..400),
    )
}

/// Runs `ops` on both clocks, comparing after every operation; returns
/// the first disagreement.
fn run(population: &Population, ops: &[Op]) -> Result<(), String> {
    const RATE: f64 = 1e6;
    let weights = &population.weights;
    let n = weights.len() as u32;
    let mut clock = population.clock(RATE);
    let mut reference = RefClock::new(weights, RATE);
    let mut now = 0.0f64;
    for (step, op) in ops.iter().enumerate() {
        let fail = |what: &str, got: &dyn std::fmt::Debug, want: &dyn std::fmt::Debug| {
            Err(format!(
                "op {step} {op:?}: {what} is {got:?}, reference {want:?}"
            ))
        };
        match *op {
            Op::Arrive { flow, bits, gap_ns } => {
                now += f64::from(gap_ns) * 1e-9;
                let flow = FlowId(flow % n);
                let (s, f) = clock.on_arrival(flow, f64::from(bits), Time(now));
                let (rs, rf) = reference.on_arrival(flow, f64::from(bits), Time(now));
                if (s.value().to_bits(), f.value().to_bits()) != (rs.to_bits(), rf.to_bits()) {
                    return fail("(start, finish)", &(s, f), &(rs, rf));
                }
            }
            Op::Advance { gap_ns } => {
                now += f64::from(gap_ns) * 1e-9;
                clock.advance(Time(now));
                reference.advance(Time(now));
            }
            Op::Drain => {
                let t = clock.drain().seconds();
                let rt = reference.drain();
                if t.to_bits() != rt.to_bits() {
                    return fail("drain time", &t, &rt);
                }
                now = now.max(t);
            }
            Op::SetLastFinish { flow, at, x } => {
                let idx = (flow % n) as usize;
                let v = reference.v;
                let cur = reference.last_finish[idx];
                let x = f64::from(x);
                let tag = match at {
                    TagAt::BelowV => v - x,
                    TagAt::AtV => v,
                    TagAt::Lower => v + (cur - v).max(0.0) * (x / 65_536.0),
                    TagAt::TieWith(other) => reference.last_finish[(other % n) as usize],
                    TagAt::Above => cur.max(v) + x,
                };
                clock.set_last_finish(FlowId(idx as u32), VirtualTime(tag));
                reference.set_last_finish(FlowId(idx as u32), tag);
            }
            Op::RoundTrip => {
                let words = clock.state_words();
                clock = population.clock(RATE);
                clock
                    .load_state_words(&words)
                    .expect("a clock's own image loads");
                let ref_words = reference.state_words();
                reference = RefClock::new(weights, RATE);
                reference.load_state_words(&ref_words);
            }
        }
        let (v, rv) = (clock.virtual_now().value(), reference.v);
        if v.to_bits() != rv.to_bits() {
            return fail("V", &v, &rv);
        }
        if clock.busy_sessions() != reference.busy.len() {
            return fail(
                "busy sessions",
                &clock.busy_sessions(),
                &reference.busy.len(),
            );
        }
        let (words, ref_words) = (clock.state_words(), reference.state_words());
        if words != ref_words {
            return fail("state words", &words, &ref_words);
        }
    }
    Ok(())
}

fn check(population: &Population, ops: &[Op]) -> Result<(), TestCaseError> {
    if run(population, ops).is_ok() {
        return Ok(());
    }
    let (ops, error) = proptest::shrink(ops.to_vec(), |ops| run(population, ops));
    Err(TestCaseError(format!(
        "{error}\n  {population:?}, shrunk program ({} ops): {ops:?}",
        ops.len()
    )))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn clock_matches_the_ordered_map_reference(program in program_strategy()) {
        let (set, from_specs, ops) = program;
        let population = Population { weights: weight_set(set), from_specs };
        check(&population, &ops)?;
    }
}

/// A fixed program reaches every case the comparison is about: equal
/// tags on different flows, zero-size packets, a lowered busy tag, a
/// tag at V, and a restore mid-backlog.
#[test]
fn a_fixed_program_reaches_ties_lowering_and_restores() {
    use Op::*;
    let arrive = |flow, bits, gap_ns| Arrive { flow, bits, gap_ns };
    let set = |flow, at| SetLastFinish {
        flow,
        at,
        x: 30_000,
    };
    let ops = [
        arrive(0, 512, 0),
        arrive(1, 512, 0),
        arrive(2, 512, 0),
        arrive(3, 0, 0),
        Advance { gap_ns: 100 },
        set(1, TagAt::Lower),
        set(2, TagAt::TieWith(0)),
        set(4, TagAt::AtV),
        RoundTrip,
        arrive(4, 4000, 50),
        arrive(0, 0, 0),
        Advance { gap_ns: 700 },
        Drain,
        arrive(5, 512, 0),
    ];
    let population = Population {
        weights: WEIGHTS[0].to_vec(),
        from_specs: false,
    };
    let mut clock = population.clock(1e6);
    // Flows 0–2 queue equal tags at t = 0.
    let f0 = clock.on_arrival(FlowId(0), 512.0, Time(0.0)).1;
    assert_eq!(clock.on_arrival(FlowId(1), 512.0, Time(0.0)).1, f0);
    check(&population, &ops).unwrap_or_else(|e| panic!("{}", e.0));
}

/// Spec ids that repeat or leave a gap are refused with the same
/// message by the clock and by the WFQ policy built on it.
#[test]
fn duplicate_or_missing_spec_ids_are_refused() {
    let spec = |id| FlowSpec::new(FlowId(id), 1.0, 1e6);
    let builds: [fn(&[FlowSpec]); 2] = [
        |specs| drop(GpsVirtualClock::for_flows(specs, 1e6)),
        |specs| drop(WfqRank::default().for_link(specs, 1e6)),
    ];
    for ids in [[0, 1, 1], [0, 1, 3], [2, 2, 0]] {
        let specs: Vec<_> = ids.into_iter().map(spec).collect();
        for build in builds {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| build(&specs)))
                .expect_err("bad ids accepted");
            let msg = err
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| err.downcast_ref::<String>().map(String::as_str))
                .unwrap_or_default();
            assert!(
                msg.contains("flow ids must be dense and unique"),
                "ids {ids:?}: {msg}"
            );
        }
    }
}

/// The deep incast at full scale: 2^20 unit-weight flows, Zipf 1.05
/// arrivals at 4x the link rate in four rounds of 2^18, each round
/// drained before the next, with a flow migration every 4096 arrivals
/// and a checkpoint round trip in the middle of every round. Tags, V
/// and the busy count are compared after every operation; the full
/// checkpoint words, which cost O(flows), at every round's middle and
/// end.
#[test]
#[ignore = "full scale: run in release with --ignored"]
fn clock_matches_the_reference_on_a_deep_zipf_incast() {
    const FLOWS: u32 = 1 << 20;
    const ROUNDS: usize = 4;
    const PER_ROUND: usize = 1 << 18;
    const LINK_BPS: f64 = 10e9;
    let weights = vec![1.0; FLOWS as usize];
    let packets: Vec<_> = ScaleWorkload::new(ScaleConfig {
        flows: FLOWS,
        packets: (ROUNDS * PER_ROUND) as u64,
        zipf_exponent: 1.05,
        rate_bps: 4.0 * LINK_BPS,
        min_bytes: 64,
        max_bytes: 1500,
        churn: None,
        seed: 7,
    })
    .collect();
    let mut clock = GpsVirtualClock::new(&weights, LINK_BPS);
    let mut reference = RefClock::new(&weights, LINK_BPS);
    let same_words = |clock: &GpsVirtualClock, reference: &RefClock, at: &str| {
        assert!(
            clock.state_words() == reference.state_words(),
            "state words differ at {at}"
        );
    };
    let mut round_start = 0.0;
    let mut prev_last = 0.0;
    for (r, round) in packets.chunks(PER_ROUND).enumerate() {
        for (i, p) in round.iter().enumerate() {
            let at = Time(round_start + (p.arrival.0 - prev_last));
            let (s, f) = clock.on_arrival(p.flow, p.size_bits(), at);
            let (rs, rf) = reference.on_arrival(p.flow, p.size_bits(), at);
            assert_eq!(
                (s.value().to_bits(), f.value().to_bits()),
                (rs.to_bits(), rf.to_bits()),
                "round {r} arrival {i}"
            );
            if i % 4096 == 4095 {
                // Adopt a migrated-in flow slightly ahead of V.
                let flow = FlowId((p.flow.0 * 7 + 13) % FLOWS);
                let tag = reference.v + f64::from(p.size_bytes);
                clock.set_last_finish(flow, VirtualTime(tag));
                reference.set_last_finish(flow, tag);
            }
            if i == PER_ROUND / 2 {
                same_words(&clock, &reference, &format!("round {r} middle"));
                let words = clock.state_words();
                clock = GpsVirtualClock::new(&weights, LINK_BPS);
                clock
                    .load_state_words(&words)
                    .expect("a clock's own image loads");
                reference.load_state_words(&words);
            }
            assert_eq!(
                clock.virtual_now().value().to_bits(),
                reference.v.to_bits(),
                "V after round {r} arrival {i}"
            );
            assert_eq!(clock.busy_sessions(), reference.busy.len());
        }
        prev_last = round.last().expect("non-empty round").arrival.0;
        same_words(&clock, &reference, &format!("round {r} end"));
        let drained = clock.drain().seconds();
        assert_eq!(
            drained.to_bits(),
            reference.drain().to_bits(),
            "round {r} drain"
        );
        same_words(&clock, &reference, &format!("round {r} drained"));
        round_start = drained;
    }
}
