//! Non-preemptive output-link simulation: [`serve_links`], the one loop
//! that serves every simulated egress port (any [`Egress`]).

use traffic::{Packet, Time};

use crate::scheduler::Scheduler;

/// One served packet with its transmission window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Departure {
    /// The packet served.
    pub packet: Packet,
    /// Transmission start.
    pub start: Time,
    /// Transmission end (the departure/finish time compared against GPS).
    pub finish: Time,
}

impl Departure {
    /// Queueing + transmission delay experienced by the packet.
    pub fn delay(&self) -> Time {
        self.finish - self.packet.arrival
    }
}

/// Whether a run survives an [`Admit::Refused`] packet. The refusing
/// scheduler counts the refusal itself either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DropPolicy {
    /// Abort the run on the first refusal, returning its error. The
    /// default.
    #[default]
    Error,
    /// Count the drop and keep serving (the overload-study semantics);
    /// [`Admit::Fatal`] still aborts.
    CountAndContinue,
}

/// The outcome of offering one packet to an [`Egress`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admit<E> {
    /// Queued on this port.
    Queued(usize),
    /// This port refused the packet (buffer exhaustion, tag range).
    Refused(usize, E),
    /// The run cannot go on under any policy (an unknown flow).
    Fatal(E),
}

/// Egress ports that [`serve_links`] drives.
pub trait Egress {
    /// Why an admission failed.
    type Error;
    /// What a served packet carries besides its timing.
    type Stamp;

    /// Offers one packet at its arrival time.
    fn admit(&mut self, pkt: Packet) -> Admit<Self::Error>;

    /// Removes `port`'s next packet for a link free at `now`, or `None`
    /// when the port has nothing to send.
    fn serve(&mut self, port: usize, now: Time) -> Option<(Packet, Self::Stamp)>;

    /// One rebalance round; returns the port a migration moved packets
    /// onto, if any.
    fn rebalance(&mut self) -> Option<usize> {
        None
    }
}

/// One port's link: when it comes free, and whether its last poll came
/// back empty.
#[derive(Clone, Copy, Default)]
struct Link {
    free_at: Time,
    idle: bool,
}

impl Link {
    /// Packets reached the port at `now`: an idle link polls it again,
    /// freeing no earlier than `now`, so no packet starts before the
    /// instant that brought it.
    fn wake(&mut self, now: Time) {
        if self.idle {
            self.idle = false;
            self.free_at = self.free_at.max(now);
        }
    }

    /// Serves the port while its link frees strictly before `before`.
    /// A link never frees before a packet it holds arrived (a busy link
    /// was served up to the latest arrival instant, and [`Link::wake`]
    /// covers an idle one), so each packet starts when the link frees.
    fn serve_before<E: Egress>(
        &mut self,
        egress: &mut E,
        port: usize,
        rate_bps: f64,
        before: Time,
        depart: &mut impl FnMut(usize, Departure, E::Stamp),
    ) {
        while !self.idle && self.free_at < before {
            let Some((packet, stamp)) = egress.serve(port, self.free_at) else {
                self.idle = true;
                return;
            };
            let start = self.free_at;
            debug_assert!(packet.arrival <= start, "packet served before it arrived");
            let finish = start + packet.service_time(rate_bps);
            self.free_at = finish;
            depart(
                port,
                Departure {
                    packet,
                    start,
                    finish,
                },
                stamp,
            );
        }
    }
}

/// Runs `trace` through `egress` with one non-preemptive, work-conserving
/// link per entry of `rates_bps`, handing each departure to `depart`;
/// returns the drops counted under [`DropPolicy::CountAndContinue`].
///
/// A link that comes free serves from the packets present at that
/// instant, the rule PGPS rests on. Arrivals are admitted in trace order,
/// grouped by instant; before the group at `t` every port whose link
/// frees strictly before `t` is served, so a link freeing at `t` chooses
/// among the whole group. A port whose poll came back empty is polled
/// again only after an admission to it or a rebalance round that moved
/// packets onto it; either way its link then frees no earlier than that
/// instant.
/// [`Egress::rebalance`] runs after every `rebalance_every` arrivals.
/// When the trace ends, every port drains.
///
/// # Errors
///
/// The first [`Admit::Fatal`], or under [`DropPolicy::Error`] the first
/// refusal. Departures handed out before it stay handed out.
///
/// # Panics
///
/// Panics if the trace is not sorted by arrival time, or on a port
/// outside `rates_bps`.
pub fn serve_links<E: Egress>(
    egress: &mut E,
    rates_bps: &[f64],
    trace: impl IntoIterator<Item = Packet>,
    drop_policy: DropPolicy,
    rebalance_every: Option<usize>,
    mut depart: impl FnMut(usize, Departure, E::Stamp),
) -> Result<u64, E::Error> {
    let mut links = vec![Link::default(); rates_bps.len()];
    let mut now = Time(f64::NEG_INFINITY);
    let mut drops = 0;
    for (n, pkt) in trace.into_iter().enumerate() {
        assert!(pkt.arrival >= now, "trace must be sorted by arrival time");
        if pkt.arrival > now {
            now = pkt.arrival;
            for (port, link) in links.iter_mut().enumerate() {
                link.serve_before(egress, port, rates_bps[port], now, &mut depart);
            }
        }
        let port = match egress.admit(pkt) {
            Admit::Queued(port) => port,
            Admit::Refused(port, _) if drop_policy == DropPolicy::CountAndContinue => {
                drops += 1;
                port
            }
            Admit::Refused(_, e) | Admit::Fatal(e) => return Err(e),
        };
        links[port].wake(now);
        if rebalance_every.is_some_and(|every| (n + 1).is_multiple_of(every)) {
            if let Some(port) = egress.rebalance() {
                links[port].wake(now);
            }
        }
    }
    let end = Time(f64::INFINITY);
    for (port, link) in links.iter_mut().enumerate() {
        link.serve_before(egress, port, rates_bps[port], end, &mut depart);
    }
    Ok(drops)
}

/// Drives a [`Scheduler`] over an arrival trace on a fixed-rate link.
///
/// The link is non-preemptive and work-conserving: whenever it is idle
/// and the scheduler holds packets, the scheduler picks one and the link
/// transmits it back to back ([`serve_links`] over one port).
///
/// # Example
///
/// ```
/// use fairq::{Fifo, LinkSim};
/// use traffic::{FlowId, Packet, Time};
///
/// let trace = vec![
///     Packet { flow: FlowId(0), size_bytes: 125, arrival: Time(0.0), seq: 0 },
///     Packet { flow: FlowId(0), size_bytes: 125, arrival: Time(0.0), seq: 1 },
/// ];
/// let deps = LinkSim::new(1e6, Fifo::new()).run(&trace);
/// assert_eq!(deps.len(), 2);
/// assert_eq!(deps[1].finish, Time(0.002)); // two 1000-bit packets at 1 Mb/s
/// ```
#[derive(Debug)]
pub struct LinkSim<S> {
    rate_bps: f64,
    scheduler: S,
}

/// A software scheduler as one egress port, checked for work
/// conservation on every empty poll.
struct Software<'a, S>(&'a mut S);

impl<S: Scheduler> Egress for Software<'_, S> {
    type Error = std::convert::Infallible;
    type Stamp = ();

    fn admit(&mut self, pkt: Packet) -> Admit<Self::Error> {
        self.0.on_arrival(pkt);
        Admit::Queued(0)
    }

    fn serve(&mut self, _port: usize, now: Time) -> Option<(Packet, ())> {
        let pkt = self.0.select(now);
        let name = self.0.name();
        assert!(
            pkt.is_some() || self.0.backlog() == 0,
            "{name} is not work-conserving"
        );
        pkt.map(|p| (p, ()))
    }
}

impl<S: Scheduler> LinkSim<S> {
    /// Creates a link of `rate_bps` driven by `scheduler`.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive and finite.
    pub fn new(rate_bps: f64, scheduler: S) -> Self {
        assert!(
            rate_bps > 0.0 && rate_bps.is_finite(),
            "rate must be positive and finite"
        );
        Self {
            rate_bps,
            scheduler,
        }
    }

    /// Runs the full trace to completion and returns every departure in
    /// service order.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not sorted by arrival time, or if the
    /// scheduler violates work conservation or loses packets.
    pub fn run(&mut self, trace: &[Packet]) -> Vec<Departure> {
        let mut out = Vec::with_capacity(trace.len());
        let Ok(_) = serve_links(
            &mut Software(&mut self.scheduler),
            &[self.rate_bps],
            trace.iter().copied(),
            DropPolicy::Error,
            None,
            |_, d, ()| out.push(d),
        );
        assert_eq!(out.len(), trace.len(), "scheduler lost packets");
        out
    }

    /// The scheduler, for post-run inspection.
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Fifo;
    use crate::timestamp::Wfq;
    use traffic::{FlowId, FlowSpec};

    fn pkt(seq: u64, flow: u32, at: f64, bytes: u32) -> Packet {
        Packet {
            flow: FlowId(flow),
            size_bytes: bytes,
            arrival: Time(at),
            seq,
        }
    }

    #[test]
    fn back_to_back_service_when_backlogged() {
        let trace = vec![
            pkt(0, 0, 0.0, 125),
            pkt(1, 0, 0.0, 125),
            pkt(2, 0, 0.0, 125),
        ];
        let deps = LinkSim::new(1e6, Fifo::new()).run(&trace);
        assert_eq!(deps[0].start, Time(0.0));
        assert_eq!(deps[1].start, deps[0].finish);
        assert_eq!(deps[2].start, deps[1].finish);
    }

    #[test]
    fn idle_gaps_jump_to_next_arrival() {
        let trace = vec![pkt(0, 0, 0.0, 125), pkt(1, 0, 5.0, 125)];
        let deps = LinkSim::new(1e6, Fifo::new()).run(&trace);
        assert_eq!(deps[1].start, Time(5.0));
    }

    #[test]
    fn arrivals_during_transmission_wait_for_completion() {
        // Packet 1 arrives while packet 0 is on the wire; a later, more
        // urgent packet cannot preempt.
        let flows = vec![
            FlowSpec::new(FlowId(0), 1.0, 1e6),
            FlowSpec::new(FlowId(1), 100.0, 1e6),
        ];
        let trace = vec![pkt(0, 0, 0.0, 1250), pkt(1, 1, 0.001, 125)];
        let deps = LinkSim::new(1e6, Wfq::new(&flows, 1e6)).run(&trace);
        assert_eq!(deps[0].packet.seq, 0);
        assert_eq!(deps[1].start, deps[0].finish, "non-preemptive");
    }

    #[test]
    fn delay_accounts_queueing_and_transmission() {
        let trace = vec![pkt(0, 0, 0.0, 125), pkt(1, 0, 0.0, 125)];
        let deps = LinkSim::new(1e6, Fifo::new()).run(&trace);
        assert!((deps[1].delay().seconds() - 0.002).abs() < 1e-12);
    }

    /// A two-port FIFO egress that refuses every third packet and counts
    /// rebalance rounds.
    #[derive(Default)]
    struct Toy {
        queues: [Vec<Packet>; 2],
        offered: usize,
        rounds: usize,
    }

    impl Egress for Toy {
        type Error = u64;
        type Stamp = ();

        fn admit(&mut self, pkt: Packet) -> Admit<u64> {
            self.offered += 1;
            let port = pkt.flow.0 as usize;
            if self.offered.is_multiple_of(3) {
                return Admit::Refused(port, pkt.seq);
            }
            self.queues[port].push(pkt);
            Admit::Queued(port)
        }

        fn serve(&mut self, port: usize, _now: Time) -> Option<(Packet, ())> {
            let q = &mut self.queues[port];
            (!q.is_empty()).then(|| (q.remove(0), ()))
        }

        fn rebalance(&mut self) -> Option<usize> {
            self.rounds += 1;
            None
        }
    }

    #[test]
    fn refusals_follow_the_drop_policy_and_rebalance_runs_on_cadence() {
        let trace: Vec<Packet> = (0..7).map(|i| pkt(i, (i % 2) as u32, 0.0, 125)).collect();
        let mut toy = Toy::default();
        let mut served = Vec::new();
        let drops = serve_links(
            &mut toy,
            &[1e6, 2e6],
            trace.iter().copied(),
            DropPolicy::CountAndContinue,
            Some(3),
            |port, d, ()| served.push((port, d.packet.seq, d.finish)),
        );
        assert_eq!(drops, Ok(2));
        assert_eq!(toy.rounds, 2);
        // Each port is its own link at its own rate.
        assert_eq!(
            served,
            vec![
                (0, 0, Time(0.001)),
                (0, 4, Time(0.002)),
                (0, 6, Time(0.003)),
                (1, 1, Time(0.0005)),
                (1, 3, Time(0.001)),
            ]
        );
        let refused = serve_links(
            &mut Toy::default(),
            &[1e6, 1e6],
            trace.iter().copied(),
            DropPolicy::Error,
            None,
            |_, _, ()| {},
        );
        assert_eq!(refused, Err(2), "the first refusal aborts");
    }

    /// Two FIFO ports whose rebalance round moves port 0's backlog onto
    /// port 1.
    #[derive(Default)]
    struct Mover([Vec<Packet>; 2]);

    impl Egress for Mover {
        type Error = ();
        type Stamp = ();

        fn admit(&mut self, pkt: Packet) -> Admit<()> {
            self.0[pkt.flow.0 as usize].push(pkt);
            Admit::Queued(pkt.flow.0 as usize)
        }

        fn serve(&mut self, port: usize, _now: Time) -> Option<(Packet, ())> {
            let q = &mut self.0[port];
            (!q.is_empty()).then(|| (q.remove(0), ()))
        }

        fn rebalance(&mut self) -> Option<usize> {
            let moved = std::mem::take(&mut self.0[0]);
            self.0[1].extend(moved);
            Some(1)
        }
    }

    #[test]
    fn a_port_woken_by_a_rebalance_starts_no_earlier_than_the_round() {
        // 1000-bit packets on 2 kb/s links take 0.5 s. Port 1 serves
        // packet 0 and idles from 0.5 s; the round after the sixth
        // arrival, at 1.0 s, moves port 0's last three packets over.
        let mut trace = vec![pkt(0, 1, 0.0, 125)];
        trace.extend((1..5).map(|i| pkt(i, 0, 0.0, 125)));
        trace.push(pkt(5, 0, 1.0, 125));
        let mut starts = Vec::new();
        let drops = serve_links(
            &mut Mover::default(),
            &[2e3, 2e3],
            trace,
            DropPolicy::Error,
            Some(6),
            |port, d, ()| starts.push((port, d.packet.seq, d.start)),
        );
        assert_eq!(drops, Ok(0));
        starts.retain(|&(port, seq, _)| port == 1 && seq > 0);
        assert_eq!(
            starts,
            [(1, 3, Time(1.0)), (1, 4, Time(1.5)), (1, 5, Time(2.0))]
        );
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn unsorted_trace_rejected() {
        let trace = vec![pkt(0, 0, 1.0, 125), pkt(1, 0, 0.0, 125)];
        let _ = LinkSim::new(1e6, Fifo::new()).run(&trace);
    }
}
