//! Line-rate egress simulation of the hardware scheduler.
//!
//! [`fairq::LinkSim`] drives *software* schedulers; this is its twin for
//! the full hardware pipeline, over the same link loop
//! ([`fairq::serve_links`]): arrivals enter through
//! [`HwScheduler::enqueue`] (tag computation → quantization → buffer →
//! sorter) and the output link serves [`HwScheduler::dequeue`]
//! back-to-back — so the hardware path produces the same
//! [`fairq::Departure`] records and can be scored with the same
//! delay/fairness/GPS-lag metrics as the algorithms it implements.

use fairq::{serve_links, Admit, Departure, DropPolicy, Egress, RankPolicy, WfqRank};
use tagsort::{SortBackend, SortRetrieveCircuit};
use telemetry::LatencyTracker;
use traffic::{Packet, Time};

use crate::hwsched::{HwScheduler, SchedulerError, SojournStamp};

/// The scheduler as one egress port: a refusal other than an unknown
/// flow (buffer exhaustion, tag range) costs only the packet.
impl<B: SortBackend, P: RankPolicy> Egress for HwScheduler<B, P> {
    type Error = SchedulerError;
    type Stamp = SojournStamp;

    fn admit(&mut self, pkt: Packet) -> Admit<SchedulerError> {
        match self.enqueue(pkt) {
            Ok(()) => Admit::Queued(0),
            Err(e @ SchedulerError::UnknownFlow { .. }) => Admit::Fatal(e),
            Err(e) => Admit::Refused(0, e),
        }
    }

    fn serve(&mut self, _port: usize, _now: Time) -> Option<(Packet, SojournStamp)> {
        self.dequeue_stamped()
    }
}

/// A fixed-rate egress simulation over [`fairq::serve_links`]: the
/// scheduler or frontend it drives, one link rate per port, and the run
/// options and drop count that [`HwLinkSim`] and
/// [`crate::ShardedLinkSim`] share.
#[derive(Debug)]
pub struct EgressSim<E> {
    pub(crate) egress: E,
    rates: Vec<f64>,
    drop_policy: DropPolicy,
    pub(crate) rebalance_every: Option<usize>,
    latency: Option<LatencyTracker>,
    drops: u64,
}

impl<E> EgressSim<E> {
    pub(crate) fn over(egress: E, rates: Vec<f64>) -> Self {
        Self {
            egress,
            rates,
            drop_policy: DropPolicy::default(),
            rebalance_every: None,
            latency: None,
            drops: 0,
        }
    }

    /// Sets the refusal handling for subsequent runs (default
    /// [`DropPolicy::Error`]).
    pub fn with_drop_policy(mut self, policy: DropPolicy) -> Self {
        self.drop_policy = policy;
        self
    }

    /// Enables per-flow latency attribution: subsequent runs feed a
    /// [`LatencyTracker`] with each departure's circuit-cycle sojourn
    /// and the simulated wall-clock split (buffer wait vs. service),
    /// keyed by global flow id.
    pub fn with_latency(mut self) -> Self {
        self.latency = Some(LatencyTracker::new());
        self
    }

    /// Packets refused and skipped under
    /// [`DropPolicy::CountAndContinue`] (0 under [`DropPolicy::Error`] —
    /// the run aborts instead). The scheduler-level views of the same
    /// refusals are [`crate::BufferStats::rejected`] and the
    /// `sched_dropped` counter.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// The per-flow latency attribution accumulated so far, if
    /// [`EgressSim::with_latency`] enabled it.
    pub fn latency(&self) -> Option<&LatencyTracker> {
        self.latency.as_ref()
    }
}

impl<E: Egress<Stamp = SojournStamp>> EgressSim<E> {
    /// Runs `trace` to completion, attributing latency and counting
    /// drops, and hands each departure to `depart`.
    pub(crate) fn serve(
        &mut self,
        trace: &[Packet],
        mut depart: impl FnMut(usize, Departure, SojournStamp),
    ) -> Result<(), E::Error> {
        let latency = &mut self.latency;
        self.drops += serve_links(
            &mut self.egress,
            &self.rates,
            trace.iter().copied(),
            self.drop_policy,
            self.rebalance_every,
            |port, d, stamp| {
                if let Some(lat) = latency {
                    let wait = d.start.0 - d.packet.arrival.0;
                    lat.record(
                        d.packet.flow.0,
                        stamp.cycles(),
                        wait,
                        d.finish.0 - d.start.0,
                    );
                }
                depart(port, d, stamp);
            },
        )?;
        Ok(())
    }
}

/// A fixed-rate output link served by the hardware scheduler.
///
/// # Example
///
/// ```
/// use scheduler::{HwLinkSim, HwScheduler, SchedulerConfig};
/// use traffic::{FlowId, FlowSpec, Packet, Time};
///
/// # fn main() -> Result<(), scheduler::SchedulerError> {
/// let flows = [FlowSpec::new(FlowId(0), 1.0, 1e6)];
/// let sched = HwScheduler::new(&flows, 1e6, SchedulerConfig::default());
/// let trace = vec![
///     Packet { flow: FlowId(0), size_bytes: 125, arrival: Time(0.0), seq: 0 },
///     Packet { flow: FlowId(0), size_bytes: 125, arrival: Time(0.0), seq: 1 },
/// ];
/// let deps = HwLinkSim::new(1e6, sched).run(&trace)?;
/// assert_eq!(deps[1].finish, Time(0.002));
/// # Ok(())
/// # }
/// ```
pub type HwLinkSim<B = SortRetrieveCircuit, P = WfqRank> = EgressSim<HwScheduler<B, P>>;

impl<B: SortBackend, P: RankPolicy> HwLinkSim<B, P> {
    /// Creates a link of `rate_bps` served by `scheduler` (any sorting
    /// backend and rank policy — the types are inferred from the
    /// scheduler handed in).
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive and finite.
    pub fn new(rate_bps: f64, scheduler: HwScheduler<B, P>) -> Self {
        assert!(
            rate_bps > 0.0 && rate_bps.is_finite(),
            "rate must be positive and finite"
        );
        Self::over(scheduler, vec![rate_bps])
    }

    /// Runs the trace to completion, returning departures in service
    /// order.
    ///
    /// # Errors
    ///
    /// Under [`DropPolicy::Error`] (the default), propagates the first
    /// [`SchedulerError`] (buffer exhaustion, tag range, …). Under
    /// [`DropPolicy::CountAndContinue`], per-packet refusals are counted
    /// ([`EgressSim::drops`]) and service continues; only
    /// [`SchedulerError::UnknownFlow`] aborts.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not sorted by arrival time.
    pub fn run(&mut self, trace: &[Packet]) -> Result<Vec<Departure>, SchedulerError> {
        let mut out = Vec::with_capacity(trace.len());
        self.serve(trace, |_, d, _| out.push(d))?;
        Ok(out)
    }

    /// The scheduler, for post-run inspection.
    pub fn scheduler(&self) -> &HwScheduler<B, P> {
        &self.egress
    }

    /// Mutable scheduler access, for post-run bookkeeping such as
    /// [`HwScheduler::reconcile_faults`].
    pub fn scheduler_mut(&mut self) -> &mut HwScheduler<B, P> {
        &mut self.egress
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hwsched::SchedulerConfig;
    use crate::quantize::WrapPolicy;
    use fairq::{metrics, LinkSim, Wfq};
    use tagsort::Geometry;
    use traffic::{generate, FlowId, FlowSpec, SizeDist};

    fn flows() -> Vec<FlowSpec> {
        vec![
            FlowSpec::new(FlowId(0), 4.0, 300_000.0).size(SizeDist::Fixed(140)),
            FlowSpec::new(FlowId(1), 1.0, 900_000.0).size(SizeDist::Imix),
        ]
    }

    fn hw(fl: &[FlowSpec], rate: f64) -> HwScheduler {
        HwScheduler::new(
            fl,
            rate,
            SchedulerConfig {
                geometry: Geometry::new(4, 5),
                tick_scale: 30.0,
                capacity: 1 << 14,
                wrap_policy: WrapPolicy::Saturate,
                ..SchedulerConfig::default()
            },
        )
    }

    #[test]
    fn hardware_path_meets_the_pgps_bound() {
        let fl = flows();
        let rate = 1e6;
        let trace = generate(&fl, 1.0, 31);
        let deps = HwLinkSim::new(rate, hw(&fl, rate)).run(&trace).unwrap();
        assert_eq!(deps.len(), trace.len());
        let lag = metrics::gps_lag(&fl, &trace, &deps, rate);
        let lmax = trace.iter().map(|p| p.size_bits()).fold(0.0, f64::max);
        // Quantization adds at most one tick of reordering slack on top
        // of the exact-WFQ bound.
        let tick_slack = 30.0 / rate; // one tick in seconds of service
        assert!(
            lag <= lmax / rate + tick_slack + 1e-9,
            "hw path lag {lag} vs bound {}",
            lmax / rate
        );
    }

    #[test]
    fn hardware_and_software_wfq_delays_agree() {
        let fl = flows();
        let rate = 1e6;
        let trace = generate(&fl, 1.0, 33);
        let hw_deps = HwLinkSim::new(rate, hw(&fl, rate)).run(&trace).unwrap();
        let sw_deps = LinkSim::new(rate, Wfq::new(&fl, rate)).run(&trace);
        let hw_m = metrics::analyze(&fl, &trace, &hw_deps);
        let sw_m = metrics::analyze(&fl, &trace, &sw_deps);
        for (h, s) in hw_m.iter().zip(&sw_m) {
            let rel = (h.mean_delay_s - s.mean_delay_s).abs() / s.mean_delay_s.max(1e-9);
            assert!(
                rel < 0.05,
                "flow {}: hw mean {} vs sw mean {}",
                h.flow,
                h.mean_delay_s,
                s.mean_delay_s
            );
        }
    }

    #[test]
    fn idle_links_jump_to_next_arrival() {
        let fl = vec![FlowSpec::new(FlowId(0), 1.0, 1e6)];
        let trace = vec![
            Packet {
                flow: FlowId(0),
                size_bytes: 125,
                arrival: Time(0.0),
                seq: 0,
            },
            Packet {
                flow: FlowId(0),
                size_bytes: 125,
                arrival: Time(5.0),
                seq: 1,
            },
        ];
        let deps = HwLinkSim::new(1e6, hw(&fl, 1e6)).run(&trace).unwrap();
        assert_eq!(deps[1].start, Time(5.0));
    }

    fn burst(n: u64) -> Vec<Packet> {
        (0..n)
            .map(|seq| Packet {
                flow: FlowId(0),
                size_bytes: 125,
                arrival: Time(0.0),
                seq,
            })
            .collect()
    }

    fn tiny_hw(capacity: usize) -> HwScheduler {
        HwScheduler::new(
            &[FlowSpec::new(FlowId(0), 1.0, 1e6)],
            1e6,
            SchedulerConfig {
                geometry: Geometry::new(4, 5),
                tick_scale: 30.0,
                capacity,
                ..SchedulerConfig::default()
            },
        )
    }

    #[test]
    fn drop_policy_error_aborts_on_buffer_full() {
        // The pre-DropPolicy behavior, still the default: the first
        // refusal kills the run and its departures.
        let mut sim = HwLinkSim::new(1e6, tiny_hw(2));
        assert!(matches!(
            sim.run(&burst(5)),
            Err(SchedulerError::BufferFull { capacity: 2 })
        ));
        assert_eq!(sim.drops(), 0);
    }

    #[test]
    fn drop_policy_count_and_continue_keeps_serving() {
        // Regression for the satellite bugfix: overload used to discard
        // every already-computed departure; now drops are counted and
        // the accepted packets are still served.
        let mut sim =
            HwLinkSim::new(1e6, tiny_hw(2)).with_drop_policy(DropPolicy::CountAndContinue);
        let deps = sim.run(&burst(5)).unwrap();
        assert_eq!(deps.len(), 2, "the two buffered packets are served");
        assert_eq!(sim.drops(), 3);
        let stats = sim.scheduler().stats();
        assert_eq!(stats.buffer.rejected, 3, "BufferStats records the drops");
        assert_eq!(stats.dequeued, 2);
        // Config errors still abort even under CountAndContinue.
        let bad = vec![Packet {
            flow: FlowId(9),
            size_bytes: 125,
            arrival: Time(100.0),
            seq: 99,
        }];
        assert!(matches!(
            sim.run(&bad),
            Err(SchedulerError::UnknownFlow { flow: 9, .. })
        ));
    }

    #[test]
    fn latency_tracking_attributes_every_departure() {
        let fl = flows();
        let trace = generate(&fl, 0.5, 35);
        let mut sim = HwLinkSim::new(1e6, hw(&fl, 1e6)).with_latency();
        let deps = sim.run(&trace).unwrap();
        let lat = sim.latency().unwrap();
        assert_eq!(lat.samples(), deps.len() as u64);
        assert_eq!(lat.flows(), 2);
        // Cycle-domain sojourns come straight from the circuit's
        // counter: every served packet spent at least the 4-cycle
        // insert slot inside it.
        let h = lat.flow_sojourn(0).unwrap();
        assert!(h.quantile(0.5) >= 4, "p50 sojourn below one op slot");
        // The exported keys follow the Snapshot contract.
        let mut snap = telemetry::Snapshot::empty(1);
        lat.export(&mut snap);
        assert!(snap.value("flow0_sojourn_p99").is_some());
        assert!(snap.value("flow1_wait_ns_p50").is_some());
        assert_eq!(snap.value("latency_samples"), Some(deps.len() as f64));
    }
}
