//! Executors: how the sharded frontend's per-port calls reach the
//! shards.
//!
//! The frontend core ([`crate::ShardedFrontend`]) makes every decision —
//! routing, migration, rebalancing, the round-robin merge, statistics —
//! and hands the per-port work to an executor. [`Inline`] calls each
//! port's scheduler directly on the caller's thread. [`Threads`] gives
//! each port its own OS worker thread and carries every call there as a
//! job over a bounded channel. Both run the same per-port code
//! ([`Port`]), so they serve identical departures.

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

use fairq::RankPolicy;
use tagsort::SortBackend;
use telemetry::{Counter, EventKind, Telemetry, Tracer};
use traffic::{FlowId, Packet};

use crate::hwsched::{HwScheduler, MigratedFlow, SchedulerError, SchedulerStats, SojournStamp};

/// One output port as an executor runs it: the port's scheduler plus
/// the frontend instruments that count and trace its handoffs.
#[derive(Debug, Clone)]
pub struct Port<B: SortBackend, P: RankPolicy> {
    index: usize,
    shard: HwScheduler<B, P>,
    /// Packets handed to this port (disabled until telemetry attaches).
    /// Recorded on whichever thread runs the port, like the scheduler's
    /// own cells: the port is its shard's one writer.
    handoffs: Counter,
    /// Event tracer (disabled until telemetry attaches).
    tracer: Tracer,
}

/// How far a bucket got: the packets admitted before the first
/// refusal, and that refusal.
pub type Admitted = (usize, Option<SchedulerError>);

impl<B: SortBackend, P: RankPolicy> Port<B, P> {
    /// Wraps port `index`'s scheduler, with telemetry detached.
    pub(super) fn new(index: usize, shard: HwScheduler<B, P>) -> Self {
        Self {
            index,
            shard,
            handoffs: Counter::disabled(),
            tracer: Tracer::disabled(),
        }
    }

    /// Admits one packet (local flow id), tracing and counting the
    /// handoff.
    fn admit(&mut self, pkt: Packet) -> Result<(), SchedulerError> {
        self.tracer.emit(
            self.index,
            self.shard.cycles(),
            EventKind::ShardHandoff,
            u64::from(self.shard.global_flow(pkt.flow).0),
            pkt.seq,
        );
        self.shard.enqueue(pkt)?;
        self.handoffs.inc(self.index, 1);
        Ok(())
    }

    /// Admits a bucket in order, stopping at the first refusal.
    fn admit_all(&mut self, bucket: Vec<Packet>) -> Admitted {
        let total = bucket.len();
        for (admitted, pkt) in bucket.into_iter().enumerate() {
            if let Err(e) = self.admit(pkt) {
                return (admitted, Some(e));
            }
        }
        (total, None)
    }

    /// Serves the smallest tag, restoring the global flow id.
    fn pop_one(&mut self) -> Option<(Packet, SojournStamp)> {
        let (mut pkt, stamp) = self.shard.dequeue_stamped()?;
        pkt.flow = self.shard.global_flow(pkt.flow);
        Some((pkt, stamp))
    }

    /// Serves up to `max` packets in tag order; an idle port is not
    /// polled at all.
    fn pop(&mut self, max: usize) -> Vec<(Packet, SojournStamp)> {
        if self.shard.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(max.min(self.shard.len()));
        out.extend(std::iter::from_fn(|| self.pop_one()).take(max));
        out
    }

    /// Installs a migrated flow; a refusal hands the backlog back.
    fn install(
        &mut self,
        flow: FlowId,
        backlog: MigratedFlow,
    ) -> Result<(), (SchedulerError, MigratedFlow)> {
        self.shard
            .install_flow(flow, &backlog)
            .map_err(|e| (e, backlog))
    }

    /// End-of-run fault accounting; returns the reconciled
    /// `(injected, detected, repaired, silent)` totals.
    fn reconcile_faults(&mut self) -> (u64, u64, u64, u64) {
        self.shard.reconcile_faults();
        self.shard.fault_totals()
    }

    fn attach_telemetry(&mut self, tel: &Telemetry) {
        self.shard.attach_telemetry(tel, self.index);
        self.handoffs = tel.counter("shard_handoffs");
        self.tracer = tel.tracer();
    }
}

/// How a [`crate::ShardedFrontend`] reaches its shards: [`Inline`] or
/// [`Threads`]. These are the per-port calls the frontend core makes;
/// an executor carries them and makes no decision of its own. The trait
/// is sealed: its calls take this crate's per-port type, which other
/// crates cannot name.
pub trait Executor<B: SortBackend, P: RankPolicy> {
    /// Takes ownership of the ports, in port order.
    fn start(ports: Vec<Port<B, P>>) -> Self;
    /// Number of ports.
    fn ports(&self) -> usize;
    /// Queued packets on `port`: the shard's own count after the last
    /// call.
    fn len(&self, port: usize) -> usize;
    /// Admits one packet (local flow id) on `port`.
    fn enqueue(&mut self, port: usize, pkt: Packet) -> Result<(), SchedulerError>;
    /// Admits each non-empty bucket (local flow ids) on its port, each up
    /// to its own first refusal; a refusal on one port does not stop the
    /// others. Returns `(port, admitted)` in port order for every
    /// non-empty bucket.
    fn enqueue_buckets(&mut self, buckets: Vec<Vec<Packet>>) -> Vec<(usize, Admitted)>;
    /// Serves `port`'s smallest tag, global flow id restored.
    fn pop(&mut self, port: usize) -> Option<(Packet, SojournStamp)>;
    /// Serves up to `max` packets from every port; one tag-order run
    /// per port.
    fn pop_each(&mut self, max: usize) -> Vec<Vec<(Packet, SojournStamp)>>;
    /// Extracts `flow`'s backlog and rank state from `port`.
    fn extract(&mut self, port: usize, flow: FlowId) -> MigratedFlow;
    /// Installs a migrated flow on `port`; a refusal hands the backlog
    /// back.
    fn install(
        &mut self,
        port: usize,
        flow: FlowId,
        backlog: MigratedFlow,
    ) -> Result<(), (SchedulerError, MigratedFlow)>;
    /// Every port's statistics.
    fn stats(&self) -> Vec<SchedulerStats>;
    /// Every port's reconciled fault-ledger totals.
    fn reconcile_faults(&mut self) -> Vec<(u64, u64, u64, u64)>;
    /// Connects every port to `tel`, each as its own shard.
    fn attach_telemetry(&mut self, tel: &Telemetry);
}

/// The inline executor: every port's scheduler runs on the caller's
/// thread, and each call is a direct method call — the hardware model,
/// deterministic and allocation-free per packet.
#[derive(Debug, Clone)]
pub struct Inline<B: SortBackend, P: RankPolicy>(Vec<Port<B, P>>);

impl<B: SortBackend, P: RankPolicy> Inline<B, P> {
    /// Read access to one port's scheduler.
    pub(super) fn shard(&self, port: usize) -> &HwScheduler<B, P> {
        &self.0[port].shard
    }
}

impl<B: SortBackend, P: RankPolicy> Executor<B, P> for Inline<B, P> {
    fn start(ports: Vec<Port<B, P>>) -> Self {
        Self(ports)
    }

    fn ports(&self) -> usize {
        self.0.len()
    }

    fn len(&self, port: usize) -> usize {
        self.0[port].shard.len()
    }

    fn enqueue(&mut self, port: usize, pkt: Packet) -> Result<(), SchedulerError> {
        self.0[port].admit(pkt)
    }

    fn enqueue_buckets(&mut self, buckets: Vec<Vec<Packet>>) -> Vec<(usize, Admitted)> {
        buckets
            .into_iter()
            .enumerate()
            .filter(|(_, bucket)| !bucket.is_empty())
            .map(|(port, bucket)| (port, self.0[port].admit_all(bucket)))
            .collect()
    }

    fn pop(&mut self, port: usize) -> Option<(Packet, SojournStamp)> {
        self.0[port].pop_one()
    }

    fn pop_each(&mut self, max: usize) -> Vec<Vec<(Packet, SojournStamp)>> {
        self.0.iter_mut().map(|p| p.pop(max)).collect()
    }

    fn extract(&mut self, port: usize, flow: FlowId) -> MigratedFlow {
        self.0[port].shard.extract_flow(flow)
    }

    fn install(
        &mut self,
        port: usize,
        flow: FlowId,
        backlog: MigratedFlow,
    ) -> Result<(), (SchedulerError, MigratedFlow)> {
        self.0[port].install(flow, backlog)
    }

    fn stats(&self) -> Vec<SchedulerStats> {
        self.0.iter().map(|p| p.shard.stats()).collect()
    }

    fn reconcile_faults(&mut self) -> Vec<(u64, u64, u64, u64)> {
        self.0.iter_mut().map(Port::reconcile_faults).collect()
    }

    fn attach_telemetry(&mut self, tel: &Telemetry) {
        for port in &mut self.0 {
            port.attach_telemetry(tel);
        }
    }
}

/// One per-port call, boxed for the worker that owns the port.
type Job<B, P> = Box<dyn FnOnce(&mut Port<B, P>) -> Box<dyn Any + Send> + Send>;

/// A worker's answer to one job: the call's result, and the shard's
/// length after it.
type Reply = (Box<dyn Any + Send>, usize);

/// Jobs in flight per worker. Every call keeps at most one job
/// outstanding per worker, so a small constant bound never blocks and
/// still caps channel memory.
const CHANNEL_DEPTH: usize = 2;

/// The thread-per-port executor: each port's scheduler lives on its own
/// OS worker thread — the software analogue of N sort/retrieve circuits
/// clocking concurrently, sharing no state — so on a multi-core host
/// shard work runs in parallel.
///
/// Every call travels to its worker as a job over a bounded channel, and
/// the worker answers jobs in order. A call that touches several ports
/// sends all its jobs before awaiting any reply, so the shards work
/// concurrently while the frontend waits. Single-packet calls pay a full
/// channel round trip; the batch calls are what exploit the threads.
///
/// Dropping the executor closes the channels, joins every worker, and
/// re-raises any worker panic on the calling thread: a crashed shard is
/// never silent packet loss. Workers reconcile their fault ledgers on
/// the way out.
pub struct Threads<B: SortBackend, P: RankPolicy> {
    workers: Vec<Worker<B, P>>,
}

/// One port's worker: its channels, join handle, and the shard length
/// its last reply reported.
struct Worker<B: SortBackend, P: RankPolicy> {
    /// `None` once shutdown has begun (dropping the sender is what tells
    /// the worker to exit).
    jobs: Option<SyncSender<Job<B, P>>>,
    replies: Receiver<Reply>,
    /// Taken when the worker is joined.
    handle: Cell<Option<JoinHandle<()>>>,
    len: Cell<usize>,
}

impl<B: SortBackend, P: RankPolicy> fmt::Debug for Threads<B, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Threads")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl<B: SortBackend + Send + 'static, P: RankPolicy + Send + 'static> Threads<B, P> {
    /// Hands `call` to `port`'s worker without awaiting the reply.
    fn send<R: Send + 'static>(
        &self,
        port: usize,
        call: impl FnOnce(&mut Port<B, P>) -> R + Send + 'static,
    ) {
        let job: Job<B, P> =
            Box::new(move |p: &mut Port<B, P>| -> Box<dyn Any + Send> { Box::new(call(p)) });
        let sender = self.workers[port]
            .jobs
            .as_ref()
            .expect("worker channel open until drop");
        if sender.send(job).is_err() {
            self.rethrow(port);
        }
    }

    /// Awaits `port`'s answer to its oldest outstanding job.
    fn recv<R: 'static>(&self, port: usize) -> R {
        let worker = &self.workers[port];
        let Ok((reply, len)) = worker.replies.recv() else {
            self.rethrow(port)
        };
        worker.len.set(len);
        *reply.downcast().expect("workers answer jobs in order")
    }

    fn call<R: Send + 'static>(
        &self,
        port: usize,
        call: impl FnOnce(&mut Port<B, P>) -> R + Send + 'static,
    ) -> R {
        self.send(port, call);
        self.recv(port)
    }

    /// Runs each call on its port concurrently: every job goes out
    /// before any reply is awaited. Results come back in call order.
    fn scatter<R, F>(&self, calls: impl IntoIterator<Item = (usize, F)>) -> Vec<(usize, R)>
    where
        R: Send + 'static,
        F: FnOnce(&mut Port<B, P>) -> R + Send + 'static,
    {
        let ports: Vec<usize> = calls
            .into_iter()
            .map(|(port, call)| {
                self.send(port, call);
                port
            })
            .collect();
        ports
            .into_iter()
            .map(|port| (port, self.recv(port)))
            .collect()
    }

    /// Runs `call` on every port concurrently; results in port order.
    fn every<R, F>(&self, call: F) -> Vec<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut Port<B, P>) -> R + Clone + Send + 'static,
    {
        let calls = (0..self.workers.len()).map(|port| (port, call.clone()));
        self.scatter(calls).into_iter().map(|(_, r)| r).collect()
    }

    /// A worker's channel closed early: join it and re-raise its panic
    /// (a worker only exits early by panicking).
    fn rethrow(&self, port: usize) -> ! {
        let handle = self.workers[port]
            .handle
            .take()
            .expect("worker joined once");
        match handle.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => unreachable!("worker {port} exited without panic while channels were open"),
        }
    }
}

impl<B: SortBackend + Send + 'static, P: RankPolicy + Send + 'static> Executor<B, P>
    for Threads<B, P>
{
    fn start(ports: Vec<Port<B, P>>) -> Self {
        let workers = ports
            .into_iter()
            .map(|mut port| {
                let (jobs, job_rx) = sync_channel::<Job<B, P>>(CHANNEL_DEPTH);
                let (reply_tx, replies) = sync_channel(CHANNEL_DEPTH);
                let len = Cell::new(port.shard.len());
                let handle = std::thread::Builder::new()
                    .name(format!("shard-{}", port.index))
                    .spawn(move || {
                        for job in job_rx {
                            let reply = job(&mut port);
                            if reply_tx.send((reply, port.shard.len())).is_err() {
                                // Frontend dropped mid-call; nothing left
                                // to serve.
                                break;
                            }
                        }
                        // Shutdown path: reconcile before the shard (and
                        // its ledger) drops, so a frontend that never
                        // asked still gets the silent-corruption
                        // accounting folded into the shared telemetry.
                        port.shard.reconcile_faults();
                    })
                    .expect("spawn shard worker");
                Worker {
                    jobs: Some(jobs),
                    replies,
                    handle: Cell::new(Some(handle)),
                    len,
                }
            })
            .collect();
        Self { workers }
    }

    fn ports(&self) -> usize {
        self.workers.len()
    }

    fn len(&self, port: usize) -> usize {
        self.workers[port].len.get()
    }

    fn enqueue(&mut self, port: usize, pkt: Packet) -> Result<(), SchedulerError> {
        self.call(port, move |p| p.admit(pkt))
    }

    /// Every bucket's port admits concurrently.
    fn enqueue_buckets(&mut self, buckets: Vec<Vec<Packet>>) -> Vec<(usize, Admitted)> {
        let calls = buckets
            .into_iter()
            .enumerate()
            .filter(|(_, bucket)| !bucket.is_empty())
            .map(|(port, bucket)| (port, move |p: &mut Port<B, P>| p.admit_all(bucket)));
        self.scatter(calls)
    }

    fn pop(&mut self, port: usize) -> Option<(Packet, SojournStamp)> {
        // The reported length spares an idle port the round trip.
        if self.len(port) == 0 {
            return None;
        }
        self.call(port, Port::pop_one)
    }

    fn pop_each(&mut self, max: usize) -> Vec<Vec<(Packet, SojournStamp)>> {
        let mut runs = vec![Vec::new(); self.ports()];
        let busy = (0..self.ports()).filter(|&port| self.len(port) > 0);
        let calls = busy.map(|port| (port, move |p: &mut Port<B, P>| p.pop(max)));
        for (port, run) in self.scatter(calls) {
            runs[port] = run;
        }
        runs
    }

    fn extract(&mut self, port: usize, flow: FlowId) -> MigratedFlow {
        self.call(port, move |p| p.shard.extract_flow(flow))
    }

    fn install(
        &mut self,
        port: usize,
        flow: FlowId,
        backlog: MigratedFlow,
    ) -> Result<(), (SchedulerError, MigratedFlow)> {
        self.call(port, move |p| p.install(flow, backlog))
    }

    fn stats(&self) -> Vec<SchedulerStats> {
        self.every(|p| p.shard.stats())
    }

    fn reconcile_faults(&mut self) -> Vec<(u64, u64, u64, u64)> {
        self.every(Port::reconcile_faults)
    }

    fn attach_telemetry(&mut self, tel: &Telemetry) {
        let tel = tel.clone();
        self.every(move |p| p.attach_telemetry(&tel));
    }
}

impl<B: SortBackend, P: RankPolicy> Drop for Threads<B, P> {
    /// Joins every worker. A worker that panicked is re-raised here
    /// (unless this thread is already panicking, to avoid an abort
    /// while unwinding).
    fn drop(&mut self) {
        let mut payload = None;
        for worker in &mut self.workers {
            // Closing the job channel is the shutdown signal.
            worker.jobs = None;
            if let Some(handle) = worker.handle.get_mut().take() {
                if let Err(p) = handle.join() {
                    payload.get_or_insert(p);
                }
            }
        }
        if let Some(p) = payload {
            if !std::thread::panicking() {
                std::panic::resume_unwind(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ParallelShardedScheduler, SchedulerConfig};
    use fairq::WfqRank;
    use tagsort::SortRetrieveCircuit;
    use traffic::FlowSpec;

    #[test]
    fn worker_panic_is_propagated_not_swallowed() {
        // A frontend whose worker has died re-raises the worker's panic
        // on the next call that reaches it. Swap a worker that panics
        // immediately in for the healthy one.
        let flows: Vec<FlowSpec> = (0..4).map(|i| FlowSpec::new(FlowId(i), 1.0, 1e6)).collect();
        let mut fe = ParallelShardedScheduler::new(&flows, 1e9, 1, SchedulerConfig::default());
        let (jobs, _job_rx) = sync_channel::<Job<SortRetrieveCircuit, WfqRank>>(CHANNEL_DEPTH);
        let (reply_tx, replies) = sync_channel::<Reply>(CHANNEL_DEPTH);
        let handle = std::thread::Builder::new()
            .name("shard-poison".into())
            .spawn(move || {
                let _hold = reply_tx; // dropped on panic
                panic!("shard worker poisoned");
            })
            .expect("spawn");
        while !handle.is_finished() {
            std::thread::yield_now();
        }
        let poisoned = Worker {
            jobs: Some(jobs),
            replies,
            handle: Cell::new(Some(handle)),
            // A backlog, so the call below is sent rather than skipped.
            len: Cell::new(1),
        };
        let old = std::mem::replace(&mut fe.exec.workers[0], poisoned);
        drop(old.jobs);
        if let Some(h) = old.handle.into_inner() {
            h.join().expect("original worker exits cleanly");
        }
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fe.dequeue_port(0);
        }));
        let payload = caught.expect_err("worker panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("unexpected payload");
        assert_eq!(msg, "shard worker poisoned");
        // Dropping `fe` must not re-panic (the handle was already joined).
    }
}
