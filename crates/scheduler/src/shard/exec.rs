//! Executors: how the sharded frontend's per-port calls reach the
//! shards.
//!
//! The frontend core ([`crate::ShardedFrontend`]) makes every decision —
//! routing, migration, rebalancing, the round-robin merge, statistics,
//! which ports to poll — and writes each per-port verb once, as a call
//! on a [`Port`]. An executor only carries those calls. [`Inline`] runs
//! each call on the caller's thread. [`Threads`] gives each port its own
//! OS worker thread and carries every call there as a job over a bounded
//! channel. Both run the same calls in the same order on every port, so
//! they serve identical departures and write identical fault ledgers.

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

use fairq::RankPolicy;
use tagsort::SortBackend;
use telemetry::{Counter, EventKind, Telemetry, Tracer};
use traffic::{FlowId, Packet};

use crate::hwsched::{HwScheduler, MigratedFlow, SchedulerError, SojournStamp};

/// One output port as an executor runs it: the port's scheduler plus
/// the frontend instruments that count and trace its handoffs.
#[derive(Debug, Clone)]
pub struct Port<B: SortBackend, P: RankPolicy> {
    index: usize,
    pub(super) shard: HwScheduler<B, P>,
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
    #[inline]
    pub(super) fn admit(&mut self, pkt: Packet) -> Result<(), SchedulerError> {
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
    pub(super) fn admit_all(&mut self, bucket: Vec<Packet>) -> Admitted {
        let total = bucket.len();
        for (admitted, pkt) in bucket.into_iter().enumerate() {
            if let Err(e) = self.admit(pkt) {
                return (admitted, Some(e));
            }
        }
        (total, None)
    }

    /// Serves the smallest tag, restoring the global flow id.
    #[inline]
    pub(super) fn pop_one(&mut self) -> Option<(Packet, SojournStamp)> {
        let (mut pkt, stamp) = self.shard.dequeue_stamped()?;
        pkt.flow = self.shard.global_flow(pkt.flow);
        Some((pkt, stamp))
    }

    /// Serves up to `max` packets in tag order.
    pub(super) fn pop(&mut self, max: usize) -> Vec<(Packet, SojournStamp)> {
        let mut out = Vec::with_capacity(max.min(self.shard.len()));
        out.extend(std::iter::from_fn(|| self.pop_one()).take(max));
        out
    }

    /// Installs a migrated flow; a refusal hands the backlog back.
    pub(super) fn install(
        &mut self,
        flow: FlowId,
        backlog: MigratedFlow,
    ) -> Result<(), (SchedulerError, MigratedFlow)> {
        self.shard
            .install_flow(flow, &backlog)
            .map_err(|e| (e, backlog))
    }

    pub(super) fn attach_telemetry(&mut self, tel: &Telemetry) {
        self.shard.attach_telemetry(tel, self.index);
        self.handoffs = tel.counter("shard_handoffs");
        self.tracer = tel.tracer();
    }
}

/// How a [`crate::ShardedFrontend`] reaches its shards: [`Inline`] or
/// [`Threads`]. An executor owns the ports and carries calls to them;
/// what each call does is written once, by the frontend core. Calls are
/// `Send + 'static` so that [`Threads`] can hand them to a worker. The
/// trait is sealed: its calls take this crate's per-port type, which
/// other crates cannot name.
pub trait Executor<B: SortBackend, P: RankPolicy> {
    /// Takes ownership of the ports, in port order.
    fn start(ports: Vec<Port<B, P>>) -> Self;
    /// Number of ports.
    fn ports(&self) -> usize;
    /// Queued packets on `port`: the shard's own count after the last
    /// call.
    fn len(&self, port: usize) -> usize;
    /// Runs `call` on `port`.
    fn on<R, F>(&mut self, port: usize, call: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut Port<B, P>) -> R + Send + 'static;
    /// Runs each call on its port, concurrently where the executor can;
    /// returns `(port, result)` in call order. Each port appears at most
    /// once per call: [`Threads`] sends every job before reading any
    /// reply over bounded channels, so repeats could block on a worker.
    fn scatter<R, F>(&mut self, calls: impl IntoIterator<Item = (usize, F)>) -> Vec<(usize, R)>
    where
        R: Send + 'static,
        F: FnOnce(&mut Port<B, P>) -> R + Send + 'static;
    /// Reads every port; results in port order.
    fn every<R, F>(&self, read: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(&Port<B, P>) -> R + Clone + Send + 'static;
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

    #[inline]
    fn on<R, F: FnOnce(&mut Port<B, P>) -> R>(&mut self, port: usize, call: F) -> R {
        call(&mut self.0[port])
    }

    fn scatter<R, F>(&mut self, calls: impl IntoIterator<Item = (usize, F)>) -> Vec<(usize, R)>
    where
        F: FnOnce(&mut Port<B, P>) -> R,
    {
        calls
            .into_iter()
            .map(|(port, call)| (port, call(&mut self.0[port])))
            .collect()
    }

    fn every<R, F: Fn(&Port<B, P>) -> R>(&self, read: F) -> Vec<R> {
        self.0.iter().map(read).collect()
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
/// the worker answers jobs in order. [`Executor::scatter`] and
/// [`Executor::every`] send all their jobs before awaiting any reply, so
/// the shards work concurrently while the frontend waits. A call through
/// [`Executor::on`] pays a full channel round trip; the batch calls are
/// what exploit the threads.
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

    /// Sends every call before awaiting any reply; results in call
    /// order.
    fn gather<R, F>(&self, calls: impl IntoIterator<Item = (usize, F)>) -> Vec<(usize, R)>
    where
        R: Send + 'static,
        F: FnOnce(&mut Port<B, P>) -> R + Send + 'static,
    {
        let mut ports = Vec::new();
        for (port, call) in calls {
            debug_assert!(!ports.contains(&port), "port {port} called twice");
            self.send(port, call);
            ports.push(port);
        }
        ports
            .into_iter()
            .map(|port| (port, self.recv(port)))
            .collect()
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

    fn on<R, F>(&mut self, port: usize, call: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut Port<B, P>) -> R + Send + 'static,
    {
        self.send(port, call);
        self.recv(port)
    }

    fn scatter<R, F>(&mut self, calls: impl IntoIterator<Item = (usize, F)>) -> Vec<(usize, R)>
    where
        R: Send + 'static,
        F: FnOnce(&mut Port<B, P>) -> R + Send + 'static,
    {
        self.gather(calls)
    }

    fn every<R, F>(&self, read: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(&Port<B, P>) -> R + Clone + Send + 'static,
    {
        let calls = (0..self.ports()).map(|port| {
            let read = read.clone();
            (port, move |p: &mut Port<B, P>| read(p))
        });
        self.gather(calls).into_iter().map(|(_, r)| r).collect()
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
            len: Cell::new(0),
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
