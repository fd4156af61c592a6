//! The discrete-event engine.
//!
//! Each simulated core runs one *proc*: an `async` body that talks to the
//! machine through its [`Ctx`] handle. Every `Ctx` operation leaves its
//! request in the proc's engine-owned slot and yields once; the engine
//! services the request, schedules the proc's resume as a `(cycle, core)`
//! event, and polls the proc's future again when that event pops. The
//! engine resumes exactly one proc at a time, in global simulated-time order
//! (ties broken by core id), on the thread that called [`Engine::run`], so
//! the simulation is fully deterministic — and, because effects apply in
//! that single global order, the simulated memory is sequentially
//! consistent, exactly the paper's §2 model.
//!
//! A handoff is therefore a function call: no proc owns a thread, and no
//! waker is needed because the event heap alone decides which proc runs
//! next (procs are polled with [`Waker::noop`]). Host-side counters of the
//! engine itself are reported in [`SimResult::host`].
//!
//! When the simulation horizon is reached, or every remaining proc is
//! blocked with no event left that could wake it, the engine stops polling
//! and drops the remaining proc futures — so workload bodies are written as
//! infinite loops without any stop-flag plumbing.
//!
//! `Ctx::now` and `Ctx::record` never yield. `now` reads the clock the
//! engine stores at each resume; `record` adds straight into the proc's
//! accumulators. Neither shortcut can reorder the simulation: a round trip
//! for either would schedule a zero-latency event for the issuing proc, and
//! such an event is always the very next one popped (the heap holds nothing
//! smaller at that point), so no other proc could ever observe the
//! difference.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::{poll_fn, Future};
use std::panic::{self, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::config::MachineConfig;
use crate::mem::{Addr, Memory};
use crate::stats::{CoreStats, HostStats, Metric, SimResult, N_METRICS};

/// A request a proc leaves in its slot for the engine.
#[derive(Clone, Copy)]
enum Op {
    Read(Addr),
    Write(Addr, u64),
    Faa(Addr, u64),
    Cas(Addr, u64, u64),
    Swap(Addr, u64),
    /// Send the slot's `words` to the given core.
    Send(usize),
    /// Receive this many words into the slot's `words`.
    Recv(usize),
    QueueEmpty,
    PendingTraffic,
    Work(u64),
}

/// The state a proc shares with the engine.
#[derive(Default)]
struct Slot {
    /// The request the proc yielded on; the engine takes it.
    op: Cell<Option<Op>>,
    /// Scalar response: a loaded value, or a boolean as 0/1.
    ret: Cell<u64>,
    /// Message words: a send's payload on the way in, a receive's on the
    /// way out.
    words: RefCell<Vec<u64>>,
    /// Simulated time at the proc's latest resume.
    clock: Cell<u64>,
    /// Accumulators written by [`Ctx::record`].
    metrics: [Cell<u64>; N_METRICS],
}

/// Per-proc handle through which simulated code talks to the machine.
///
/// Every `async` method advances simulated time; see [`MachineConfig`] for
/// costs.
pub struct Ctx {
    core: usize,
    slot: Rc<Slot>,
}

impl Ctx {
    /// Leaves `op` in the slot and yields to the engine; completes on the
    /// next resume, by which time the response is in the slot.
    fn request(&self, op: Op) -> impl Future<Output = ()> + '_ {
        let mut op = Some(op);
        poll_fn(move |_| match op.take() {
            Some(op) => {
                self.slot.op.set(Some(op));
                Poll::Pending
            }
            None => Poll::Ready(()),
        })
    }

    async fn value(&mut self, op: Op) -> u64 {
        self.request(op).await;
        self.slot.ret.get()
    }

    /// The core this proc is pinned to.
    pub fn core(&self) -> usize {
        self.core
    }

    /// Reads a shared-memory word.
    pub async fn read(&mut self, a: Addr) -> u64 {
        self.value(Op::Read(a)).await
    }

    /// Writes a shared-memory word.
    pub async fn write(&mut self, a: Addr, v: u64) {
        self.request(Op::Write(a, v)).await
    }

    /// Fetch-and-add; returns the previous value.
    pub async fn faa(&mut self, a: Addr, delta: u64) -> u64 {
        self.value(Op::Faa(a, delta)).await
    }

    /// Compare-and-set; returns whether the swap happened (the boolean
    /// variant, as in the paper's model).
    pub async fn cas(&mut self, a: Addr, old: u64, new: u64) -> bool {
        self.value(Op::Cas(a, old, new)).await != 0
    }

    /// Atomic exchange; returns the previous value.
    pub async fn swap(&mut self, a: Addr, v: u64) -> u64 {
        self.value(Op::Swap(a, v)).await
    }

    /// Sends `words` as one message to `dest`'s hardware queue
    /// (asynchronous; blocks only on back-pressure).
    pub async fn send(&mut self, dest: usize, words: &[u64]) {
        {
            let mut buf = self.slot.words.borrow_mut();
            buf.clear();
            buf.extend_from_slice(words);
        }
        self.request(Op::Send(dest)).await
    }

    /// Receives exactly `k` words from the local queue, blocking as needed.
    pub async fn receive(&mut self, k: usize) -> Vec<u64> {
        self.request(Op::Recv(k)).await;
        self.slot.words.borrow().clone()
    }

    /// Receives a single word (allocation-free).
    pub async fn receive1(&mut self) -> u64 {
        self.request(Op::Recv(1)).await;
        self.slot.words.borrow()[0]
    }

    /// Receives a three-word request `{sender, op, arg}` (allocation-free).
    pub async fn receive3(&mut self) -> [u64; 3] {
        self.request(Op::Recv(3)).await;
        let w = self.slot.words.borrow();
        [w[0], w[1], w[2]]
    }

    /// `true` if the local hardware queue currently holds no arrived word.
    pub async fn is_queue_empty(&mut self) -> bool {
        self.value(Op::QueueEmpty).await != 0
    }

    /// `true` if any word is queued for this core, *including words still
    /// in flight on the simulated wire*.
    ///
    /// Real hardware cannot see in-flight messages, but this simulator
    /// charges a fixed wire latency that real short-distance UDN messages
    /// do not pay; a drain loop that polled only arrived words would close
    /// combining rounds on that artifact. Use this for "should I keep
    /// serving?" checks and [`Ctx::is_queue_empty`] for faithful hardware
    /// probes.
    pub async fn has_pending_traffic(&mut self) -> bool {
        self.value(Op::PendingTraffic).await != 0
    }

    /// Burns `cycles` of local computation.
    pub async fn work(&mut self, cycles: u64) {
        if cycles > 0 {
            self.request(Op::Work(cycles)).await
        }
    }

    /// Current simulated time in cycles (free: this proc's virtual time
    /// cannot advance between its resume and its next request).
    pub fn now(&self) -> u64 {
        self.slot.clock.get()
    }

    /// Adds `v` to this proc's `metric` accumulator (free).
    pub fn record(&mut self, metric: Metric, v: u64) {
        let m = &self.slot.metrics[metric as usize];
        m.set(m.get() + v);
    }
}

enum ProcState {
    /// Scheduled in the event heap; its response is already in the slot.
    Runnable,
    /// Blocked on `receive(k)` since the given cycle.
    WaitRecv { k: usize, since: u64 },
    /// Blocked sending `words` since the given cycle.
    WaitSend { words: Vec<u64>, since: u64 },
    /// The body returned.
    Finished,
}

struct Proc {
    fut: Pin<Box<dyn Future<Output = ()>>>,
    slot: Rc<Slot>,
    state: ProcState,
    stats: CoreStats,
}

/// One core's hardware message queue: words with arrival times, plus the
/// back-pressured senders waiting for space.
struct SimQueue {
    words: VecDeque<(u64, u64)>, // (arrival cycle, value)
    blocked_senders: VecDeque<usize>,
}

/// The simulator: owns the machine state and the procs.
pub struct Engine {
    cfg: MachineConfig,
    mem: Memory,
    procs: Vec<Proc>,
    queues: Vec<SimQueue>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    clock: u64,
    host: HostStats,
}

impl Engine {
    /// Creates an engine for the given machine.
    pub fn new(cfg: MachineConfig) -> Self {
        let queues = (0..cfg.cores())
            .map(|_| SimQueue {
                words: VecDeque::new(),
                blocked_senders: VecDeque::new(),
            })
            .collect();
        Self {
            cfg,
            mem: Memory::new(cfg),
            procs: Vec::new(),
            queues,
            heap: BinaryHeap::new(),
            clock: 0,
            host: HostStats::default(),
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Initializes a memory word before the run, without coherence effects
    /// or cycle charges (protocol state setup).
    pub fn preset_memory(&mut self, addr: Addr, v: u64) {
        self.mem.poke(addr, v);
    }

    /// Adds a proc pinned to the next free core (procs are pinned in
    /// ascending order, like the paper's thread placement). Returns the
    /// core index. `f` receives the proc's [`Ctx`] and returns its body,
    /// which first runs when the run starts.
    ///
    /// # Panics
    ///
    /// Panics if all cores already have a proc.
    pub fn add_proc<F, Fut>(&mut self, f: F) -> usize
    where
        F: FnOnce(Ctx) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        let core = self.procs.len();
        assert!(
            core < self.cfg.cores(),
            "machine has {} cores",
            self.cfg.cores()
        );
        let slot = Rc::new(Slot::default());
        let fut = Box::pin(f(Ctx {
            core,
            slot: Rc::clone(&slot),
        }));
        self.procs.push(Proc {
            fut,
            slot,
            state: ProcState::Runnable,
            stats: CoreStats::default(),
        });
        self.heap.push(Reverse((0, core)));
        core
    }

    fn schedule(&mut self, proc: usize, at: u64) {
        self.procs[proc].state = ProcState::Runnable;
        self.heap.push(Reverse((at, proc)));
    }

    /// Schedules `proc`'s resume with a scalar response.
    fn reply(&mut self, proc: usize, at: u64, ret: u64) {
        self.procs[proc].slot.ret.set(ret);
        self.schedule(proc, at);
    }

    /// Charges a memory access to a core (`l1_hit` is useful work, the rest
    /// is a coherence stall) and replies once it completes.
    fn mem_done(&mut self, proc: usize, latency: u64, ret: u64) {
        let useful = self.cfg.l1_hit.min(latency);
        let stats = &mut self.procs[proc].stats;
        stats.busy += useful;
        stats.stall += latency - useful;
        stats.mem_ops += 1;
        self.reply(proc, self.clock + latency, ret);
    }

    /// Queue occupancy check: can `n` more words fit?
    fn queue_has_room(&self, dest: usize, n: usize) -> bool {
        self.queues[dest].words.len() + n <= self.cfg.queue_capacity
    }

    /// Deposits a message and wakes the destination's receiver if it is now
    /// satisfiable.
    fn deposit(&mut self, from: usize, dest: usize, words: &[u64], send_time: u64) {
        let arrival =
            send_time + self.cfg.send_inject + self.cfg.msg_wire_base + self.cfg.wire(from, dest);
        for &w in words {
            self.queues[dest].words.push_back((arrival, w));
        }
        self.procs[from].stats.msgs_sent += 1;
        self.try_wake_receiver(dest);
    }

    /// If the proc on `core` is blocked in `receive(k)` and k words are now
    /// queued, completes the receive.
    fn try_wake_receiver(&mut self, core: usize) {
        let ProcState::WaitRecv { k, since } = self.procs[core].state else {
            return;
        };
        if self.queues[core].words.len() >= k {
            self.complete_receive(core, k, since);
        }
    }

    /// Pops `k` words into `core`'s slot and schedules its resume.
    fn complete_receive(&mut self, core: usize, k: usize, issued: u64) {
        let mut last_arrival = issued;
        {
            let mut buf = self.procs[core].slot.words.borrow_mut();
            buf.clear();
            for (arr, v) in self.queues[core].words.drain(..k) {
                last_arrival = last_arrival.max(arr);
                buf.push(v);
            }
        }
        let service = self.cfg.recv_base + self.cfg.recv_word * k as u64;
        let resume = last_arrival + service;
        let stats = &mut self.procs[core].stats;
        stats.busy += service;
        stats.idle += last_arrival - issued;
        stats.msgs_recv += 1;
        self.schedule(core, resume);
        // Space freed: let blocked senders through (in arrival order).
        self.drain_blocked_senders(core, resume);
    }

    fn drain_blocked_senders(&mut self, dest: usize, now: u64) {
        while let Some(&sender) = self.queues[dest].blocked_senders.front() {
            let ProcState::WaitSend { words, since } = &self.procs[sender].state else {
                unreachable!("blocked sender not in WaitSend");
            };
            if !self.queue_has_room(dest, words.len()) {
                break;
            }
            let since = *since;
            let ProcState::WaitSend { words, .. } =
                std::mem::replace(&mut self.procs[sender].state, ProcState::Runnable)
            else {
                unreachable!()
            };
            self.queues[dest].blocked_senders.pop_front();
            self.procs[sender].stats.idle += now.saturating_sub(since);
            self.procs[sender].stats.blocked_sends += 1;
            self.deposit(sender, dest, &words, now);
            self.procs[sender].slot.words.replace(words);
            self.procs[sender].stats.busy += self.cfg.send_inject;
            self.schedule(sender, now + self.cfg.send_inject);
        }
    }

    /// Services the request `proc` just yielded on.
    fn service(&mut self, proc: usize, op: Op) {
        let now = self.clock;
        match op {
            Op::Read(a) => {
                let (v, acc) = self.mem.read(proc, a, now);
                self.mem_done(proc, acc.latency, v);
            }
            Op::Write(a, v) => {
                let acc = self.mem.write(proc, a, v, now);
                self.mem_done(proc, acc.latency, 0);
            }
            Op::Faa(a, d) => {
                let (old, acc) = self.mem.atomic(proc, a, now, |v| v.wrapping_add(d));
                self.mem_done(proc, acc.latency, old);
            }
            Op::Cas(a, expect, new) => {
                let mut ok = false;
                let (_, acc) = self.mem.atomic(proc, a, now, |v| {
                    if v == expect {
                        ok = true;
                        new
                    } else {
                        v
                    }
                });
                self.mem_done(proc, acc.latency, ok as u64);
            }
            Op::Swap(a, new) => {
                let (old, acc) = self.mem.atomic(proc, a, now, |_| new);
                self.mem_done(proc, acc.latency, old);
            }
            Op::Send(dest) => {
                let words = self.procs[proc].slot.words.take();
                assert!(dest < self.queues.len(), "send to core {dest} out of range");
                assert!(
                    words.len() <= self.cfg.queue_capacity,
                    "message larger than a hardware queue"
                );
                if self.queue_has_room(dest, words.len()) {
                    self.deposit(proc, dest, &words, now);
                    self.procs[proc].slot.words.replace(words);
                    self.procs[proc].stats.busy += self.cfg.send_inject;
                    self.schedule(proc, now + self.cfg.send_inject);
                } else {
                    self.procs[proc].state = ProcState::WaitSend { words, since: now };
                    self.queues[dest].blocked_senders.push_back(proc);
                }
            }
            Op::Recv(k) => {
                assert!(
                    k > 0 && k <= self.cfg.queue_capacity,
                    "bad receive size {k}"
                );
                if self.queues[proc].words.len() >= k {
                    self.complete_receive(proc, k, now);
                } else {
                    self.procs[proc].state = ProcState::WaitRecv { k, since: now };
                }
            }
            Op::QueueEmpty => {
                let empty = self.queues[proc]
                    .words
                    .front()
                    .is_none_or(|&(arr, _)| arr > now);
                self.procs[proc].stats.busy += self.cfg.queue_probe;
                self.reply(proc, now + self.cfg.queue_probe, empty as u64);
            }
            Op::PendingTraffic => {
                let pending = !self.queues[proc].words.is_empty();
                self.procs[proc].stats.busy += self.cfg.queue_probe;
                self.reply(proc, now + self.cfg.queue_probe, pending as u64);
            }
            Op::Work(cycles) => {
                self.procs[proc].stats.busy += cycles;
                self.schedule(proc, now + cycles);
            }
        }
    }

    /// Polls `proc`'s body until its next request (which is serviced) or
    /// its end.
    fn resume(&mut self, proc: usize, cx: &mut Context<'_>) {
        self.host.handoffs += 1;
        let p = &mut self.procs[proc];
        p.slot.clock.set(self.clock);
        match panic::catch_unwind(AssertUnwindSafe(|| p.fut.as_mut().poll(cx))) {
            Ok(Poll::Pending) => {
                let op = p
                    .slot
                    .op
                    .take()
                    .unwrap_or_else(|| panic!("sim proc {proc} yielded without a Ctx request"));
                self.service(proc, op);
            }
            Ok(Poll::Ready(())) => p.state = ProcState::Finished,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("non-string panic payload");
                panic!("sim proc {proc} panicked: {msg}");
            }
        }
    }

    /// Runs the simulation until every proc finished, every remaining proc
    /// is blocked for good (quiescence), or `horizon` cycles elapsed, and
    /// returns the collected statistics. Procs still running at that point
    /// are dropped without being polled again.
    ///
    /// # Panics
    ///
    /// Panics with a proc's message if that proc panicked (test failures
    /// propagate).
    pub fn run(mut self, horizon: u64) -> SimResult {
        let mut cx = Context::from_waker(Waker::noop());
        while let Some(Reverse((t, proc))) = self.heap.pop() {
            self.clock = self.clock.max(t);
            if self.clock >= horizon {
                // Every proc still scheduled would resume at or past the
                // horizon; the clock ends at the latest of those resumes.
                self.clock = self.heap.iter().fold(self.clock, |c, e| c.max(e.0 .0));
                break;
            }
            self.resume(proc, &mut cx);
        }
        self.finish(horizon)
    }

    fn finish(self, horizon: u64) -> SimResult {
        let per_core = self
            .procs
            .iter()
            .enumerate()
            .map(|(i, p)| CoreStats {
                rmrs: self.mem.rmrs(i),
                atomics: self.mem.atomics(i),
                ..p.stats
            })
            .collect();
        let metrics = self
            .procs
            .iter()
            .map(|p| std::array::from_fn(|i| p.slot.metrics[i].get()))
            .collect();
        SimResult {
            cfg: self.cfg,
            cycles: self.clock.min(horizon).max(1),
            end_clock: self.clock,
            per_core,
            metrics,
            host: self.host,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Metric;

    fn small_cfg() -> MachineConfig {
        MachineConfig {
            rows: 2,
            cols: 2,
            ..MachineConfig::tile_gx8036()
        }
    }

    /// The message a panic payload carries.
    fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn single_proc_memory_ops() {
        let mut e = Engine::new(small_cfg());
        e.add_proc(|mut ctx| async move {
            ctx.write(10, 5).await;
            assert_eq!(ctx.read(10).await, 5);
            assert_eq!(ctx.faa(10, 3).await, 5);
            assert_eq!(ctx.read(10).await, 8);
            assert!(ctx.cas(10, 8, 20).await);
            assert!(!ctx.cas(10, 8, 30).await);
            assert_eq!(ctx.swap(10, 1).await, 20);
            ctx.record(Metric::Ops, 1);
        });
        let r = e.run(1_000_000);
        assert_eq!(r.metrics[0][Metric::Ops as usize], 1);
        assert!(r.per_core[0].busy > 0);
    }

    #[test]
    fn two_procs_message_roundtrip() {
        let mut e = Engine::new(small_cfg());
        e.add_proc(|mut ctx| async move {
            // Server on core 0.
            let m = ctx.receive3().await;
            assert_eq!(m, [1, 42, 7]);
            ctx.send(1, &[m[1] + m[2]]).await;
        });
        e.add_proc(|mut ctx| async move {
            ctx.send(0, &[1, 42, 7]).await;
            assert_eq!(ctx.receive1().await, 49);
            ctx.record(Metric::Ops, 1);
        });
        let r = e.run(100_000);
        assert_eq!(r.metrics[1][Metric::Ops as usize], 1);
        assert_eq!(r.per_core[0].msgs_recv, 1);
        assert_eq!(r.per_core[0].msgs_sent, 1);
    }

    #[test]
    fn horizon_stops_infinite_loops() {
        let mut e = Engine::new(small_cfg());
        e.add_proc(|mut ctx| async move {
            loop {
                ctx.work(10).await;
                ctx.record(Metric::Ops, 1);
            }
        });
        // A receiver that never gets a message: must be torn down too.
        e.add_proc(|mut ctx| async move {
            ctx.receive1().await;
            unreachable!("no one sends to core 1");
        });
        let r = e.run(5_000);
        let ops = r.metrics[0][Metric::Ops as usize];
        assert!((490..=510).contains(&ops), "ops {ops}");
        assert_eq!(r.cycles, 5_000);
    }

    #[test]
    fn horizon_drops_every_proc_future_and_runs_no_code_past_it() {
        struct Guard(Rc<Cell<usize>>);
        impl Drop for Guard {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }
        const HORIZON: u64 = 5_000;
        let dropped = Rc::new(Cell::new(0));
        let latest = Rc::new(Cell::new(0u64));
        let mut e = Engine::new(small_cfg());
        // Two spinners with different step sizes, and a blocked receiver.
        for step in [7, 13] {
            let (guard, latest) = (Guard(Rc::clone(&dropped)), Rc::clone(&latest));
            e.add_proc(move |mut ctx| async move {
                let _guard = guard;
                loop {
                    ctx.work(step).await;
                    latest.set(latest.get().max(ctx.now()));
                }
            });
        }
        let guard = Guard(Rc::clone(&dropped));
        e.add_proc(move |mut ctx| async move {
            let _guard = guard;
            ctx.receive1().await;
            unreachable!("no one sends to core 2");
        });
        let r = e.run(HORIZON);
        assert_eq!(dropped.get(), 3, "every proc future is dropped");
        assert!(latest.get() < HORIZON, "proc ran at cycle {}", latest.get());
        assert!(latest.get() >= HORIZON - 13);
        assert_eq!(r.cycles, HORIZON);
        // The clock ends at the later of the two spinners' next resumes.
        assert!(r.end_clock >= HORIZON && r.end_clock < HORIZON + 13);
    }

    #[test]
    fn early_return_finishes_only_that_proc() {
        let mut e = Engine::new(small_cfg());
        e.add_proc(|mut ctx| async move {
            ctx.work(100).await;
            ctx.record(Metric::Ops, 1);
        });
        e.add_proc(|mut ctx| async move {
            loop {
                ctx.work(10).await;
                ctx.record(Metric::Ops, 1);
            }
        });
        let r = e.run(10_000);
        assert_eq!(r.metrics[0][Metric::Ops as usize], 1);
        assert_eq!(r.per_core[0].busy, 100);
        let ops = r.metrics[1][Metric::Ops as usize];
        assert!((990..=1_000).contains(&ops), "ops {ops}");
        assert_eq!(r.cycles, 10_000);
    }

    #[test]
    fn deterministic_same_seed_same_result() {
        fn run_once() -> (u64, u64) {
            let mut e = Engine::new(small_cfg());
            for p in 0..4 {
                e.add_proc(move |mut ctx| async move {
                    use rand::{rngs::StdRng, Rng, SeedableRng};
                    let mut rng = StdRng::seed_from_u64(33 + p as u64);
                    loop {
                        ctx.work(rng.gen_range(0..50)).await;
                        ctx.faa(7, 1).await;
                        ctx.record(Metric::Ops, 1);
                    }
                });
            }
            let r = e.run(20_000);
            let ops: u64 = r.metrics.iter().map(|m| m[Metric::Ops as usize]).sum();
            let stalls: u64 = r.per_core.iter().map(|c| c.stall).sum();
            (ops, stalls)
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn backpressure_blocks_sender() {
        let cfg = MachineConfig {
            queue_capacity: 4,
            ..small_cfg()
        };
        let mut e = Engine::new(cfg);
        e.add_proc(|mut ctx| async move {
            // Receiver: wait long, then drain.
            ctx.work(10_000).await;
            for _ in 0..10 {
                ctx.receive1().await;
            }
        });
        e.add_proc(|mut ctx| async move {
            for i in 0..10 {
                ctx.send(0, &[i]).await; // must block after the queue fills
            }
            ctx.record(Metric::Ops, 1);
        });
        let r = e.run(1_000_000);
        assert_eq!(r.metrics[1][Metric::Ops as usize], 1);
        assert!(r.per_core[1].blocked_sends > 0, "sender never blocked");
        assert!(r.per_core[1].idle > 0);
    }

    #[test]
    fn quiescent_blocked_proc_is_torn_down() {
        let mut e = Engine::new(small_cfg());
        for _ in 0..2 {
            e.add_proc(|mut ctx| async move {
                ctx.receive1().await; // nobody ever sends
                unreachable!("must be stopped, not satisfied");
            });
        }
        e.add_proc(|mut ctx| async move {
            ctx.work(100).await;
            ctx.record(Metric::Ops, 1);
        });
        // Even with an effectively infinite horizon the run terminates once
        // no event can ever wake the blocked receivers.
        let r = e.run(u64::MAX / 2);
        assert_eq!(r.metrics[2][Metric::Ops as usize], 1);
        assert_eq!(r.end_clock, 100);
    }

    #[test]
    fn proc_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            let mut e = Engine::new(small_cfg());
            e.add_proc(|mut ctx| async move {
                loop {
                    ctx.work(5).await;
                }
            });
            e.add_proc(|mut ctx| async move {
                ctx.work(5).await;
                panic!("boom from sim proc");
            });
            e.run(1_000);
        });
        let msg = panic_text(&*result.expect_err("run must panic"));
        assert!(msg.contains("boom from sim proc"), "{msg}");
        assert!(msg.contains("proc 1"), "{msg}");
    }

    #[test]
    fn is_queue_empty_sees_arrivals_only() {
        let mut e = Engine::new(small_cfg());
        e.add_proc(|mut ctx| async move {
            // Wait until the message must have arrived.
            ctx.work(1_000).await;
            assert!(!ctx.is_queue_empty().await);
            assert_eq!(ctx.receive1().await, 9);
            assert!(ctx.is_queue_empty().await);
        });
        e.add_proc(|mut ctx| async move {
            ctx.send(0, &[9]).await;
        });
        e.run(100_000);
    }

    #[test]
    fn host_stats_count_one_handoff_per_resume() {
        let mut e = Engine::new(small_cfg());
        e.add_proc(|mut ctx| async move {
            let m = ctx.receive3().await;
            ctx.send(1, &[m[0] + m[1] + m[2]]).await;
        });
        e.add_proc(|mut ctx| async move {
            ctx.send(0, &[1, 2, 3]).await;
            assert_eq!(ctx.receive1().await, 6);
        });
        let r = e.run(100_000);
        // Proc 0: start → receive3; resume → send; resume → return.
        // Proc 1: start → send; resume → receive1; resume → return.
        assert_eq!(r.host.handoffs, 6);
        assert_eq!((r.host.engine_parks, r.host.proc_parks), (0, 0));
    }

    #[test]
    fn multi_word_messages_roundtrip() {
        let cfg = MachineConfig {
            queue_capacity: 64,
            ..small_cfg()
        };
        let mut e = Engine::new(cfg);
        e.add_proc(|mut ctx| async move {
            let words = ctx.receive(10).await;
            assert_eq!(words, (0..10u64).collect::<Vec<_>>());
            ctx.record(Metric::Ops, 1);
        });
        e.add_proc(|mut ctx| async move {
            let msg: Vec<u64> = (0..10).collect();
            ctx.send(0, &msg).await;
        });
        let r = e.run(100_000);
        assert_eq!(r.metrics[0][Metric::Ops as usize], 1);
        assert_eq!(r.per_core[0].msgs_recv, 1);
    }
}
