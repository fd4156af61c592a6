//! `wire-kv`: a single-node `NetServer` over loopback TCP serving a
//! 2-shard `ShardedKvStore`, all in the library's default configuration,
//! driven by 2 connections — an open-loop phase at a fixed aggregate rate,
//! then a closed-loop phase at pipeline 16.

use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpsync_net::frame::{Response, Status};
use mpsync_net::{
    ClientError, ClientReceiver, ClientSender, DrainReport, NetClient, NetServer, ServerConfig,
};
use mpsync_objects::seq::kv_ops;
use mpsync_runtime::{RuntimeConfig, ShardedKvStore};

use crate::kv::{KvOp, KvOracle};
use crate::measure::{sleep_until, Rng};
use crate::report::{put_runtime, window, PhaseOut, Report, RtCounts};
use crate::rounds::{OpenRate, Served};
use crate::trace::{SpanBuf, Tracer};

const CONNS: u64 = 2;
const PIPELINE: usize = 16;
/// Aggregate open-loop rate, split evenly over the connections.
pub const OPEN_RATE: f64 = 20_000.0;
/// Outside the workload's keyspace, so the boot probe never touches an
/// oracle-tracked key.
const PROBE_KEY: u64 = 1 << 30;
const IO_TIMEOUT: Duration = Duration::from_secs(5);

pub struct System {
    pub store: Arc<ShardedKvStore>,
    pub server: NetServer,
    pub addr: SocketAddr,
}

/// Boots the default-configured server and waits for its first op.
pub fn boot(rt: RuntimeConfig, cfg: ServerConfig) -> Result<System, String> {
    let store = Arc::new(ShardedKvStore::new(rt));
    let server = NetServer::builder(store.clone())
        .config(cfg)
        .tcp("127.0.0.1:0")
        .and_then(|b| b.start())
        .map_err(|e| format!("server start: {e}"))?;
    let addr = server.tcp_addrs()[0];
    let mut probe = NetClient::connect_tcp(addr).map_err(|e| format!("connect: {e}"))?;
    probe
        .call(PROBE_KEY, kv_ops::GET as u8, 0)
        .map_err(|e| format!("first op: {e}"))?;
    Ok(System {
        store,
        server,
        addr,
    })
}

/// Drains the server and shuts the runtime down.
pub fn teardown(sys: System) -> DrainReport {
    let report = sys.server.shutdown();
    if let Ok(store) = Arc::try_unwrap(sys.store) {
        store.shutdown();
    }
    report
}

pub struct Conn {
    tx: ClientSender,
    rx: ClientReceiver,
    oracle: KvOracle,
    rng: Rng,
    /// Request id, op, and the instant its latency counts from.
    pending: VecDeque<(u64, KvOp, Instant)>,
}

impl Conn {
    fn connect(addr: SocketAddr, owner: u64, seed: u64) -> Result<Self, String> {
        let (tx, rx) = NetClient::connect_tcp(addr)
            .and_then(|c| c.split())
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Self {
            tx,
            rx,
            oracle: KvOracle::new(owner, CONNS),
            rng: Rng::new(seed, owner),
            pending: VecDeque::new(),
        })
    }

    fn send(&mut self, op: KvOp, from: Instant) {
        let id = self.tx.send(op.key, op.op, op.arg);
        self.pending.push_back((id, op, from));
    }

    fn flush(&mut self, spans: &mut SpanBuf, parent: u64) -> Result<(), String> {
        let t0 = Instant::now();
        self.tx.flush().map_err(|e| format!("flush: {e}"))?;
        spans.record("net.ClientSender::flush", t0, Instant::now(), parent, 0);
        Ok(())
    }

    fn on_reply(&mut self, resp: Response, out: &mut PhaseOut, spans: &mut SpanBuf, parent: u64) {
        let now = Instant::now();
        let Some(pos) = self.pending.iter().position(|p| p.0 == resp.id) else {
            out.fail(|| format!("reply to unknown request {}", resp.id));
            return;
        };
        let (id, op, from) = self.pending.remove(pos).expect("position is in range");
        spans.record("net.op", from, now, parent, id);
        if resp.status != Status::Ok {
            self.oracle.abandon(&op);
            out.fail(|| format!("key {} op {}: status {:?}", op.key, op.op, resp.status));
            return;
        }
        match self.oracle.complete(&op, resp.value) {
            Ok(()) => {
                out.ops += 1;
                out.lat.record(from, now - from);
            }
            Err(e) => out.fail(|| e),
        }
    }

    /// Every op still in flight when the stream broke counts as failed.
    fn abort(&mut self, out: &mut PhaseOut, why: String) {
        let n = self.pending.len().max(1);
        for (_, op, _) in self.pending.drain(..) {
            self.oracle.abandon(&op);
        }
        out.fail(|| why);
        out.failed += n as u64 - 1;
    }

    fn recv_blocking(
        &mut self,
        out: &mut PhaseOut,
        spans: &mut SpanBuf,
        parent: u64,
    ) -> Result<(), String> {
        let t0 = Instant::now();
        let resp = self.rx.recv().map_err(|e| format!("recv: {e}"))?;
        spans.record("net.ClientReceiver::recv", t0, Instant::now(), parent, 0);
        let resp = resp.ok_or("server closed the connection")?;
        self.on_reply(resp, out, spans, parent);
        Ok(())
    }

    /// Closed loop: keep `depth` requests in flight until `end`, then drain.
    /// With `reads` set, issues exactly those reads instead (the read-back).
    fn closed(
        &mut self,
        (start, end): (Instant, Instant),
        depth: usize,
        mut reads: Option<std::ops::Range<usize>>,
        spans: &mut SpanBuf,
        parent: u64,
    ) -> PhaseOut {
        let mut out = PhaseOut::windowed(start, end);
        if let Err(e) = self.rx.set_read_timeout(Some(IO_TIMEOUT)) {
            out.fail(|| format!("set timeout: {e}"));
            return out;
        }
        loop {
            let mut queued = false;
            while self.pending.len() < depth {
                let op = match reads.as_mut() {
                    Some(r) => match r.next() {
                        Some(idx) => self.oracle.read_op(idx),
                        None => break,
                    },
                    None if Instant::now() < end => self.oracle.next_op(&mut self.rng),
                    None => break,
                };
                self.send(op, Instant::now());
                queued = true;
            }
            if self.pending.is_empty() {
                return out;
            }
            let step = if queued {
                self.flush(spans, parent)
            } else {
                Ok(())
            }
            .and_then(|()| self.recv_blocking(&mut out, spans, parent));
            if let Err(e) = step {
                self.abort(&mut out, e);
                return out;
            }
        }
    }

    /// Open loop: one request every `period` from `start` until `end`, each
    /// timed from its due instant; replies are read while waiting.
    fn open(
        &mut self,
        start: Instant,
        end: Instant,
        period: Duration,
        spans: &mut SpanBuf,
        parent: u64,
    ) -> PhaseOut {
        let mut out = PhaseOut::windowed(start, end);
        let mut due = start;
        loop {
            let now = Instant::now();
            if due < end && now >= due {
                out.late.push(now - due);
                let op = self.oracle.next_op(&mut self.rng);
                self.send(op, due);
                due += period;
                if let Err(e) = self.flush(spans, parent) {
                    self.abort(&mut out, e);
                    return out;
                }
                continue;
            }
            if self.pending.is_empty() {
                if due >= end {
                    return out;
                }
                sleep_until(due);
                continue;
            }
            let wait = if due < end {
                due.saturating_duration_since(now)
                    .max(Duration::from_micros(20))
            } else {
                IO_TIMEOUT
            };
            if let Err(e) = self.rx.set_read_timeout(Some(wait)) {
                self.abort(&mut out, format!("set timeout: {e}"));
                return out;
            }
            let t0 = Instant::now();
            match self.rx.recv() {
                Ok(Some(resp)) => {
                    spans.record("net.ClientReceiver::recv", t0, Instant::now(), parent, 0);
                    self.on_reply(resp, &mut out, spans, parent);
                }
                Err(ClientError::Io(e))
                    if due < end
                        && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Ok(None) => {
                    self.abort(&mut out, "server closed the connection".into());
                    return out;
                }
                Err(e) => {
                    self.abort(&mut out, format!("recv: {e}"));
                    return out;
                }
            }
        }
    }
}

/// `wire-kv` as a [`Served`] workload; the fields accumulate the layer
/// counters of traced runs.
#[derive(Default)]
pub struct WireKv {
    rt_before: RtCounts,
    rt: RtCounts,
    net_before: DrainReport,
    net: [u64; 4],
}

impl Served for WireKv {
    type Sys = System;
    type Gen = Conn;
    const WARM: f64 = 0.1;
    const OPEN: f64 = 0.4;
    const OPEN_RATE: OpenRate = OpenRate::Fixed(OPEN_RATE);
    const CPU_IN_OPEN: bool = true;
    const BOOTS_PER_ROUND: usize = 48;

    fn boot(&self) -> Result<System, String> {
        boot(RuntimeConfig::new(2), ServerConfig::default())
    }

    fn teardown(&self, sys: System) {
        teardown(sys);
    }

    fn gens(&self, sys: &System, seed: u64, round: u64) -> Result<Vec<Conn>, String> {
        (0..CONNS)
            .map(|c| Conn::connect(sys.addr, c, seed ^ round << 32))
            .collect()
    }

    fn closed(
        &self,
        c: &mut Conn,
        win: (Instant, Instant),
        spans: &mut SpanBuf,
        pid: u64,
    ) -> PhaseOut {
        c.closed(win, PIPELINE, None, spans, pid)
    }

    fn open(
        &self,
        c: &mut Conn,
        first: Instant,
        end: Instant,
        period: Duration,
        spans: &mut SpanBuf,
        pid: u64,
    ) -> PhaseOut {
        c.open(first, end, period, spans, pid)
    }

    fn verify(&self, sys: System, mut conns: Vec<Conn>, r: &mut Report) {
        // Read every owned key back through the server.
        for c in &mut conns {
            let n = c.oracle.len();
            let mut back = c.closed(
                window(Duration::ZERO),
                PIPELINE,
                Some(0..n),
                &mut SpanBuf::off(),
                0,
            );
            r.absorb(&mut back);
        }
        drop(conns);
        teardown(sys);
    }

    fn mark(&mut self, sys: &System, _: &[Conn], after: bool) -> Result<(), String> {
        let (rt, net) = (RtCounts::of(&sys.store.stats()), sys.server.stats());
        if after {
            self.rt.add(&rt.since(&self.rt_before));
            let b = &self.net_before;
            for (acc, d) in self.net.iter_mut().zip([
                net.requests - b.requests,
                net.acked - b.acked,
                net.busy - b.busy,
                net.disconnects - b.disconnects,
            ]) {
                *acc += d;
            }
        } else {
            (self.rt_before, self.net_before) = (rt, net);
        }
        Ok(())
    }

    fn put_layers(&self, r: &mut Report, tracer: &Tracer, open: &PhaseOut, closed: &PhaseOut) {
        put_runtime(r, &self.rt);
        let ops = (open.ops + closed.ops).max(1) as f64;
        let (_, flush_ns) = tracer.totals("net.ClientSender::flush");
        let (_, recv_ns) = tracer.totals("net.ClientReceiver::recv");
        r.put("net.client_flush_ns", flush_ns as f64 / ops, "ns/op");
        r.put(
            "net.client_recv_wait_us",
            recv_ns as f64 / 1e3 / ops,
            "us/op",
        );
        let names = ["net.requests", "net.acked", "net.busy", "net.disconnects"];
        for (name, v) in names.into_iter().zip(self.net) {
            r.put(name, v as f64, "count");
        }
        let [requests, acked, ..] = self.net;
        r.put(
            "net.acked_per_request",
            acked as f64 / requests.max(1) as f64,
            "ratio",
        );
    }
}
