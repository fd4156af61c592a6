//! `cluster-kv`: two in-process `ClusterNode`s, each over a default 2-shard
//! `RuntimeStore`, with `NodeConfig::new` placement and replication. Two
//! `ClusterClient` threads dial node 0 with disjoint uniform keys: about
//! half the keys forward to node 1, every PUT replicates, GETs do not.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use mpsync_cluster::tcp::{CallOutcome, ClusterClient, ClusterNode, TcpNodeConfig};
use mpsync_cluster::{slot_for, HashRing, NodeConfig, NodeId, RouteTable, RuntimeStore};
use mpsync_net::AdminClient;
use mpsync_objects::seq::kv_ops;
use mpsync_runtime::{RuntimeConfig, ShardedKvStore};

use crate::json;
use crate::kv::KEYSPACE;
use crate::kv::{KvOp, KvOracle};
use crate::measure::{sleep_until, Rng};
use crate::report::{put_runtime, PhaseOut, Report, RtCounts};
use crate::rounds::{OpenRate, Served};
use crate::trace::{SpanBuf, Tracer};

const CLIENTS: u64 = 2;
/// Open-loop load as a share of the ops/s the round's closed-loop warm-up
/// sustained: a tenth, light enough that ops rarely queue behind each other
/// and the generators keep their schedule, so the open phase shows per-op
/// cost from a mostly idle system.
pub const OPEN_LOAD: f64 = 0.10;
/// Protocol tick of the TCP transport (the `clusterbench` default).
const TICK_MS: u64 = 10;
const CALL_TIMEOUT: Duration = Duration::from_millis(500);
const MEMBERS: [NodeId; 2] = [0, 1];

pub struct Cluster {
    nodes: Vec<ClusterNode>,
    addrs: Vec<(NodeId, String)>,
    route: RouteTable,
    slots: u16,
}

impl Cluster {
    pub fn owner(&self, key: u64) -> NodeId {
        self.route.get(slot_for(key, self.slots)).owner
    }

    /// The first key at or above `from` owned by `node` (probe keys live
    /// outside the workload's keyspace).
    pub fn key_owned_by(&self, node: NodeId, from: u64) -> u64 {
        (from..)
            .find(|&k| self.owner(k) == node)
            .expect("both nodes own slots")
    }

    pub fn client(&self, first_id: u64) -> ClusterClient {
        ClusterClient::connect(self.addrs.clone(), CALL_TIMEOUT, first_id)
    }

    fn snapshot(&self, node: usize) -> Result<json::Value, String> {
        let mut admin =
            AdminClient::connect_tcp(&self.addrs[node].1).map_err(|e| format!("admin: {e}"))?;
        let body = admin.fetch_snapshot().map_err(|e| format!("admin: {e}"))?;
        json::parse(&body).map_err(|e| format!("admin snapshot: {e}"))
    }

    fn runtime_counts(&self) -> Result<RtCounts, String> {
        let mut all = RtCounts::default();
        for n in 0..self.nodes.len() {
            let snap = self.snapshot(n)?;
            all = all.and(RtCounts::from_json(
                snap.get("runtime").ok_or("snapshot lacks runtime")?,
            ));
        }
        Ok(all)
    }
}

/// Boots both members and waits until a PUT through node 0 on a key node 1
/// owns (forwarded and replicated) is acknowledged.
pub fn boot() -> Result<Cluster, String> {
    let listeners = MEMBERS
        .iter()
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let addrs: Vec<(NodeId, String)> = listeners
        .iter()
        .zip(MEMBERS)
        .map(|(l, id)| Ok((id, l.local_addr().map_err(|e| e.to_string())?.to_string())))
        .collect::<Result<_, String>>()?;
    let proto = NodeConfig::new(0, MEMBERS.to_vec());
    let (slots, vnodes) = (proto.slots, proto.vnodes);
    let mut nodes = Vec::new();
    for (listener, id) in listeners.into_iter().zip(MEMBERS) {
        let peers = addrs.iter().filter(|(p, _)| *p != id).cloned().collect();
        let store = RuntimeStore::new(ShardedKvStore::new(RuntimeConfig::new(2)), slots);
        let cfg = TcpNodeConfig {
            node: NodeConfig::new(id, MEMBERS.to_vec()),
            listener,
            peers,
            tick_ms: TICK_MS,
        };
        nodes.push(ClusterNode::start(cfg, store).map_err(|e| format!("node {id}: {e}"))?);
    }
    let cluster = Cluster {
        nodes,
        addrs,
        route: RouteTable::from_ring(&HashRing::new(&MEMBERS, vnodes), slots),
        slots,
    };
    let probe = cluster.key_owned_by(1, 1 << 30);
    cluster
        .client(u64::MAX >> 1)
        .call(probe, kv_ops::PUT as u8, 1)
        .map_err(|e| format!("first op: {e}"))?;
    Ok(cluster)
}

pub fn teardown(c: Cluster) {
    for n in c.nodes {
        n.shutdown().into_inner().shutdown();
    }
}

pub struct Gen {
    client: ClusterClient,
    oracle: KvOracle,
    rng: Rng,
    resends: u64,
    redirects: u64,
    seq: u64,
}

impl Gen {
    pub fn new(cluster: &Cluster, owner: u64, seed: u64) -> Self {
        Self {
            client: cluster.client((owner + 1) << 40),
            oracle: KvOracle::new(owner, CLIENTS),
            rng: Rng::new(seed, owner),
            resends: 0,
            redirects: 0,
            seq: 0,
        }
    }

    /// One timed call; `Some` outcome when it was answered.
    pub fn call(
        &mut self,
        key: u64,
        op: u8,
        arg: u64,
        spans: &mut SpanBuf,
        parent: u64,
    ) -> (std::io::Result<CallOutcome>, Instant, Instant) {
        self.seq += 1;
        let t0 = Instant::now();
        let res = self.client.call(key, op, arg);
        let t1 = Instant::now();
        spans.record("cluster.ClusterClient::call", t0, t1, parent, self.seq);
        if let Ok(o) = &res {
            self.resends += o.resends as u64;
            self.redirects += o.redirects as u64;
        }
        (res, t0, t1)
    }

    fn op(
        &mut self,
        op: KvOp,
        from: Option<Instant>,
        out: &mut PhaseOut,
        spans: &mut SpanBuf,
        parent: u64,
    ) {
        let (res, t0, t1) = self.call(op.key, op.op, op.arg, spans, parent);
        match res {
            Ok(o) => match self.oracle.complete(&op, o.value) {
                Ok(()) => {
                    let from = from.unwrap_or(t0);
                    out.ops += 1;
                    out.lat.record(from, t1 - from);
                }
                Err(e) => out.fail(|| e),
            },
            Err(e) => {
                self.oracle.abandon(&op);
                out.fail(|| format!("key {} op {}: {e}", op.key, op.op));
            }
        }
    }

    fn closed(
        &mut self,
        (start, end): (Instant, Instant),
        spans: &mut SpanBuf,
        parent: u64,
    ) -> PhaseOut {
        let mut out = PhaseOut::windowed(start, end);
        while Instant::now() < end {
            let op = self.oracle.next_op(&mut self.rng);
            self.op(op, None, &mut out, spans, parent);
        }
        out
    }

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
        while due < end {
            sleep_until(due);
            out.late.push(Instant::now() - due);
            let op = self.oracle.next_op(&mut self.rng);
            self.op(op, Some(due), &mut out, spans, parent);
            due += period;
        }
        out
    }

    fn read_back(&mut self, spans: &mut SpanBuf) -> PhaseOut {
        let mut out = PhaseOut::default();
        for idx in 0..self.oracle.len() {
            let op = self.oracle.read_op(idx);
            self.op(op, None, &mut out, spans, 0);
        }
        out
    }
}

/// `cluster-kv` as a [`Served`] workload; the fields accumulate the
/// layer counters of traced runs.
#[derive(Default)]
pub struct ClusterKv {
    rt_before: RtCounts,
    rt: RtCounts,
    resends: u64,
    redirects: u64,
    /// The dialed node's admin snapshot after the last round.
    snapshot: Option<json::Value>,
    fwd_share: f64,
}

impl Served for ClusterKv {
    type Sys = Cluster;
    type Gen = Gen;
    const WARM: f64 = 0.2;
    const OPEN: f64 = 0.3;
    const OPEN_RATE: OpenRate = OpenRate::OfCapacity(OPEN_LOAD);
    const CPU_IN_OPEN: bool = false;
    const BOOTS_PER_ROUND: usize = 32;

    fn boot(&self) -> Result<Cluster, String> {
        boot()
    }

    fn teardown(&self, sys: Cluster) {
        teardown(sys);
    }

    fn gens(&self, sys: &Cluster, seed: u64, round: u64) -> Result<Vec<Gen>, String> {
        Ok((0..CLIENTS)
            .map(|c| Gen::new(sys, c, seed ^ round << 32))
            .collect())
    }

    fn closed(
        &self,
        g: &mut Gen,
        win: (Instant, Instant),
        spans: &mut SpanBuf,
        pid: u64,
    ) -> PhaseOut {
        g.closed(win, spans, pid)
    }

    fn open(
        &self,
        g: &mut Gen,
        first: Instant,
        end: Instant,
        period: Duration,
        spans: &mut SpanBuf,
        pid: u64,
    ) -> PhaseOut {
        g.open(first, end, period, spans, pid)
    }

    /// Reads every owned key back through node 0.
    fn verify(&self, sys: Cluster, mut gens: Vec<Gen>, r: &mut Report) {
        for g in &mut gens {
            let mut back = g.read_back(&mut SpanBuf::off());
            r.absorb(&mut back);
        }
        drop(gens);
        teardown(sys);
    }

    fn mark(&mut self, sys: &Cluster, gens: &[Gen], after: bool) -> Result<(), String> {
        let now = sys.runtime_counts()?;
        if !after {
            self.rt_before = now;
            return Ok(());
        }
        self.rt.add(&now.since(&self.rt_before));
        // Generators are fresh each round, so their totals are the round's.
        self.resends += gens.iter().map(|g| g.resends).sum::<u64>();
        self.redirects += gens.iter().map(|g| g.redirects).sum::<u64>();
        self.snapshot = Some(sys.snapshot(0)?);
        let fwd = (0..KEYSPACE).filter(|&k| sys.owner(k) != 0).count();
        self.fwd_share = fwd as f64 / KEYSPACE as f64;
        Ok(())
    }

    fn put_layers(&self, r: &mut Report, _: &Tracer, _: &PhaseOut, _: &PhaseOut) {
        put_runtime(r, &self.rt);
        r.put("cluster.resends", self.resends as f64, "count");
        r.put("cluster.redirects", self.redirects as f64, "count");
        r.put("cluster.fwd_share", self.fwd_share, "ratio");
        let num = |k: &str| {
            self.snapshot
                .as_ref()
                .and_then(|s| s.get(k))
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0)
        };
        r.put("cluster.pending_fwds", num("pending_fwds"), "count");
        let slots = self
            .snapshot
            .as_ref()
            .and_then(|s| s.get("slots"))
            .and_then(|s| s.as_array())
            .unwrap_or(&[]);
        let slot = |s: &json::Value, k: &str| s.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
        let lag = slots
            .iter()
            .map(|s| slot(s, "repl_lag"))
            .fold(0.0, f64::max);
        let dedup: f64 = slots.iter().map(|s| slot(s, "dedup")).sum();
        r.put("cluster.repl_ack_lag_max", lag, "count");
        r.put("cluster.dedup_entries", dedup, "count");
    }
}
