//! The per-client key-value oracle shared by `wire-kv` and `cluster-kv`.
//!
//! Each client owns a disjoint slice of the keyspace (keys `k` with
//! `k % clients == owner`) and never has two ops on one key in flight, so
//! every reply has exactly one correct value whatever order the server
//! applies different keys in: a GET returns the client's last PUT, a PUT
//! returns the value it replaces.

use mpsync_objects::seq::kv_ops;
use mpsync_objects::EMPTY;

use crate::measure::Rng;

/// Keys per workload (uniform), split between the clients.
pub const KEYSPACE: u64 = 8192;

#[derive(Debug, Clone, Copy)]
pub struct KvOp {
    pub idx: usize,
    pub key: u64,
    pub op: u8,
    pub arg: u64,
}

pub struct KvOracle {
    owner: u64,
    clients: u64,
    vals: Vec<u64>,
    inflight: Vec<bool>,
    seq: u64,
}

impl KvOracle {
    pub fn new(owner: u64, clients: u64) -> Self {
        let n = (KEYSPACE / clients) as usize;
        Self {
            owner,
            clients,
            vals: vec![EMPTY; n],
            inflight: vec![false; n],
            seq: 0,
        }
    }

    pub fn key_of(&self, idx: usize) -> u64 {
        idx as u64 * self.clients + self.owner
    }

    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// A 50 % GET / 50 % PUT op on a uniformly drawn owned key that has no
    /// op in flight; PUT values are unique per client and never `EMPTY`.
    pub fn next_op(&mut self, rng: &mut Rng) -> KvOp {
        let idx = loop {
            let i = rng.below(self.vals.len() as u64) as usize;
            if !self.inflight[i] {
                break i;
            }
        };
        self.inflight[idx] = true;
        let (op, arg) = if rng.coin() {
            (kv_ops::GET as u8, 0)
        } else {
            self.seq += 1;
            (kv_ops::PUT as u8, self.seq * self.clients + self.owner + 1)
        };
        KvOp {
            idx,
            key: self.key_of(idx),
            op,
            arg,
        }
    }

    /// A GET of owned key `idx` (the final read-back).
    pub fn read_op(&mut self, idx: usize) -> KvOp {
        self.inflight[idx] = true;
        KvOp {
            idx,
            key: self.key_of(idx),
            op: kv_ops::GET as u8,
            arg: 0,
        }
    }

    /// The op was not applied (refused or lost before admission).
    pub fn abandon(&mut self, op: &KvOp) {
        self.inflight[op.idx] = false;
    }

    /// Checks the reply to `op` and applies a PUT to the oracle.
    pub fn complete(&mut self, op: &KvOp, got: u64) -> Result<(), String> {
        self.inflight[op.idx] = false;
        let want = self.vals[op.idx];
        if op.op == kv_ops::PUT as u8 {
            self.vals[op.idx] = op.arg;
        }
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "key {} op {}: got {got:#x}, oracle {want:#x}",
                op.key, op.op
            ))
        }
    }

    /// Overwrites one oracle entry (the negative control in the tests).
    #[cfg(test)]
    pub fn corrupt(&mut self, idx: usize) {
        self.vals[idx] = self.vals[idx].wrapping_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsync_objects::seq::{kv_dispatch, KvMap};

    #[test]
    fn oracle_agrees_with_the_sequential_store_and_catches_corruption() {
        let mut store = KvMap::new();
        let mut o = KvOracle::new(1, 2);
        let mut rng = Rng::new(3, 0);
        for _ in 0..10_000 {
            let op = o.next_op(&mut rng);
            assert_eq!(op.key % 2, 1, "owner 1 draws only odd keys");
            let got = kv_dispatch(&mut store, op.key, op.op as u64, op.arg);
            o.complete(&op, got)
                .expect("oracle matches a correct store");
        }
        let victim = (0..o.len())
            .find(|&i| store.contains_key(&o.key_of(i)))
            .expect("a written key");
        o.corrupt(victim);
        let op = o.read_op(victim);
        let got = kv_dispatch(&mut store, op.key, op.op as u64, 0);
        assert!(
            o.complete(&op, got).is_err(),
            "a corrupted entry must be reported"
        );
    }
}
