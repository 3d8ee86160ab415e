//! The BTB1's keyed write port against its address-searched one.
//!
//! The predictor derives a branch's [`BtbKey`] once, at prediction, and
//! writes the entry back at completion through
//! [`Btb1::update_keyed`]. That is only sound if it does exactly what
//! [`Btb1::update`] on the branch's address would do at completion,
//! whatever happened to the row in between. These properties run the
//! same random install/lookup/update/remove sequences on two copies of
//! a small BTB1, one written by key and one by address, and require
//! identical results and identical tables. Every sequence evicts the
//! predicted branch and installs a tag alias of it (another address
//! with the same row, tag and offset) before the completion; under the
//! `verify` feature it also plants a duplicate of the alias.

use proptest::prelude::*;
use zbp_core::btb::BtbEntry;
use zbp_core::btb1::{Btb1, BtbKey};
use zbp_core::config::Btb1Config;
use zbp_zarch::{InstrAddr, Mnemonic};

/// Two rows of two ways and a 2-bit tag: evictions and aliases are
/// common.
const CFG: Btb1Config =
    Btb1Config { rows: 2, ways: 2, tag_bits: 2, search_bytes: 64, search_ports: 1 };

/// Halfword addresses over 32 lines.
fn addr_of(i: u64) -> InstrAddr {
    InstrAddr::new(0x1_0000 + (i % 1024) * 2)
}

fn entry(addr: InstrAddr, target: u64) -> BtbEntry {
    BtbEntry::install(
        addr,
        Mnemonic::Brc,
        InstrAddr::new(target),
        true,
        CFG.search_bytes,
        CFG.tag_bits,
    )
}

/// One step of a random sequence; the operand picks an address.
#[derive(Debug, Clone, Copy)]
enum Op {
    Install(u64),
    Remove(u64),
    /// A prediction-port lookup; its key joins the in-flight queue.
    Predict(u64),
    /// Completes the oldest in-flight prediction.
    Complete,
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..4, 0u64..1024).prop_map(|(k, a)| match k {
        0 => Op::Install(a),
        1 => Op::Remove(a),
        2 => Op::Predict(a),
        _ => Op::Complete,
    })
}

/// The pair under test: `keyed` takes completion writes by key, `plain`
/// by address. Everything else is applied to both.
struct Pair {
    keyed: Btb1,
    plain: Btb1,
    inflight: Vec<(InstrAddr, BtbKey)>,
    writes: u64,
}

impl Pair {
    fn new() -> Self {
        Pair { keyed: Btb1::new(&CFG), plain: Btb1::new(&CFG), inflight: Vec::new(), writes: 0 }
    }

    fn install(&mut self, e: BtbEntry) -> Result<(), String> {
        prop_assert_eq!(self.keyed.install(e), self.plain.install(e));
        Ok(())
    }

    fn predict(&mut self, addr: InstrAddr) -> Result<BtbKey, String> {
        let (key, hit) = self.keyed.lookup_keyed(addr);
        prop_assert_eq!(hit, self.plain.lookup(addr));
        self.inflight.push((addr, key));
        Ok(key)
    }

    /// Writes the completing branch's entry back through both ports:
    /// a new target and a flipped bidirectional bit, so a write to the
    /// wrong way or a missed write shows in the tables.
    fn complete(&mut self, addr: InstrAddr, key: BtbKey) -> Result<(), String> {
        self.writes += 1;
        let target = InstrAddr::new(0x9_0000 + self.writes * 2);
        let write = |e: &mut BtbEntry| {
            e.target = target;
            e.bidirectional = !e.bidirectional;
        };
        prop_assert_eq!(self.keyed.update_keyed(key, write), self.plain.update(addr, write));
        prop_assert_eq!(
            self.keyed.probe_keyed(key).map(|(w, e)| (w, *e)),
            self.plain.probe(addr).map(|(w, e)| (w, *e))
        );
        Ok(())
    }

    fn apply(&mut self, op: Op) -> Result<(), String> {
        match op {
            Op::Install(a) => self.install(entry(addr_of(a), a))?,
            Op::Remove(a) => {
                prop_assert_eq!(self.keyed.remove(addr_of(a)), self.plain.remove(addr_of(a)));
            }
            Op::Predict(a) => {
                self.predict(addr_of(a))?;
            }
            Op::Complete => {
                if !self.inflight.is_empty() {
                    let (addr, key) = self.inflight.remove(0);
                    self.complete(addr, key)?;
                }
            }
        }
        Ok(())
    }

    /// Installs other branches until `addr`'s entry is gone from both
    /// copies.
    fn evict(&mut self, addr: InstrAddr) -> Result<(), String> {
        let mut i = 0;
        while self.plain.probe(addr).is_some() {
            prop_assert!(i < 4096, "could not evict {addr}");
            let other = addr_of(addr.raw() / 2 + 1 + i);
            self.install(entry(other, i))?;
            i += 1;
        }
        prop_assert!(self.keyed.probe(addr).is_none());
        Ok(())
    }

    fn same_tables(&self) -> Result<(), String> {
        let keyed: Vec<BtbEntry> = self.keyed.iter().copied().collect();
        let plain: Vec<BtbEntry> = self.plain.iter().copied().collect();
        prop_assert_eq!(keyed, plain);
        Ok(())
    }
}

/// Another address with `addr`'s row, tag and offset, found by probing
/// a scratch table that holds only `addr`.
fn alias_of(addr: InstrAddr) -> Option<InstrAddr> {
    let mut scratch = Btb1::new(&CFG);
    scratch.install(entry(addr, 0));
    (1..4096u64)
        .map(|k| InstrAddr::new(addr.raw() + k * CFG.search_bytes))
        .find(|&y| scratch.probe(y).is_some())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn keyed_update_matches_update_by_address(
        pre in prop::collection::vec(op(), 0..48),
        target in 0u64..1024,
        mid in prop::collection::vec(op(), 0..24),
        post in prop::collection::vec(op(), 0..24),
    ) {
        let mut pair = Pair::new();
        for op in pre {
            pair.apply(op)?;
        }
        // Predict a branch that is present, then evict it and install a
        // tag alias before it completes: the completion must then write
        // the alias, through either port.
        let addr = addr_of(target);
        pair.install(entry(addr, 1))?;
        let key = pair.predict(addr)?;
        pair.inflight.pop();
        for op in mid {
            pair.apply(op)?;
        }
        pair.evict(addr)?;
        let alias = alias_of(addr).expect("a 2-bit tag over 2 rows always aliases");
        pair.install(entry(alias, 2))?;
        #[cfg(feature = "verify")]
        {
            // A broken read-before-write filter: both ports must write
            // the first matching way.
            prop_assert_eq!(pair.keyed.force_duplicate(alias), pair.plain.force_duplicate(alias));
        }
        for op in post {
            pair.apply(op)?;
        }
        pair.complete(addr, key)?;
        while !pair.inflight.is_empty() {
            pair.apply(Op::Complete)?;
        }
        pair.same_tables()?;
    }
}
