//! Vault controllers.
//!
//! Each vault owns a slice of the DRAM banks (the memory partitions
//! stacked above it, connected by TSVs) plus, in HMC 2.0, one 128-bit PIM
//! functional unit. The controller itself is a serial resource with a
//! small per-transaction occupancy; the FU is a second serial resource
//! used only by PIM instructions. Banks run an open-page policy (see
//! [`crate::bank`]).

use crate::bank::Bank;
use crate::timing::DramTiming;
use crate::Ps;

/// What a vault must do for one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VaultAccess {
    /// 64-byte read.
    Read,
    /// 64-byte write.
    Write,
    /// PIM atomic read-modify-write (bank locked throughout).
    PimRmw,
}

/// Timing outcome of a vault access.
#[derive(Debug, Clone, Copy)]
pub struct VaultCompletion {
    /// When the response payload is ready to leave the vault (ps).
    pub response_ready: Ps,
    /// How long the request waited behind other work in this vault (ps).
    pub queue_delay: Ps,
    /// Whether the access hit the open row.
    pub row_hit: bool,
}

/// The vault-timing seam: everything the cube (and the lockstep oracle)
/// needs from a vault controller. The shipped [`Vault`] is the optimized
/// implementation; `crate::reference::ReferenceVault` re-derives the same
/// timing independently so the two can be run in lockstep.
pub trait VaultTiming {
    /// A short stable identifier for reports.
    fn name(&self) -> &'static str;

    /// Services one access — see [`Vault::service`] for the parameter
    /// contract (derated `timing`, refresh overhead in per-mille, phase
    /// frequency derating as a `(num, den)` stretch).
    #[allow(clippy::too_many_arguments)]
    fn service(
        &mut self,
        arrive: Ps,
        bank: usize,
        addr: u64,
        access: VaultAccess,
        timing: &DramTiming,
        refresh_permille: u64,
        freq_stretch: (u64, u64),
    ) -> VaultCompletion;

    /// Number of banks.
    fn bank_count(&self) -> usize;

    /// Accesses that hit the open row so far.
    fn row_hits(&self) -> u64;

    /// Accesses that paid a row activation so far.
    fn row_misses(&self) -> u64;
}

/// One vault: controller + FU + TSV data bus + banks.
#[derive(Debug, Clone)]
pub struct Vault {
    /// Controller serialization horizon (ps).
    ctrl_next_free: Ps,
    /// PIM functional-unit horizon (ps).
    fu_next_free: Ps,
    /// TSV data-bus horizon (ps) — the vault's internal DRAM bandwidth.
    bus_next_free: Ps,
    /// The banks this vault manages.
    banks: Vec<Bank>,
    /// Controller occupancy per transaction (ps).
    ctrl_occupancy: Ps,
    /// FU compute time per PIM operation (ps).
    fu_latency: Ps,
    /// TSV bus time per byte (ps) at nominal frequency.
    bus_ps_per_byte: f64,
    /// Per-phase costs derived from the arguments of the last `service`.
    costs: VaultCosts,
    /// Accesses that hit the open row.
    row_hits: u64,
    /// Accesses that paid a row activation.
    row_misses: u64,
}

/// What a vault's costs depend on besides its own constants: the derated
/// timing, the refresh overhead (per-mille) and the frequency stretch.
/// It changes only when the cube changes operating phase.
type CostKey = (DramTiming, u64, (u64, u64));

/// Every occupancy and latency a vault access uses, for one [`CostKey`].
/// Arrays indexed by access kind follow [`VaultAccess`]'s order (read,
/// write, PIM); `[.][row_hit as usize]` picks the miss or hit entry.
#[derive(Debug, Clone)]
struct VaultCosts {
    key: CostKey,
    /// Controller occupancy per transaction.
    ctrl: Ps,
    /// FU occupancy per PIM operation.
    fu: Ps,
    /// Bank occupancy per access kind, on a row miss and a row hit.
    bank_occ: [[Ps; 2]; 3],
    /// Bank start to response ready, per access kind, miss and hit.
    resp: [[Ps; 2]; 3],
    /// Bank start to the PIM modify stage, on a miss and a hit.
    fu_ready: [Ps; 2],
    /// FU start to response ready for a PIM operation.
    fu_done: Ps,
    /// TSV bus occupancy per access kind.
    bus: [Ps; 3],
}

impl VaultCosts {
    fn new(key: CostKey, ctrl_occupancy: Ps, fu_latency: Ps, bus_ps_per_byte: f64) -> Self {
        let (t, refresh_permille, (fnum, fden)) = key;
        let stretch = |v: Ps| v * (1000 + refresh_permille) / 1000;
        // Column-cycle occupancy for row hits (read + write column ops).
        let col = 2 * t.t_burst;
        let rw_occ = [stretch(t.t_rc().max(t.read_latency())), stretch(col)];
        let pim_occ = [
            stretch(t.t_rcd + t.t_cl + fu_latency + t.t_burst + t.t_rp),
            stretch(fu_latency + col),
        ];
        // TSV data-bus occupancy: 64-byte blocks for regular accesses;
        // a PIM read-modify-write moves two 32-byte DRAM granules plus
        // the command/row-activation slot (16-byte equivalent).
        let bus = |bytes: f64| (bytes * bus_ps_per_byte) as Ps * fnum / fden;
        Self {
            key,
            ctrl: ctrl_occupancy * fnum / fden,
            fu: fu_latency * fnum / fden,
            bank_occ: [rw_occ, rw_occ, pim_occ],
            resp: [
                [t.read_latency(), t.t_cl + t.t_burst],
                [t.t_rcd + t.t_burst, t.t_burst],
                [
                    t.t_rcd + t.t_cl + fu_latency + t.t_burst,
                    t.t_cl + fu_latency + t.t_burst,
                ],
            ],
            fu_ready: [t.t_rcd + t.t_cl, t.t_cl],
            fu_done: fu_latency + t.t_burst,
            bus: [bus(64.0), bus(64.0), bus(80.0)],
        }
    }
}

impl Vault {
    /// Creates a vault with `banks` banks and an internal data bus of
    /// `bus_bytes_per_s` (HMC 2.0: ≈10 GB/s per vault, 320 GB/s
    /// aggregate — the "internal DRAM bandwidth" the paper's §III-C says
    /// PIM offloading can push past 320 GB/s).
    pub fn new(banks: usize, ctrl_occupancy: Ps, fu_latency: Ps, bus_bytes_per_s: f64) -> Self {
        assert!(bus_bytes_per_s > 0.0);
        let bus_ps_per_byte = 1e12 / bus_bytes_per_s;
        let nominal = (DramTiming::hmc20(), 0, (1, 1));
        Self {
            ctrl_next_free: 0,
            fu_next_free: 0,
            bus_next_free: 0,
            banks: vec![Bank::default(); banks],
            ctrl_occupancy,
            fu_latency,
            bus_ps_per_byte,
            costs: VaultCosts::new(nominal, ctrl_occupancy, fu_latency, bus_ps_per_byte),
            row_hits: 0,
            row_misses: 0,
        }
    }

    /// Number of banks.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Accesses that hit the open row so far.
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Accesses that paid a row activation so far.
    pub fn row_misses(&self) -> u64 {
        self.row_misses
    }

    /// Fraction of accesses that hit the open row (0 when idle).
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Services one access to `addr` arriving at `arrive` on `bank`,
    /// using the (possibly derated) `timing`. `refresh_permille` is the
    /// per-mille bank-time overhead of refresh (e.g. 33 = 3.3 %);
    /// `freq_stretch` is the phase frequency derating as `(num, den)` —
    /// it slows the whole vault-internal domain (banks, TSV bus, FU,
    /// controller), which is what makes overheated naïve offloading pay.
    #[allow(clippy::too_many_arguments)]
    pub fn service(
        &mut self,
        arrive: Ps,
        bank: usize,
        addr: u64,
        access: VaultAccess,
        timing: &DramTiming,
        refresh_permille: u64,
        freq_stretch: (u64, u64),
    ) -> VaultCompletion {
        assert!(bank < self.banks.len(), "bank index out of range");
        let key = (*timing, refresh_permille, freq_stretch);
        if key != self.costs.key {
            self.costs = VaultCosts::new(
                key,
                self.ctrl_occupancy,
                self.fu_latency,
                self.bus_ps_per_byte,
            );
        }
        let c = &self.costs;
        let kind = access as usize;
        // Controller occupancy (internal domain: derated).
        let ctrl_start = self.ctrl_next_free.max(arrive);
        self.ctrl_next_free = ctrl_start + c.ctrl;
        let ready = self.ctrl_next_free;

        let [miss_occ, hit_occ] = c.bank_occ[kind];
        let (bank_start, row_hit) = self.banks[bank].reserve(ready, addr, hit_occ, miss_occ);
        if row_hit {
            self.row_hits += 1;
        } else {
            self.row_misses += 1;
        }
        let queue_delay = bank_start - arrive.min(bank_start);

        let mut response_ready = bank_start + c.resp[kind][row_hit as usize];
        if access == VaultAccess::PimRmw {
            // The FU is shared across the vault's banks: the modify stage
            // serializes there too.
            let fu_start = self
                .fu_next_free
                .max(bank_start + c.fu_ready[row_hit as usize]);
            self.fu_next_free = fu_start + c.fu;
            response_ready = response_ready.max(fu_start + c.fu_done);
        }

        let bus_occ = c.bus[kind];
        let bus_start = self.bus_next_free.max(bank_start);
        self.bus_next_free = bus_start + bus_occ;
        response_ready = response_ready.max(bus_start + bus_occ);

        VaultCompletion {
            response_ready,
            queue_delay,
            row_hit,
        }
    }
}

impl VaultTiming for Vault {
    fn name(&self) -> &'static str {
        "vault"
    }

    fn service(
        &mut self,
        arrive: Ps,
        bank: usize,
        addr: u64,
        access: VaultAccess,
        timing: &DramTiming,
        refresh_permille: u64,
        freq_stretch: (u64, u64),
    ) -> VaultCompletion {
        Vault::service(
            self,
            arrive,
            bank,
            addr,
            access,
            timing,
            refresh_permille,
            freq_stretch,
        )
    }

    fn bank_count(&self) -> usize {
        Vault::bank_count(self)
    }

    fn row_hits(&self) -> u64 {
        Vault::row_hits(self)
    }

    fn row_misses(&self) -> u64 {
        Vault::row_misses(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::ROW_BYTES;
    use crate::ns_to_ps;

    const NOMINAL: (u64, u64) = (1, 1);

    fn vault() -> Vault {
        Vault::new(16, ns_to_ps(0.5), ns_to_ps(2.0), 10.0e9)
    }

    #[test]
    fn read_latency_unloaded() {
        let mut v = vault();
        let t = DramTiming::hmc20();
        let c = v.service(0, 0, 0, VaultAccess::Read, &t, 0, NOMINAL);
        // ctrl 0.5 ns + tRCD + tCL + burst = 0.5 + 13.75 + 13.75 + 4.
        assert_eq!(c.response_ready, ns_to_ps(0.5) + t.read_latency());
        assert!(!c.row_hit);
    }

    #[test]
    fn same_bank_row_misses_serialize_at_trc() {
        let mut v = vault();
        let t = DramTiming::hmc20();
        let a = v.service(0, 3, 0, VaultAccess::Read, &t, 0, NOMINAL);
        let b = v.service(0, 3, ROW_BYTES, VaultAccess::Read, &t, 0, NOMINAL);
        assert!(b.response_ready >= a.response_ready + t.t_rc() - t.read_latency());
        assert!(!b.row_hit);
    }

    #[test]
    fn same_row_accesses_hit_and_stream() {
        let mut v = vault();
        let t = DramTiming::hmc20();
        let a = v.service(0, 3, 0x100, VaultAccess::Read, &t, 0, NOMINAL);
        let b = v.service(0, 3, 0x140, VaultAccess::Read, &t, 0, NOMINAL);
        assert!(b.row_hit);
        // Row hit serves a full row-cycle faster than a second miss would.
        assert!(b.response_ready < a.response_ready + t.t_rc());
    }

    #[test]
    fn different_banks_overlap() {
        let mut v = vault();
        let t = DramTiming::hmc20();
        let a = v.service(0, 0, 0, VaultAccess::Read, &t, 0, NOMINAL);
        let b = v.service(0, 1, 0, VaultAccess::Read, &t, 0, NOMINAL);
        // Only the controller occupancy separates them.
        assert!(b.response_ready - a.response_ready <= ns_to_ps(1.0));
    }

    #[test]
    fn pim_row_miss_locks_bank_longer_than_read() {
        let mut v1 = vault();
        let mut v2 = vault();
        let t = DramTiming::hmc20();
        // Prime with a miss, then a second row-miss access behind a READ
        // vs behind a PIM RMW.
        v1.service(0, 0, 0, VaultAccess::Read, &t, 0, NOMINAL);
        let r_after = v1.service(0, 0, ROW_BYTES, VaultAccess::Read, &t, 0, NOMINAL);
        v2.service(0, 0, 0, VaultAccess::PimRmw, &t, 0, NOMINAL);
        let p_after = v2.service(0, 0, ROW_BYTES, VaultAccess::Read, &t, 0, NOMINAL);
        assert!(
            p_after.response_ready > r_after.response_ready,
            "PIM RMW should lock the bank longer than a read"
        );
    }

    #[test]
    fn hub_atomics_stream_at_fu_rate() {
        // 100 PIM RMWs to one address: throughput bounded by FU + column
        // cycles, not by the row cycle.
        let mut v = vault();
        let t = DramTiming::hmc20();
        let mut last = 0;
        for _ in 0..100 {
            last = v
                .service(0, 0, 0x40, VaultAccess::PimRmw, &t, 0, NOMINAL)
                .response_ready;
        }
        let per_op_ns = crate::ps_to_ns(last) / 100.0;
        assert!(
            per_op_ns < 15.0,
            "hub PIM throughput {per_op_ns} ns/op should beat the 41 ns row cycle"
        );
    }

    #[test]
    fn refresh_overhead_stretches_bank_occupancy() {
        let mut v_ref = vault();
        let mut v_none = vault();
        let t = DramTiming::hmc20();
        v_none.service(0, 0, 0, VaultAccess::Read, &t, 0, NOMINAL);
        let a = v_none.service(0, 0, ROW_BYTES, VaultAccess::Read, &t, 0, NOMINAL);
        v_ref.service(0, 0, 0, VaultAccess::Read, &t, 66, NOMINAL);
        let b = v_ref.service(0, 0, ROW_BYTES, VaultAccess::Read, &t, 66, NOMINAL);
        assert!(b.response_ready > a.response_ready);
    }

    #[test]
    fn fu_serializes_concurrent_pim_ops() {
        let mut v = vault();
        let t = DramTiming::hmc20();
        // Two PIM ops to *different* banks still share the one FU.
        let a = v.service(0, 0, 0, VaultAccess::PimRmw, &t, 0, NOMINAL);
        let b = v.service(0, 1, 0, VaultAccess::PimRmw, &t, 0, NOMINAL);
        assert!(b.response_ready >= a.response_ready);
    }
}
