//! The assembled cube: links → crossbar → vaults → banks, plus thermal
//! status and activity counters.

use coolpim_telemetry::{Histogram, TelemetryEvent, TraceTrack};

use crate::link::Link;
use crate::ns_to_ps;
use crate::packet::{Request, ResponseTail};
use crate::stats::{PimAttribution, StatsTotals, StatsWindow};
use crate::thermal_state::{TempPhase, ThermalTracker};
use crate::timing::DramTiming;
use crate::vault::{Vault, VaultAccess};
use crate::Ps;

/// Static configuration of a cube (Table IV for HMC 2.0).
#[derive(Debug, Clone)]
pub struct HmcConfig {
    /// Number of vaults (32 in HMC 2.0).
    pub vaults: usize,
    /// Banks per vault (512 total / 32 vaults = 16).
    pub banks_per_vault: usize,
    /// Number of external links (4).
    pub links: usize,
    /// Raw link bandwidth per direction, bytes/s (60 GB/s of the 120 GB/s
    /// per-link aggregate).
    pub link_raw_bytes_per_s_per_dir: f64,
    /// Internal (TSV) data bandwidth per vault, bytes/s. HMC 2.0:
    /// ≈10 GB/s × 32 vaults = 320 GB/s aggregate internal bandwidth.
    pub vault_bus_bytes_per_s: f64,
    /// Base DRAM timing.
    pub timing: DramTiming,
    /// Vault-controller occupancy per transaction (ps).
    pub vault_ctrl_occupancy: Ps,
    /// PIM functional-unit latency (ps).
    pub fu_latency: Ps,
    /// One-way SerDes + propagation latency per link traversal (ps).
    pub link_propagation: Ps,
    /// Crossbar traversal latency (ps).
    pub xbar_latency: Ps,
    /// Whether the cube supports PIM instructions (HMC ≥ 2.0).
    pub pim_capable: bool,
    /// Time for the cube to become operational again after a thermal
    /// shutdown (ps). The prototype took tens of seconds (§III-A).
    pub shutdown_recovery: Ps,
}

impl HmcConfig {
    /// HMC 2.0 per Table IV: 8 GB cube, 32 vaults, 512 banks, 4 links at
    /// 120 GB/s each (80 GB/s data).
    pub fn hmc20() -> Self {
        Self {
            vaults: 32,
            banks_per_vault: 16,
            links: 4,
            link_raw_bytes_per_s_per_dir: 60.0e9,
            vault_bus_bytes_per_s: 10.0e9,
            timing: DramTiming::hmc20(),
            vault_ctrl_occupancy: ns_to_ps(0.5),
            fu_latency: ns_to_ps(2.0),
            link_propagation: ns_to_ps(8.0),
            xbar_latency: ns_to_ps(4.0),
            pim_capable: true,
            shutdown_recovery: 20_000_000_000_000, // 20 s
        }
    }

    /// HMC 1.1 prototype: 16 vaults, 2 half-width links (30 GB/s raw per
    /// direction each), no PIM.
    pub fn hmc11() -> Self {
        Self {
            vaults: 16,
            banks_per_vault: 8,
            links: 2,
            link_raw_bytes_per_s_per_dir: 15.0e9,
            vault_bus_bytes_per_s: 3.75e9,
            timing: DramTiming::hmc20(),
            vault_ctrl_occupancy: ns_to_ps(0.5),
            fu_latency: ns_to_ps(2.0),
            link_propagation: ns_to_ps(8.0),
            xbar_latency: ns_to_ps(4.0),
            pim_capable: false,
            shutdown_recovery: 20_000_000_000_000,
        }
    }

    /// Peak external data bandwidth in bytes/s (all links, both
    /// directions, at Table I efficiency): 320 GB/s for HMC 2.0.
    pub fn peak_data_bandwidth(&self) -> f64 {
        crate::flit::raw_to_data_bytes(self.links as f64 * 2.0 * self.link_raw_bytes_per_s_per_dir)
    }
}

/// Timing + protocol outcome of one submitted request.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// When the response's last FLIT arrives back at the host (ps).
    pub finish_ps: Ps,
    /// When the request's last FLIT left the host (ps) — the earliest
    /// time a fire-and-forget issuer can consider the request accepted.
    /// Provides natural backpressure at link rate for posted writes and
    /// no-return PIM instructions.
    pub req_accepted_ps: Ps,
    /// Thermal warning flag decoded from the response tail.
    pub thermal_warning: bool,
    /// Id of the warning episode active when the response was formed
    /// (present iff `thermal_warning`). This is the causal thread the
    /// telemetry stream follows from raise to throttle action.
    pub warning_id: Option<u64>,
    /// Response tail as transmitted.
    pub tail: ResponseTail,
    /// Whether the cube was in thermal shutdown (request not serviced
    /// until recovery).
    pub shutdown: bool,
}

/// The cube model.
#[derive(Debug, Clone)]
pub struct Hmc {
    cfg: HmcConfig,
    links: Vec<Link>,
    vaults: Vec<Vault>,
    /// Warning and phase episodes, and their buffered events (warning
    /// raised, phase moves, derates, shutdown) that the co-simulator
    /// drains each epoch into its telemetry sink.
    thermal: ThermalTracker,
    window: StatsWindow,
    totals: StatsTotals,
    /// Effective timing under the current phase (recomputed on thermal
    /// updates).
    derated_timing: DramTiming,
    refresh_permille: u64,
    /// Frequency stretch of the vault-internal domain (num, den).
    freq_stretch: (u64, u64),
    /// End-to-end service time of every transaction (ps).
    service_hist: Histogram,
    /// Bank queue wait of every transaction (ps).
    queue_hist: Histogram,
    /// Cumulative SM → vault PIM-op attribution (whole run).
    pim_attr: PimAttribution,
    /// Cumulative per-vault PIM-op counts, maintained alongside the
    /// window accounting as an independent cross-check of `pim_attr`.
    vault_pim_totals: Vec<u64>,
    /// log2 of the vault count: address interleaving is shift-and-mask.
    vault_bits: u32,
}

impl Hmc {
    /// Builds a cube from a configuration.
    ///
    /// # Panics
    /// Panics unless the vault, bank-per-vault and link counts are powers
    /// of two (true of HMC 1.1 and 2.0), which the address mapping needs.
    pub fn new(cfg: HmcConfig) -> Self {
        for (what, n) in [
            ("vaults", cfg.vaults),
            ("banks per vault", cfg.banks_per_vault),
            ("links", cfg.links),
        ] {
            assert!(
                n.is_power_of_two(),
                "{what} must be a power of two, not {n}"
            );
        }
        let links = (0..cfg.links)
            .map(|_| Link::with_raw_bandwidth(cfg.link_raw_bytes_per_s_per_dir))
            .collect();
        let vaults = (0..cfg.vaults)
            .map(|_| {
                Vault::new(
                    cfg.banks_per_vault,
                    cfg.vault_ctrl_occupancy,
                    cfg.fu_latency,
                    cfg.vault_bus_bytes_per_s,
                )
            })
            .collect();
        let window = StatsWindow::new(cfg.vaults, 0);
        let derated_timing = cfg.timing;
        let pim_attr = PimAttribution::new(cfg.vaults);
        let vault_pim_totals = vec![0; cfg.vaults];
        let vault_bits = cfg.vaults.trailing_zeros();
        let mut hmc = Self {
            cfg,
            links,
            vaults,
            thermal: ThermalTracker::default(),
            window,
            totals: StatsTotals::default(),
            derated_timing,
            refresh_permille: 0,
            freq_stretch: (1, 1),
            service_hist: Histogram::new(),
            queue_hist: Histogram::new(),
            pim_attr,
            vault_pim_totals,
            vault_bits,
        };
        hmc.recompute_derating();
        hmc
    }

    /// HMC 2.0 cube.
    pub fn hmc20() -> Self {
        Self::new(HmcConfig::hmc20())
    }

    /// HMC 1.1 cube (no PIM).
    pub fn hmc11() -> Self {
        Self::new(HmcConfig::hmc11())
    }

    /// The configuration.
    pub fn config(&self) -> &HmcConfig {
        &self.cfg
    }

    /// Current operating phase.
    pub fn phase(&self) -> TempPhase {
        self.thermal.phase()
    }

    /// The cube's warning and phase episodes.
    pub fn thermal(&self) -> &ThermalTracker {
        &self.thermal
    }

    /// Pushes a new peak-DRAM temperature from the thermal model; updates
    /// phase-dependent derating and the warning flag.
    pub fn set_peak_dram_temp(&mut self, peak_dram_c: f64) {
        self.set_peak_dram_temp_at(peak_dram_c, 0);
    }

    /// Like [`Self::set_peak_dram_temp`], but stamps any resulting
    /// telemetry events (warning raised, phase transition, derate,
    /// shutdown) with the simulation time `now`.
    pub fn set_peak_dram_temp_at(&mut self, peak_dram_c: f64, now: Ps) {
        self.thermal.update(peak_dram_c, now);
        self.recompute_derating();
    }

    /// [`Self::drain_events`] with an optional timeline track: the
    /// vault-controller event processing becomes a `vault_events` span
    /// on the cube's trace track, so a Perfetto timeline shows when the
    /// cube's rare-event queue is handed to the co-simulator and how
    /// many events each epoch carried.
    pub fn drain_events_traced(
        &mut self,
        out: &mut Vec<TelemetryEvent>,
        trace: Option<&mut TraceTrack>,
    ) {
        match trace {
            Some(t) => {
                let tok = t.begin("vault_events");
                let n = self.thermal.pending_events();
                self.drain_events(out);
                t.counter("hmc_events_drained", n as f64);
                t.end(tok);
            }
            None => self.drain_events(out),
        }
    }

    /// Moves the cube's buffered telemetry events into `out`.
    pub fn drain_events(&mut self, out: &mut Vec<TelemetryEvent>) {
        self.thermal.drain_events(out);
    }

    /// Per-transaction service-time histogram (host-observed, ps).
    pub fn service_time_hist(&self) -> &Histogram {
        &self.service_hist
    }

    /// Per-transaction bank-queue-wait histogram (ps).
    pub fn queue_wait_hist(&self) -> &Histogram {
        &self.queue_hist
    }

    /// Fraction of DRAM accesses that hit an open row, across all
    /// vaults.
    pub fn row_hit_rate(&self) -> f64 {
        let (hits, misses) = self.vaults.iter().fold((0u64, 0u64), |(h, m), v| {
            (h + v.row_hits(), m + v.row_misses())
        });
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Overrides the warning threshold (°C).
    pub fn set_warning_threshold(&mut self, threshold_c: f64) {
        self.thermal.set_warning_threshold(threshold_c);
    }

    /// Whether responses currently carry the thermal warning.
    pub fn warning_active(&self) -> bool {
        self.thermal.warning_active()
    }

    /// Id of the warning episode currently in progress, if any.
    pub fn active_warning_id(&self) -> Option<u64> {
        self.thermal.active_warning_id()
    }

    fn recompute_derating(&mut self) {
        let phase = self.thermal.phase();
        let (num, den) = phase.timing_stretch();
        self.derated_timing = self.cfg.timing.scaled_by(num, den);
        self.refresh_permille = (phase.refresh_overhead() * 1000.0).round() as u64;
        self.freq_stretch = (num, den);
    }

    /// Which vault an address maps to (64-byte interleave across vaults).
    pub fn vault_of(&self, addr: u64) -> usize {
        (addr >> 6) as usize & (self.cfg.vaults - 1)
    }

    /// Which bank within the vault an address maps to.
    pub fn bank_of(&self, addr: u64) -> usize {
        ((addr >> 6) as usize >> self.vault_bits) & (self.cfg.banks_per_vault - 1)
    }

    fn link_of(&self, addr: u64) -> usize {
        // Address-hash routing: deterministic and balanced.
        let x = (addr >> 6) ^ (addr >> 14) ^ (addr >> 23);
        x as usize & (self.cfg.links - 1)
    }

    /// Submits a request at time `now`; returns its completion.
    ///
    /// PIM requests on a non-PIM-capable cube panic — the offloading
    /// layers must not emit them (guarded by `pim_capable`).
    pub fn submit(&mut self, now: Ps, req: &Request) -> Completion {
        self.submit_from(now, req, None)
    }

    /// Like [`Self::submit`], with the issuing SM's id for hot-spot
    /// attribution: PIM ops are credited to `(src_sm, vault)` in the
    /// cumulative [`Self::pim_attribution`] matrix (`None` traffic lands
    /// in the untagged row).
    pub fn submit_from(&mut self, now: Ps, req: &Request, src_sm: Option<usize>) -> Completion {
        if !self.phase().operational() {
            // Conservative policy: the cube is dark until recovery; data
            // is lost. The co-simulator treats this as a catastrophic
            // stall (§III-A.2).
            return Completion {
                finish_ps: now + self.cfg.shutdown_recovery,
                req_accepted_ps: now + self.cfg.shutdown_recovery,
                thermal_warning: true,
                warning_id: self.thermal.active_warning_id(),
                tail: ResponseTail {
                    errstat: crate::thermal_state::ERRSTAT_THERMAL_WARNING,
                    atomic_flag: false,
                },
                shutdown: true,
            };
        }
        let addr = req.addr();
        let access = match req {
            Request::Read { .. } => VaultAccess::Read,
            Request::Write { .. } => VaultAccess::Write,
            Request::Pim { .. } => {
                assert!(self.cfg.pim_capable, "PIM request on a non-PIM cube");
                VaultAccess::PimRmw
            }
        };
        let cost = req.flit_cost();
        let link = self.link_of(addr);
        let vault = self.vault_of(addr);
        let bank = self.bank_of(addr);

        // Request direction: serialize FLITs, then propagate + crossbar.
        let req_done = self.links[link].serialize_request(now, cost.request);
        let arrive_vault = req_done + self.cfg.link_propagation + self.cfg.xbar_latency;

        // Vault + bank.
        let vc = self.vaults[vault].service(
            arrive_vault,
            bank,
            addr,
            access,
            &self.derated_timing,
            self.refresh_permille,
            self.freq_stretch,
        );

        // Response direction.
        let resp_ready = vc.response_ready + self.cfg.xbar_latency;
        let resp_done = self.links[link].serialize_response(resp_ready, cost.response);
        let finish = resp_done + self.cfg.link_propagation;

        // Accounting.
        self.window.flits += cost.total();
        self.window.vault_ops[vault] += 1;
        self.window.vault_flits[vault] += cost.total();
        self.window.vault_queue_wait_ps[vault] += vc.queue_delay;
        match access {
            VaultAccess::Read => self.window.reads += 1,
            VaultAccess::Write => self.window.writes += 1,
            VaultAccess::PimRmw => {
                self.window.pim_ops += 1;
                self.window.vault_pim_ops[vault] += 1;
                self.vault_pim_totals[vault] += 1;
                self.pim_attr.record(src_sm, vault);
            }
        }

        // Always-on latency accounting: two constant-time histogram
        // inserts, no allocation.
        self.service_hist.record(finish.saturating_sub(now));
        self.queue_hist.record(vc.queue_delay);

        let tail = ResponseTail {
            errstat: self.thermal.errstat(),
            atomic_flag: access == VaultAccess::PimRmw,
        };
        let thermal_warning = tail.thermal_warning();
        Completion {
            finish_ps: finish,
            req_accepted_ps: req_done,
            thermal_warning,
            warning_id: if thermal_warning {
                self.thermal.active_warning_id()
            } else {
                None
            },
            tail,
            shutdown: false,
        }
    }

    /// Drains the activity window at `now`, folding it into the run
    /// totals, and returns it.
    pub fn take_window(&mut self, now: Ps) -> StatsWindow {
        let fresh = StatsWindow::new(self.cfg.vaults, now);
        let window = std::mem::replace(&mut self.window, fresh);
        self.totals.absorb(&window);
        window
    }

    /// [`Self::take_window`] with an optional timeline track: the window
    /// roll-over becomes a `vault_window` span and the window's PIM-op
    /// and FLIT counts land on `hmc_pim_ops` / `hmc_flits` counter
    /// tracks, so per-epoch cube activity is visible next to the thermal
    /// and scheduling spans in Perfetto.
    pub fn take_window_traced(&mut self, now: Ps, trace: Option<&mut TraceTrack>) -> StatsWindow {
        match trace {
            Some(t) => {
                let tok = t.begin("vault_window");
                let window = self.take_window(now);
                t.counter("hmc_pim_ops", window.pim_ops as f64);
                t.counter("hmc_flits", window.flits as f64);
                t.end(tok);
                window
            }
            None => self.take_window(now),
        }
    }

    /// Cumulative totals (including the still-open window).
    pub fn totals(&self) -> StatsTotals {
        let mut t = self.totals;
        t.absorb(&self.window);
        t
    }

    /// Cumulative SM → vault PIM-op attribution for the whole run.
    pub fn pim_attribution(&self) -> &PimAttribution {
        &self.pim_attr
    }

    /// Cumulative per-vault PIM-op counts (independent of the
    /// attribution matrix; the two must agree).
    pub fn vault_pim_totals(&self) -> &[u64] {
        &self.vault_pim_totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::PimOp;

    #[test]
    fn unloaded_read_latency_is_tens_of_ns() {
        let mut hmc = Hmc::hmc20();
        let c = hmc.submit(0, &Request::read(0x1000));
        let ns = crate::ps_to_ns(c.finish_ps);
        assert!((40.0..120.0).contains(&ns), "read latency {ns} ns");
    }

    #[test]
    fn pim_completes_and_sets_atomic_flag() {
        let mut hmc = Hmc::hmc20();
        let c = hmc.submit(0, &Request::pim(PimOp::SignedAdd, 0x40));
        assert!(c.tail.atomic_flag);
        assert!(!c.thermal_warning);
    }

    #[test]
    #[should_panic(expected = "non-PIM cube")]
    fn pim_on_hmc11_panics() {
        let mut hmc = Hmc::hmc11();
        let _ = hmc.submit(0, &Request::pim(PimOp::SignedAdd, 0x40));
    }

    #[test]
    fn warning_appears_in_responses_when_hot() {
        let mut hmc = Hmc::hmc20();
        hmc.set_peak_dram_temp(86.0);
        let c = hmc.submit(0, &Request::read(0));
        assert!(c.thermal_warning);
        assert_eq!(
            c.tail.errstat,
            crate::thermal_state::ERRSTAT_THERMAL_WARNING
        );
    }

    #[test]
    fn derating_slows_reads_on_the_same_bank() {
        let mut cool = Hmc::hmc20();
        let mut hot = Hmc::hmc20();
        hot.set_peak_dram_temp(96.0); // critical phase
                                      // Hammer one bank so the bank occupancy dominates.
        let mut cool_done = 0;
        let mut hot_done = 0;
        for _ in 0..64 {
            cool_done = cool.submit(0, &Request::read(0x40)).finish_ps;
            hot_done = hot.submit(0, &Request::read(0x40)).finish_ps;
        }
        assert!(
            hot_done as f64 > cool_done as f64 * 1.3,
            "critical phase should slow bank-bound streams: {hot_done} vs {cool_done}"
        );
    }

    #[test]
    fn shutdown_stalls_requests_for_seconds() {
        let mut hmc = Hmc::hmc20();
        hmc.set_peak_dram_temp(106.0);
        let c = hmc.submit(1000, &Request::read(0));
        assert!(c.shutdown);
        assert!(c.finish_ps > 1_000_000_000_000); // > 1 s
    }

    #[test]
    fn vault_and_bank_mapping_cover_all_units() {
        let hmc = Hmc::hmc20();
        let mut vaults_seen = [false; 32];
        let mut banks_seen = [false; 16];
        for block in 0..4096u64 {
            let addr = block * 64;
            vaults_seen[hmc.vault_of(addr)] = true;
            banks_seen[hmc.bank_of(addr)] = true;
        }
        assert!(vaults_seen.iter().all(|&v| v));
        assert!(banks_seen.iter().all(|&b| b));
    }

    #[test]
    fn shift_mapping_equals_the_division_mapping() {
        for hmc in [Hmc::hmc20(), Hmc::hmc11()] {
            let c = hmc.config();
            for i in 0..100_000u64 {
                let addr = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20;
                let block = (addr >> 6) as usize;
                assert_eq!(hmc.vault_of(addr), block % c.vaults);
                assert_eq!(hmc.bank_of(addr), block / c.vaults % c.banks_per_vault);
                let x = (addr >> 6) ^ (addr >> 14) ^ (addr >> 23);
                assert_eq!(hmc.link_of(addr), x as usize % c.links);
            }
        }
    }

    #[test]
    #[should_panic(expected = "vaults must be a power of two")]
    fn non_power_of_two_vaults_are_rejected() {
        let _ = Hmc::new(HmcConfig {
            vaults: 24,
            ..HmcConfig::hmc20()
        });
    }

    #[test]
    fn sequential_blocks_hit_different_vaults() {
        let hmc = Hmc::hmc20();
        assert_ne!(hmc.vault_of(0), hmc.vault_of(64));
    }

    #[test]
    fn peak_data_bandwidth_is_320_gbps() {
        let cfg = HmcConfig::hmc20();
        assert!((cfg.peak_data_bandwidth() - 320.0e9).abs() < 1e6);
    }

    #[test]
    fn window_accounting_tracks_submissions() {
        let mut hmc = Hmc::hmc20();
        for i in 0..10u64 {
            hmc.submit(0, &Request::read(i * 64));
        }
        hmc.submit(0, &Request::pim(PimOp::SignedAdd, 0x40));
        let w = hmc.take_window(1_000_000);
        assert_eq!(w.reads, 10);
        assert_eq!(w.pim_ops, 1);
        assert_eq!(w.flits, 10 * 6 + 3);
        // Window resets.
        let w2 = hmc.take_window(2_000_000);
        assert_eq!(w2.reads, 0);
        assert_eq!(hmc.totals().reads, 10);
    }

    #[test]
    fn read_throughput_saturates_near_link_limit() {
        // Pure reads: response direction binds at 4 links × 60 GB/s raw
        // × (4 data FLITs / 5 resp FLITs) = 192 GB/s data payload.
        let mut hmc = Hmc::hmc20();
        let n = 200_000u64;
        let mut last = 0;
        for i in 0..n {
            last = hmc.submit(0, &Request::read(i * 64)).finish_ps;
        }
        let bytes = n * 64;
        let gbps = bytes as f64 / (last as f64 * 1e-12) / 1e9;
        assert!(
            (150.0..200.0).contains(&gbps),
            "read payload throughput {gbps} GB/s"
        );
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::bank::ROW_BYTES;
    use crate::command::PimOp;

    #[test]
    fn pim_throughput_saturates_in_single_digit_op_per_ns() {
        // PIM-only stream, scattered addresses: the cube sustains a few
        // op/ns (links + banks + FUs), consistent with the paper's Fig. 5
        // operating range.
        let mut hmc = Hmc::hmc20();
        let n = 200_000u64;
        let mut last = 0;
        for i in 0..n {
            let addr = (i * 0x9E37) % (1 << 30);
            last = hmc
                .submit(0, &Request::pim(PimOp::SignedAdd, addr & !0xF))
                .finish_ps;
        }
        let rate = n as f64 / (last as f64 / 1000.0); // op/ns
        assert!((2.0..12.0).contains(&rate), "PIM rate {rate} op/ns");
    }

    #[test]
    fn mixed_traffic_interleaves_without_panic() {
        let mut hmc = Hmc::hmc20();
        for i in 0..10_000u64 {
            let addr = i * 64;
            match i % 3 {
                0 => hmc.submit(i, &Request::read(addr)),
                1 => hmc.submit(i, &Request::write(addr)),
                _ => hmc.submit(i, &Request::pim(PimOp::Or, addr)),
            };
        }
        let t = hmc.totals();
        assert_eq!(t.reads + t.writes + t.pim_ops, 10_000);
    }

    #[test]
    fn warning_clears_when_temperature_drops() {
        let mut hmc = Hmc::hmc20();
        hmc.set_peak_dram_temp(90.0);
        assert!(hmc.warning_active());
        hmc.set_peak_dram_temp(70.0);
        assert!(!hmc.warning_active());
        let c = hmc.submit(0, &Request::read(0));
        assert!(!c.thermal_warning);
    }

    #[test]
    fn phase_recovery_restores_timing() {
        // Same-bank row-miss stream: hot is slower, and cooling restores
        // nominal speed for subsequent requests.
        let mut hmc = Hmc::hmc20();
        let probe = |hmc: &mut Hmc, base: u64| {
            let mut last = 0;
            for i in 0..32u64 {
                // Alternate two rows of one bank to defeat the row buffer.
                let addr = base + (i % 2) * ROW_BYTES * 32 * 16;
                last = hmc.submit(0, &Request::read(addr)).finish_ps;
            }
            last
        };
        let cold = probe(&mut hmc, 0);
        hmc.set_peak_dram_temp(96.0);
        let hot = probe(&mut hmc, 1 << 24) - cold;
        hmc.set_peak_dram_temp(60.0);
        let recovered = probe(&mut hmc, 1 << 25) - cold - hot;
        assert!(
            hot > recovered,
            "hot {hot} should exceed recovered {recovered}"
        );
    }

    #[test]
    fn thermal_events_fire_on_crossings() {
        let mut hmc = Hmc::hmc20();
        hmc.set_peak_dram_temp_at(84.5, 1_000); // warning threshold
        hmc.set_peak_dram_temp_at(86.0, 2_000); // extended phase
        hmc.set_peak_dram_temp_at(106.0, 3_000); // shutdown
        let mut evs = Vec::new();
        hmc.drain_events(&mut evs);
        let kinds: Vec<_> = evs.iter().map(|e| e.kind()).collect();
        assert_eq!(
            kinds,
            [
                "ThermalWarningRaised",
                "PhaseTransition",
                "FrequencyDerate",
                "PhaseTransition",
                "FrequencyDerate",
                "Shutdown",
            ]
        );
        assert_eq!(evs[0].t_ps(), 1_000);
        assert_eq!(evs[1].t_ps(), 2_000);
        assert_eq!(evs[5].t_ps(), 3_000);
        // Drained: a second drain yields nothing.
        let mut again = Vec::new();
        hmc.drain_events(&mut again);
        assert!(again.is_empty());
    }

    #[test]
    fn warning_ids_are_monotonic_and_stamp_completions() {
        let mut hmc = Hmc::hmc20();
        assert_eq!(hmc.active_warning_id(), None);
        hmc.set_peak_dram_temp_at(85.0, 1_000);
        assert_eq!(hmc.active_warning_id(), Some(1));
        let c = hmc.submit(2_000, &Request::read(0));
        assert!(c.thermal_warning);
        assert_eq!(c.warning_id, Some(1));
        // Recovery clears the episode and emits the Cleared event.
        hmc.set_peak_dram_temp_at(70.0, 3_000);
        assert_eq!(hmc.active_warning_id(), None);
        let c = hmc.submit(4_000, &Request::read(0));
        assert_eq!(c.warning_id, None);
        // A second episode gets the next id.
        hmc.set_peak_dram_temp_at(86.0, 5_000);
        assert_eq!(hmc.active_warning_id(), Some(2));
        let mut evs = Vec::new();
        hmc.drain_events(&mut evs);
        let ids: Vec<_> = evs
            .iter()
            .filter(|e| matches!(e.kind(), "ThermalWarningRaised" | "ThermalWarningCleared"))
            .map(|e| (e.kind(), e.warning_id().unwrap()))
            .collect();
        assert_eq!(
            ids,
            [
                ("ThermalWarningRaised", 1),
                ("ThermalWarningCleared", 1),
                ("ThermalWarningRaised", 2),
            ]
        );
    }

    #[test]
    fn derate_events_carry_the_active_warning() {
        let mut hmc = Hmc::hmc20();
        hmc.set_peak_dram_temp_at(86.0, 1_000); // warning + Extended
        let mut evs = Vec::new();
        hmc.drain_events(&mut evs);
        let derate = evs
            .iter()
            .find(|e| e.kind() == "FrequencyDerate")
            .expect("phase move derates");
        assert_eq!(derate.warning_id(), Some(1));
    }

    #[test]
    fn no_events_without_crossings() {
        let mut hmc = Hmc::hmc20();
        hmc.set_peak_dram_temp_at(50.0, 1_000);
        hmc.set_peak_dram_temp_at(60.0, 2_000);
        let mut evs = Vec::new();
        hmc.drain_events(&mut evs);
        assert!(evs.is_empty());
    }

    #[test]
    fn histograms_track_every_submission() {
        let mut hmc = Hmc::hmc20();
        for i in 0..50u64 {
            hmc.submit(i * 1000, &Request::read(i * 64));
        }
        assert_eq!(hmc.service_time_hist().count(), 50);
        assert_eq!(hmc.queue_wait_hist().count(), 50);
        // Service time includes the DRAM access: tens of ns.
        assert!(
            hmc.service_time_hist().min() > 10_000,
            "min {} ps",
            hmc.service_time_hist().min()
        );
    }

    #[test]
    fn row_hit_rate_reflects_locality() {
        // Hammering one address: the first access opens the row, the
        // rest hit it.
        let mut hot_row = Hmc::hmc20();
        for _ in 0..64 {
            hot_row.submit(0, &Request::read(0x40));
        }
        assert!(
            hot_row.row_hit_rate() > 0.9,
            "rate {}",
            hot_row.row_hit_rate()
        );
        let idle = Hmc::hmc20();
        assert_eq!(idle.row_hit_rate(), 0.0);
    }

    #[test]
    fn attribution_matches_per_vault_pim_counters() {
        let mut hmc = Hmc::hmc20();
        for i in 0..200u64 {
            let addr = i * 64;
            // Even ops tagged with an SM, odd ones untagged; reads never
            // touch the attribution matrix.
            if i % 3 == 0 {
                hmc.submit_from(0, &Request::read(addr), Some(1));
            } else if i % 2 == 0 {
                hmc.submit_from(
                    0,
                    &Request::pim(PimOp::SignedAdd, addr),
                    Some((i % 5) as usize),
                );
            } else {
                hmc.submit(0, &Request::pim(PimOp::SignedAdd, addr));
            }
        }
        let attr = hmc.pim_attribution();
        assert_eq!(attr.vault_totals(), hmc.vault_pim_totals().to_vec());
        assert_eq!(attr.total(), hmc.totals().pim_ops);
        assert!(attr.unattributed().iter().sum::<u64>() > 0);
        assert!(attr.sm_rows().count() > 1);
        // Windowed per-vault PIM counts drain to the same totals.
        let w = hmc.take_window(1_000);
        assert_eq!(w.vault_pim_ops.iter().sum::<u64>(), w.pim_ops);
        assert_eq!(w.vault_pim_ops, hmc.vault_pim_totals().to_vec());
        assert!(w.vault_flits.iter().sum::<u64>() == w.flits);
    }

    #[test]
    fn totals_include_open_window() {
        let mut hmc = Hmc::hmc20();
        hmc.submit(0, &Request::read(0));
        assert_eq!(hmc.totals().reads, 1);
        hmc.take_window(100);
        hmc.submit(200, &Request::read(64));
        assert_eq!(hmc.totals().reads, 2);
    }
}
