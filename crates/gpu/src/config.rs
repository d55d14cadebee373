//! Host GPU configuration (Table IV).

use coolpim_hmc::{ns_to_ps, Ps};

/// Static configuration of the host GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors (16).
    pub sms: usize,
    /// Threads per warp (32).
    pub threads_per_warp: usize,
    /// Core clock in Hz (1.4 GHz).
    pub clock_hz: f64,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: usize,
    /// Maximum resident thread blocks per SM.
    pub max_blocks_per_sm: usize,
    /// L1D size per SM in bytes (16 KB).
    pub l1_bytes: usize,
    /// L1D associativity.
    pub l1_ways: usize,
    /// L2 size in bytes (1 MB).
    pub l2_bytes: usize,
    /// L2 associativity (16).
    pub l2_ways: usize,
    /// Cache line size in bytes (matches the HMC 64-byte block).
    pub line_bytes: usize,
    /// L1 hit latency in core cycles.
    pub l1_hit_cycles: u32,
    /// L2 hit latency in core cycles (beyond L1).
    pub l2_hit_cycles: u32,
    /// Issue cost of a fire-and-forget memory op in cycles.
    pub store_issue_cycles: u32,
    /// Kernel launch overhead between successive launches (ps).
    pub launch_overhead: Ps,
}

impl GpuConfig {
    /// Table IV host configuration.
    pub fn paper() -> Self {
        Self {
            sms: 16,
            threads_per_warp: 32,
            clock_hz: 1.4e9,
            max_warps_per_sm: 48,
            max_blocks_per_sm: 6,
            l1_bytes: 16 * 1024,
            l1_ways: 4,
            l2_bytes: 1024 * 1024,
            l2_ways: 16,
            line_bytes: 64,
            l1_hit_cycles: 28,
            l2_hit_cycles: 66,
            store_issue_cycles: 4,
            launch_overhead: ns_to_ps(5_000.0),
        }
    }

    /// A small configuration for fast unit tests (4 SMs, small caches).
    pub fn tiny() -> Self {
        Self {
            sms: 4,
            max_warps_per_sm: 16,
            max_blocks_per_sm: 4,
            l1_bytes: 4 * 1024,
            l2_bytes: 64 * 1024,
            ..Self::paper()
        }
    }

    /// Core cycle time in picoseconds.
    pub fn cycle_ps(&self) -> Ps {
        (1e12 / self.clock_hz).round() as Ps
    }

    /// Picoseconds for `cycles` core cycles.
    pub fn cycles_ps(&self, cycles: u32) -> Ps {
        u64::from(cycles) * self.cycle_ps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_host_parameters() {
        let c = GpuConfig::paper();
        assert_eq!(c.sms, 16);
        assert_eq!(c.threads_per_warp, 32);
        assert_eq!(c.l1_bytes, 16 * 1024);
        assert_eq!(c.l2_bytes, 1024 * 1024);
        assert_eq!(c.l2_ways, 16);
        assert!((c.clock_hz - 1.4e9).abs() < 1.0);
    }

    #[test]
    fn cycle_time_is_714ps() {
        assert_eq!(GpuConfig::paper().cycle_ps(), 714);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn tiny_config_is_strictly_smaller() {
        let t = GpuConfig::tiny();
        let p = GpuConfig::paper();
        assert!(t.sms < p.sms);
        assert!(t.l2_bytes < p.l2_bytes);
        assert_eq!(t.threads_per_warp, p.threads_per_warp);
    }

    #[test]
    fn cycles_ps_scales_linearly() {
        let c = GpuConfig::paper();
        assert_eq!(c.cycles_ps(10), 10 * c.cycle_ps());
        assert_eq!(c.cycles_ps(0), 0);
    }
}
