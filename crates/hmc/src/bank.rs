//! Per-bank timing state with an open-page row buffer.
//!
//! Graph workloads mix two extremes: scattered single-touch accesses
//! (row misses paying the full activate → access → precharge cycle) and
//! hammering of hub-vertex properties (row hits that stream at the
//! column-command rate). The bank therefore tracks the open row: a hit
//! occupies the bank only for its column cycles, a miss pays the row
//! cycle. PIM instructions lock the bank for their whole
//! read-modify-write either way (§II-B).

use crate::Ps;

/// Bytes covered by one DRAM row (per bank).
pub const ROW_BYTES: u64 = 2048;

/// One DRAM bank.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bank {
    /// Earliest time the bank can start a new operation (ps).
    pub next_free: Ps,
    /// Currently open row id, if any.
    open_row: Option<u64>,
}

impl Bank {
    /// Row id of an address.
    pub fn row_of(addr: u64) -> u64 {
        addr / ROW_BYTES
    }

    /// Reserves the bank for an access to `addr` starting no earlier than
    /// `ready`, occupying `hit_occupancy` on a row hit and
    /// `miss_occupancy` on a row miss. Returns `(start, was_hit)`.
    pub fn reserve(
        &mut self,
        ready: Ps,
        addr: u64,
        hit_occupancy: Ps,
        miss_occupancy: Ps,
    ) -> (Ps, bool) {
        let row = Self::row_of(addr);
        let hit = self.open_row == Some(row);
        let occupancy = if hit { hit_occupancy } else { miss_occupancy };
        let start = self.next_free.max(ready);
        self.next_free = start + occupancy;
        self.open_row = Some(row);
        (start, hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_is_a_row_miss() {
        let mut b = Bank::default();
        let (start, hit) = b.reserve(100, 0x1000, 10, 50);
        assert_eq!(start, 100);
        assert!(!hit);
        assert_eq!(b.next_free, 150);
    }

    #[test]
    fn same_row_accesses_stream_at_hit_occupancy() {
        let mut b = Bank::default();
        b.reserve(0, 0x1000, 10, 50);
        let (s2, hit) = b.reserve(0, 0x1008, 10, 50);
        assert!(hit, "same 2 KB row must hit");
        assert_eq!(s2, 50);
        assert_eq!(b.next_free, 60);
    }

    #[test]
    fn different_row_pays_the_miss() {
        let mut b = Bank::default();
        b.reserve(0, 0, 10, 50);
        let (_, hit) = b.reserve(0, ROW_BYTES, 10, 50);
        assert!(!hit);
    }

    #[test]
    fn hub_hammering_throughput_is_hit_bound() {
        // 100 atomics to the same address: 1 miss + 99 hits.
        let mut b = Bank::default();
        for _ in 0..100 {
            b.reserve(0, 0x40, 10, 50);
        }
        assert_eq!(b.next_free, 50 + 99 * 10);
    }

    #[test]
    fn requests_queue_behind_occupancy_until_it_drains() {
        let mut b = Bank::default();
        b.reserve(0, 0, 10, 1000);
        // Arriving at 400 waits for the miss to finish at 1000.
        assert_eq!(b.reserve(400, 0, 10, 1000), (1000, true));
        // Arriving after the bank went idle starts at once.
        assert_eq!(b.reserve(2000, 0, 10, 1000), (2000, true));
        assert_eq!(b.next_free, 2010);
    }
}
