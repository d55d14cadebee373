//! Serialized link model.
//!
//! Each HMC 2.0 link is 16+16 serial lanes: 120 GB/s of raw bandwidth per
//! link, 60 GB/s in each direction. A direction is modelled as a serial
//! resource: FLITs occupy it back-to-back, so sustained throughput is
//! exactly the raw bandwidth and queueing emerges from the `next_free`
//! horizon.

use crate::flit::FLIT_BYTES;
use crate::Ps;

/// One link (both directions).
#[derive(Debug, Clone, Copy)]
pub struct Link {
    /// Serialization time of one FLIT in one direction (ps).
    pub flit_time: Ps,
    /// Request-direction horizon (ps).
    pub req_next_free: Ps,
    /// Response-direction horizon (ps).
    pub resp_next_free: Ps,
}

impl Link {
    /// Creates a link from a per-direction raw bandwidth in bytes/s.
    pub fn with_raw_bandwidth(bytes_per_s_per_dir: f64) -> Self {
        assert!(bytes_per_s_per_dir > 0.0);
        let flit_time = (FLIT_BYTES as f64 / bytes_per_s_per_dir * 1e12).round() as Ps;
        Self {
            flit_time: flit_time.max(1),
            req_next_free: 0,
            resp_next_free: 0,
        }
    }

    /// Serializes `flits` on the request direction starting no earlier
    /// than `ready`; returns the completion time of the last FLIT.
    pub fn serialize_request(&mut self, ready: Ps, flits: u64) -> Ps {
        let start = self.req_next_free.max(ready);
        self.req_next_free = start + flits * self.flit_time;
        self.req_next_free
    }

    /// Serializes `flits` on the response direction starting no earlier
    /// than `ready`; returns the completion time of the last FLIT.
    pub fn serialize_response(&mut self, ready: Ps, flits: u64) -> Ps {
        let start = self.resp_next_free.max(ready);
        self.resp_next_free = start + flits * self.flit_time;
        self.resp_next_free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_time_matches_60gbps_direction() {
        // 16 B / 60 GB/s = 266.7 ps.
        let l = Link::with_raw_bandwidth(60.0e9);
        assert_eq!(l.flit_time, 267);
    }

    #[test]
    fn serialization_is_cumulative() {
        let mut l = Link::with_raw_bandwidth(60.0e9);
        let a = l.serialize_request(0, 5);
        assert_eq!(a, 5 * 267);
        let b = l.serialize_request(0, 1);
        assert_eq!(b, 6 * 267); // queued behind the first packet
                                // Response direction is independent.
        let c = l.serialize_response(0, 2);
        assert_eq!(c, 2 * 267);
    }

    #[test]
    fn sustained_throughput_equals_raw_bandwidth() {
        let mut l = Link::with_raw_bandwidth(60.0e9);
        let flits = 1_000_000u64;
        let done = l.serialize_request(0, flits);
        let bytes = flits * FLIT_BYTES;
        let gbps = bytes as f64 / (done as f64 * 1e-12) / 1e9;
        assert!((gbps - 60.0).abs() < 0.2, "throughput {gbps} GB/s");
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn request_backlog_delays_later_arrivals() {
        let mut l = Link::with_raw_bandwidth(60.0e9);
        let busy_until = l.serialize_request(0, 100);
        assert_eq!(l.req_next_free, busy_until);
        // A packet arriving mid-backlog waits for it to drain.
        assert_eq!(
            l.serialize_request(busy_until / 2, 1),
            busy_until + l.flit_time
        );
    }

    #[test]
    fn idle_gap_is_not_reclaimed() {
        // The link is a real-time resource: capacity unused before `ready`
        // is lost, not banked.
        let mut l = Link::with_raw_bandwidth(60.0e9);
        let a = l.serialize_request(1_000_000, 1);
        assert_eq!(a, 1_000_000 + l.flit_time);
    }

    #[test]
    #[should_panic]
    fn zero_bandwidth_rejected() {
        let _ = Link::with_raw_bandwidth(0.0);
    }
}
