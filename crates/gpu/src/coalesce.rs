//! The 32-lane memory coalescer: per-lane addresses collapse into unique
//! 64-byte block transactions.

/// Block size the coalescer works at (matches cache lines and the HMC
/// transaction size).
pub const COALESCE_BYTES: u64 = 64;

/// Collapses per-lane addresses into unique block addresses, preserving
/// first-touch order. The scratch vector is caller-provided so hot loops
/// don't allocate.
pub fn coalesce_into(addrs: &[u64], out: &mut Vec<u64>) {
    out.clear();
    for &a in addrs {
        let block = a & !(COALESCE_BYTES - 1);
        // Adjacent lanes usually share a block, so the last block pushed
        // is checked first. Warp-width vectors are ≤32 long and usually
        // collapse to a handful of blocks: linear scan beats hashing here.
        if out.last() != Some(&block) && !out.contains(&block) {
            out.push(block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coalesce(addrs: &[u64]) -> Vec<u64> {
        // A stale scratch vector: coalesce_into must clear it first.
        let mut out = vec![u64::MAX; 3];
        coalesce_into(addrs, &mut out);
        out
    }

    #[test]
    fn contiguous_warp_access_collapses_to_two_blocks() {
        // 32 lanes × 4-byte elements starting at 0 → 128 bytes → 2 blocks.
        let addrs: Vec<u64> = (0..32).map(|i| i * 4).collect();
        assert_eq!(coalesce(&addrs), vec![0, 64]);
    }

    #[test]
    fn scattered_access_stays_scattered() {
        let addrs: Vec<u64> = (0..32).map(|i| i * 4096).collect();
        assert_eq!(coalesce(&addrs).len(), 32);
    }

    #[test]
    fn duplicate_lanes_collapse() {
        let addrs = vec![100, 100, 101, 160];
        assert_eq!(coalesce(&addrs), vec![64, 128]);
    }

    #[test]
    fn revisited_blocks_keep_their_first_touch_position() {
        let addrs = vec![0, 64, 8, 128, 72, 72];
        assert_eq!(coalesce(&addrs), vec![0, 64, 128]);
    }

    #[test]
    fn empty_input_gives_no_transactions() {
        assert!(coalesce(&[]).is_empty());
    }
}
