//! Timing-only set-associative cache with LRU replacement and dirty-line
//! tracking (for writeback traffic accounting).

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The line was present.
    Hit,
    /// The line was filled; if the victim was dirty, its block address is
    /// returned so the caller can issue a writeback.
    Miss {
        /// Block address of a dirty victim that must be written back.
        writeback: Option<u64>,
    },
}

impl CacheOutcome {
    /// True on hit.
    pub fn is_hit(self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

/// Tag of an invalid way. A real tag is the address shifted right by at
/// least one bit (see [`Cache::new`]), so it can never equal this.
const INVALID: u64 = u64::MAX;

/// A set-associative, write-back, write-allocate cache model.
///
/// Only tags are tracked — this is a timing/traffic model, not a
/// functional cache. Tags, LRU stamps and dirty bits live in separate
/// flat arrays indexed `set * ways + way`. An invalid way holds the
/// `u64::MAX` tag and LRU stamp 0, below every valid way's stamp, so a
/// single pass over a set finds the hit or, failing that, the victim:
/// the first invalid way, else the least recently used.
#[derive(Debug, Clone)]
pub struct Cache {
    ways: usize,
    /// `sets - 1`.
    set_mask: u64,
    /// log2 of the set count.
    set_bits: u32,
    /// log2 of the line size.
    line_bits: u32,
    tags: Vec<u64>,
    /// LRU stamps: larger = more recent; 0 = invalid.
    lru: Vec<u64>,
    dirty: Vec<bool>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds a cache of `total_bytes` with `ways` associativity and
    /// `line_bytes` lines.
    ///
    /// # Panics
    /// Panics unless the geometry divides evenly and sizes are powers of
    /// two where required.
    pub fn new(total_bytes: usize, ways: usize, line_bytes: usize) -> Self {
        assert!(ways >= 1 && line_bytes.is_power_of_two());
        assert!(line_bytes >= 2, "lines must hold at least two bytes");
        let lines_total = total_bytes / line_bytes;
        assert!(lines_total >= ways, "cache smaller than one set");
        let sets = lines_total / ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let lines = sets * ways;
        Self {
            ways,
            set_mask: sets as u64 - 1,
            set_bits: sets.trailing_zeros(),
            line_bits: line_bytes.trailing_zeros(),
            tags: vec![INVALID; lines],
            lru: vec![0; lines],
            dirty: vec![false; lines],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses `addr`; `write` marks the line dirty.
    pub fn access(&mut self, addr: u64, write: bool) -> CacheOutcome {
        self.tick += 1;
        let block = addr >> self.line_bits;
        let set = block & self.set_mask;
        let tag = block >> self.set_bits;
        let base = set as usize * self.ways;
        let tags = &self.tags[base..base + self.ways];
        let lru = &self.lru[base..base + self.ways];
        let (mut victim, mut oldest) = (0, u64::MAX);
        for (way, (&t, &stamp)) in tags.iter().zip(lru).enumerate() {
            if t == tag {
                let line = base + way;
                self.lru[line] = self.tick;
                self.dirty[line] |= write;
                self.hits += 1;
                return CacheOutcome::Hit;
            }
            if stamp < oldest {
                (victim, oldest) = (way, stamp);
            }
        }
        self.misses += 1;
        let line = base + victim;
        let writeback =
            self.dirty[line].then(|| ((self.tags[line] << self.set_bits) | set) << self.line_bits);
        self.tags[line] = tag;
        self.lru[line] = self.tick;
        self.dirty[line] = write;
        CacheOutcome::Miss { writeback }
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Hit rate in [0, 1]; 0 when never accessed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_access_hits() {
        let mut c = Cache::new(4096, 4, 64);
        assert!(!c.access(0x100, false).is_hit());
        assert!(c.access(0x100, false).is_hit());
        assert!(c.access(0x13f, false).is_hit()); // same 64-byte line
        assert!(!c.access(0x140, false).is_hit()); // next line
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        // Direct-ish: 2 ways, force 3 conflicting lines into one set.
        let sets = 4096 / (2 * 64);
        let mut c = Cache::new(4096, 2, 64);
        let stride = (sets * 64) as u64;
        assert_eq!(c.access(0, true), CacheOutcome::Miss { writeback: None });
        assert_eq!(
            c.access(stride, false),
            CacheOutcome::Miss { writeback: None }
        );
        // Third conflicting access evicts the LRU (the dirty line at 0).
        match c.access(2 * stride, false) {
            CacheOutcome::Miss {
                writeback: Some(addr),
            } => assert_eq!(addr, 0),
            other => panic!("expected dirty eviction, got {other:?}"),
        }
    }

    #[test]
    fn lru_keeps_recently_used_lines() {
        let sets = 4096 / (2 * 64);
        let stride = (sets * 64) as u64;
        let mut c = Cache::new(4096, 2, 64);
        c.access(0, false);
        c.access(stride, false);
        c.access(0, false); // refresh line 0
        c.access(2 * stride, false); // evicts `stride`, not 0
        assert!(c.access(0, false).is_hit());
        assert!(!c.access(stride, false).is_hit());
    }

    #[test]
    fn only_dirty_victims_are_written_back() {
        // 16 sets of 4 ways: lines 0x000, 0x040 and 0x080 sit in sets 0,
        // 1 and 2; four conflicting fills per set evict all three.
        let mut c = Cache::new(4096, 4, 64);
        c.access(0x000, true);
        c.access(0x040, false);
        c.access(0x080, true);
        let mut wb = Vec::new();
        for set in 0..3u64 {
            for k in 1..=4u64 {
                if let CacheOutcome::Miss { writeback: Some(a) } =
                    c.access(set * 64 + k * 1024, false)
                {
                    wb.push(a);
                }
            }
        }
        assert_eq!(wb, vec![0x000, 0x080]);
        assert!(!c.access(0x000, false).is_hit());
    }

    #[test]
    fn hit_rate_tracks_counters() {
        let mut c = Cache::new(4096, 4, 64);
        c.access(0, false);
        c.access(0, false);
        c.access(64, false);
        let (h, m) = c.stats();
        assert_eq!((h, m), (1, 2));
        assert!((c.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }
}

/// The flat model against the array-of-structs cache it replaced, kept
/// here as the reference: both see the same seeded access streams and
/// must agree on every outcome, every writeback address and the final
/// counters.
#[cfg(test)]
mod differential {
    use super::*;

    #[derive(Debug, Clone, Copy, Default)]
    struct Line {
        tag: u64,
        valid: bool,
        dirty: bool,
        lru: u64,
    }

    /// The array-of-structs cache: a hit scan, then a separate victim
    /// scan for the first invalid way or else the least recently used.
    struct ReferenceCache {
        sets: usize,
        ways: usize,
        line_bytes: u64,
        lines: Vec<Line>,
        tick: u64,
        hits: u64,
        misses: u64,
    }

    impl ReferenceCache {
        fn new(total_bytes: usize, ways: usize, line_bytes: usize) -> Self {
            let sets = total_bytes / line_bytes / ways;
            Self {
                sets,
                ways,
                line_bytes: line_bytes as u64,
                lines: vec![Line::default(); sets * ways],
                tick: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn access(&mut self, addr: u64, write: bool) -> CacheOutcome {
            self.tick += 1;
            let block = addr / self.line_bytes;
            let set = (block as usize) & (self.sets - 1);
            let tag = block >> self.sets.trailing_zeros();
            let base = set * self.ways;
            for way in 0..self.ways {
                let line = &mut self.lines[base + way];
                if line.valid && line.tag == tag {
                    line.lru = self.tick;
                    line.dirty |= write;
                    self.hits += 1;
                    return CacheOutcome::Hit;
                }
            }
            self.misses += 1;
            let mut victim = base;
            let mut best = u64::MAX;
            for way in 0..self.ways {
                let line = &self.lines[base + way];
                if !line.valid {
                    victim = base + way;
                    break;
                }
                if line.lru < best {
                    best = line.lru;
                    victim = base + way;
                }
            }
            let old = self.lines[victim];
            let writeback = (old.valid && old.dirty).then(|| {
                let victim_block = (old.tag << self.sets.trailing_zeros()) | set as u64;
                victim_block * self.line_bytes
            });
            self.lines[victim] = Line {
                tag,
                valid: true,
                dirty: write,
                lru: self.tick,
            };
            CacheOutcome::Miss { writeback }
        }
    }

    /// SplitMix64: a seeded, dependency-free stream for the tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Address generators: uniform over a span, or a set-conflict-heavy
    /// stream that maps a few times the associativity onto a few sets.
    #[derive(Clone, Copy)]
    enum Stream {
        Uniform { span: u64 },
        Conflict { sets: u64, lines_per_set: u64 },
    }

    fn run(total: usize, ways: usize, line: usize, stream: Stream, seed: u64, n: usize) {
        let mut flat = Cache::new(total, ways, line);
        let mut reference = ReferenceCache::new(total, ways, line);
        let set_stride = (total / ways) as u64;
        let mut rng = Rng(seed);
        let mut writebacks = 0;
        for i in 0..n {
            let r = rng.next();
            let addr = match stream {
                Stream::Uniform { span } => r % span,
                Stream::Conflict {
                    sets,
                    lines_per_set,
                } => {
                    let set = r % sets;
                    let k = (r >> 20) % lines_per_set;
                    k * set_stride + set * line as u64 + (r >> 40) % line as u64
                }
            };
            let write = (r >> 60) & 3 == 0;
            let a = flat.access(addr, write);
            let b = reference.access(addr, write);
            assert_eq!(a, b, "access {i} to {addr:#x} (write {write})");
            writebacks += matches!(a, CacheOutcome::Miss { writeback: Some(_) }) as usize;
        }
        assert_eq!(flat.stats(), (reference.hits, reference.misses));
        assert!(writebacks > 0, "the stream must evict dirty lines");
    }

    /// (total bytes, ways, line bytes): the paper's L1 and L2, the tiny
    /// config's, and the 2-way unit-test geometry.
    const GEOMETRIES: [(usize, usize, usize); 5] = [
        (16 * 1024, 4, 64),
        (1024 * 1024, 16, 64),
        (4 * 1024, 4, 64),
        (64 * 1024, 16, 64),
        (4096, 2, 64),
    ];

    #[test]
    fn uniform_streams_match_the_reference() {
        for (g, &(total, ways, line)) in GEOMETRIES.iter().enumerate() {
            for seed in [1, 42] {
                // Spans of 2× and 16× capacity: both hits and misses.
                for span in [2 * total as u64, 16 * total as u64] {
                    run(
                        total,
                        ways,
                        line,
                        Stream::Uniform { span },
                        seed ^ g as u64,
                        20_000,
                    );
                }
            }
        }
    }

    #[test]
    fn set_conflict_streams_match_the_reference() {
        for (g, &(total, ways, line)) in GEOMETRIES.iter().enumerate() {
            for seed in [7, 1234] {
                for lines_per_set in [ways as u64 + 1, 3 * ways as u64] {
                    let stream = Stream::Conflict {
                        sets: 3,
                        lines_per_set,
                    };
                    run(total, ways, line, stream, seed ^ g as u64, 20_000);
                }
            }
        }
    }
}
