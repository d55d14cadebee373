//! The `CPTR` binary trace format.
//!
//! Layout (all integers little-endian, `varint` = LEB128-style base-128):
//!
//! ```text
//! header:
//!   magic            4 bytes  "CPTR"
//!   version          u16      currently 1
//!   reserved         u16      0
//!   config_hash      u64      graph lineage (FNV-1a of the graph spec)
//!   name             u16 len + UTF-8 bytes   workload name, e.g. "kcore"
//!   params           u16 len + UTF-8 bytes   free-form spec descriptor
//!   warps_per_block  u32
//!   pim_intensity    u64      exact f64 bit pattern (drives Eq. 1)
//!   divergence_ratio u64      exact f64 bit pattern
//!   launch_count     u32
//! per launch:
//!   block_count      varint
//! per block:
//!   warp_count       varint
//! per warp:
//!   op_count         varint
//! per op:
//!   tag              u8       0 = Compute, 1 = Load, 2 = Store,
//!                             3 + i = Atomic(PimOp::ALL[i])
//!   Compute:         varint cycles
//!   Load/Store/Atomic:
//!     lane_count     varint
//!     addr[0]        varint   raw address
//!     addr[k>0]      varint   zigzag(addr[k] - addr[k-1])
//! ```
//!
//! In memory a block keeps its addresses in one arena
//! ([`BlockTrace::addrs`]) that its ops' lanes index; on disk each op
//! carries its own lanes, so the arena is implicit: decoding appends each
//! op's addresses in file order, which is program order.
//!
//! Addresses within a warp are coalescing-friendly (mostly small positive
//! strides), so delta + zigzag + varint packs them to 1–2 bytes each.
//! The profile floats are stored as exact bit patterns because they seed
//! the software throttler's token pool — replay must be *bit*-identical,
//! not approximately equal.

use std::fmt;
use std::path::Path;

use coolpim_gpu::isa::{BlockTrace, Lanes, WarpOp, WarpTrace};
use coolpim_gpu::kernel::KernelProfile;
use coolpim_hmc::PimOp;

/// File magic: the first four bytes of every trace.
pub const TRACE_MAGIC: [u8; 4] = *b"CPTR";

/// Current format version. Bump on any layout change.
pub const TRACE_VERSION: u16 = 1;

/// Why a trace could not be read. Every variant names the offending
/// file — a corrupt or truncated trace must produce a diagnostic, not a
/// panic.
#[derive(Debug)]
pub enum TraceError {
    /// Filesystem error (open/read/write).
    Io {
        /// Path of the file being accessed.
        path: String,
        /// The underlying error, stringified.
        detail: String,
    },
    /// The file does not start with [`TRACE_MAGIC`].
    BadMagic {
        /// Path of the offending file.
        path: String,
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The file's version is not [`TRACE_VERSION`].
    BadVersion {
        /// Path of the offending file.
        path: String,
        /// Version found in the header.
        found: u16,
    },
    /// The file ended mid-structure.
    Truncated {
        /// Path of the offending file.
        path: String,
        /// What was being decoded when the bytes ran out.
        context: String,
        /// Byte offset at which decoding stopped.
        offset: usize,
    },
    /// Structurally invalid content (bad op tag, non-UTF-8 name, …).
    Corrupt {
        /// Path of the offending file.
        path: String,
        /// What was wrong.
        detail: String,
        /// Byte offset of the bad content.
        offset: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io { path, detail } => write!(f, "{path}: {detail}"),
            TraceError::BadMagic { path, found } => write!(
                f,
                "{path}: not a CoolPIM trace (magic {found:02x?}, expected {TRACE_MAGIC:02x?})"
            ),
            TraceError::BadVersion { path, found } => write!(
                f,
                "{path}: unsupported trace version {found} (this build reads version {TRACE_VERSION})"
            ),
            TraceError::Truncated {
                path,
                context,
                offset,
            } => write!(f, "{path}: truncated while reading {context} at byte {offset}"),
            TraceError::Corrupt {
                path,
                detail,
                offset,
            } => write!(f, "{path}: corrupt trace: {detail} at byte {offset}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// A fully decoded workload trace: everything `CoSim` needs to re-run a
/// workload without the graph or the kernel that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadTrace {
    /// Workload name (feeds run records and telemetry `RunInfo`).
    pub name: String,
    /// Free-form descriptor of the generating configuration
    /// (`workload=… scale=… seed=…`), for humans and provenance checks.
    pub params: String,
    /// Graph-lineage hash of the generating spec.
    pub config_hash: u64,
    /// Warps per block (constant across launches).
    pub warps_per_block: usize,
    /// The generating kernel's static profile, bit-exact.
    pub profile: KernelProfile,
    /// Per-launch block traces, in dispatch order.
    pub launches: Vec<Vec<BlockTrace>>,
}

// ---------------------------------------------------------------------
// varint / zigzag primitives
// ---------------------------------------------------------------------

pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A bounds-checked little-endian reader over a byte slice that turns
/// every out-of-bounds access into a contextful [`TraceError`].
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    path: &'a str,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8], path: &'a str) -> Self {
        Self { buf, pos: 0, path }
    }

    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    pub(crate) fn seek(&mut self, pos: usize) {
        self.pos = pos;
    }

    fn truncated(&self, context: &str) -> TraceError {
        TraceError::Truncated {
            path: self.path.to_string(),
            context: context.to_string(),
            offset: self.pos,
        }
    }

    pub(crate) fn corrupt(&self, detail: String) -> TraceError {
        TraceError::Corrupt {
            path: self.path.to_string(),
            detail,
            offset: self.pos,
        }
    }

    pub(crate) fn bytes(&mut self, n: usize, context: &str) -> Result<&'a [u8], TraceError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.truncated(context))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u16(&mut self, context: &str) -> Result<u16, TraceError> {
        let b = self.bytes(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32(&mut self, context: &str) -> Result<u32, TraceError> {
        let b = self.bytes(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self, context: &str) -> Result<u64, TraceError> {
        let b = self.bytes(8, context)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    pub(crate) fn varint(&mut self, context: &str) -> Result<u64, TraceError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = *self
                .buf
                .get(self.pos)
                .ok_or_else(|| self.truncated(context))?;
            self.pos += 1;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(self.corrupt(format!("varint longer than 10 bytes in {context}")))
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }
}

// ---------------------------------------------------------------------
// encode
// ---------------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = u16::try_from(bytes.len()).unwrap_or(u16::MAX);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&bytes[..len as usize]);
}

fn pim_op_tag(op: PimOp) -> u8 {
    // PimOp::ALL order is the stable wire encoding.
    let idx = PimOp::ALL
        .iter()
        .position(|&o| o == op)
        .expect("PimOp missing from PimOp::ALL");
    3 + idx as u8
}

fn put_addrs(out: &mut Vec<u8>, addrs: &[u64]) {
    put_varint(out, addrs.len() as u64);
    let mut prev = 0u64;
    for (i, &a) in addrs.iter().enumerate() {
        if i == 0 {
            put_varint(out, a);
        } else {
            put_varint(out, zigzag(a.wrapping_sub(prev) as i64));
        }
        prev = a;
    }
}

/// Encodes `op` of `block` with its addresses.
pub(crate) fn put_op(out: &mut Vec<u8>, block: &BlockTrace, op: &WarpOp) {
    match *op {
        WarpOp::Compute(cycles) => {
            out.push(0);
            put_varint(out, u64::from(cycles));
            return;
        }
        WarpOp::Load(_) => out.push(1),
        WarpOp::Store(_) => out.push(2),
        WarpOp::Atomic { op, .. } => out.push(pim_op_tag(op)),
    }
    put_addrs(out, block.addrs_of(op));
}

// ---------------------------------------------------------------------
// decode
// ---------------------------------------------------------------------

/// Decodes one op's addresses onto the end of `arena`.
fn read_addrs(
    r: &mut Reader<'_>,
    context: &str,
    arena: &mut Vec<u64>,
) -> Result<Lanes, TraceError> {
    let n = r.varint(context)? as usize;
    // A warp has at most 32 lanes; anything bigger is garbage, and
    // bounding it keeps a corrupt count from allocating gigabytes.
    if n > 64 {
        return Err(r.corrupt(format!("{context}: implausible lane count {n}")));
    }
    let start = u32::try_from(arena.len())
        .map_err(|_| r.corrupt(format!("{context}: block address arena exceeds u32")))?;
    let mut prev = 0u64;
    for i in 0..n {
        let a = if i == 0 {
            r.varint(context)?
        } else {
            prev.wrapping_add(unzigzag(r.varint(context)?) as u64)
        };
        arena.push(a);
        prev = a;
    }
    Ok(Lanes {
        start,
        len: n as u32,
    })
}

/// Decodes one op, appending its addresses to its block's `arena`.
pub(crate) fn read_op(r: &mut Reader<'_>, arena: &mut Vec<u64>) -> Result<WarpOp, TraceError> {
    let tag = r.bytes(1, "op tag")?[0];
    match tag {
        0 => Ok(WarpOp::Compute(
            u32::try_from(r.varint("compute cycles")?)
                .map_err(|_| r.corrupt("compute burst exceeds u32".to_string()))?,
        )),
        1 => Ok(WarpOp::Load(read_addrs(r, "load addresses", arena)?)),
        2 => Ok(WarpOp::Store(read_addrs(r, "store addresses", arena)?)),
        t => {
            let idx = (t - 3) as usize;
            let op = *PimOp::ALL
                .get(idx)
                .ok_or_else(|| r.corrupt(format!("unknown op tag {t}")))?;
            Ok(WarpOp::Atomic {
                op,
                lanes: read_addrs(r, "atomic addresses", arena)?,
            })
        }
    }
}

/// Header fields shared by the eager decoder and [`crate::ReferenceReplay`]'s
/// streaming one.
pub(crate) struct Header {
    pub(crate) name: String,
    pub(crate) params: String,
    pub(crate) config_hash: u64,
    pub(crate) warps_per_block: usize,
    pub(crate) profile: KernelProfile,
    pub(crate) launch_count: usize,
}

pub(crate) fn read_header(r: &mut Reader<'_>, path: &str) -> Result<Header, TraceError> {
    let magic = r.bytes(4, "magic")?;
    if magic != TRACE_MAGIC {
        return Err(TraceError::BadMagic {
            path: path.to_string(),
            found: [magic[0], magic[1], magic[2], magic[3]],
        });
    }
    let version = r.u16("version")?;
    if version != TRACE_VERSION {
        return Err(TraceError::BadVersion {
            path: path.to_string(),
            found: version,
        });
    }
    let _reserved = r.u16("reserved")?;
    let config_hash = r.u64("config_hash")?;
    let read_str = |r: &mut Reader<'_>, what: &str| -> Result<String, TraceError> {
        let len = r.u16(what)? as usize;
        let bytes = r.bytes(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| r.corrupt(format!("{what} is not valid UTF-8")))
    };
    let name = read_str(r, "workload name")?;
    let params = read_str(r, "params string")?;
    let warps_per_block = r.u32("warps_per_block")? as usize;
    if warps_per_block == 0 {
        return Err(r.corrupt("warps_per_block is zero".to_string()));
    }
    let profile = KernelProfile {
        pim_intensity: f64::from_bits(r.u64("pim_intensity")?),
        divergence_ratio: f64::from_bits(r.u64("divergence_ratio")?),
    };
    let launch_count = r.u32("launch_count")? as usize;
    Ok(Header {
        name,
        params,
        config_hash,
        warps_per_block,
        profile,
        launch_count,
    })
}

impl WorkloadTrace {
    /// Serializes the trace to its binary form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 * 1024);
        out.extend_from_slice(&TRACE_MAGIC);
        out.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&self.config_hash.to_le_bytes());
        put_str(&mut out, &self.name);
        put_str(&mut out, &self.params);
        out.extend_from_slice(&(self.warps_per_block as u32).to_le_bytes());
        out.extend_from_slice(&self.profile.pim_intensity.to_bits().to_le_bytes());
        out.extend_from_slice(&self.profile.divergence_ratio.to_bits().to_le_bytes());
        out.extend_from_slice(&(self.launches.len() as u32).to_le_bytes());
        for launch in &self.launches {
            put_varint(&mut out, launch.len() as u64);
            for block in launch {
                put_varint(&mut out, block.warps.len() as u64);
                for warp in &block.warps {
                    put_varint(&mut out, warp.ops.len() as u64);
                    for op in &warp.ops {
                        put_op(&mut out, block, op);
                    }
                }
            }
        }
        out
    }

    /// Decodes a trace from bytes; `path` labels any error.
    pub fn decode(bytes: &[u8], path: &str) -> Result<Self, TraceError> {
        let mut r = Reader::new(bytes, path);
        let h = read_header(&mut r, path)?;
        // Each block's addresses are gathered here, then copied out at
        // their exact size.
        let mut arena = Vec::new();
        let mut launches = Vec::with_capacity(h.launch_count);
        for _ in 0..h.launch_count {
            let blocks = r.varint("block count")? as usize;
            let mut launch = Vec::with_capacity(blocks);
            for _ in 0..blocks {
                let warps = r.varint("warp count")? as usize;
                if warps > 4096 {
                    return Err(r.corrupt(format!("implausible warp count {warps}")));
                }
                let mut block_warps = Vec::with_capacity(warps);
                for _ in 0..warps {
                    let ops = r.varint("op count")? as usize;
                    let mut warp = WarpTrace {
                        ops: Vec::with_capacity(ops.min(1 << 16)),
                    };
                    for _ in 0..ops {
                        warp.ops.push(read_op(&mut r, &mut arena)?);
                    }
                    block_warps.push(warp);
                }
                launch.push(BlockTrace {
                    warps: block_warps,
                    addrs: arena.as_slice().to_vec(),
                });
                arena.clear();
            }
            launches.push(launch);
        }
        if !r.is_empty() {
            return Err(r.corrupt(format!(
                "{} trailing bytes after final launch",
                bytes.len() - r.pos()
            )));
        }
        Ok(Self {
            name: h.name,
            params: h.params,
            config_hash: h.config_hash,
            warps_per_block: h.warps_per_block,
            profile: h.profile,
            launches,
        })
    }

    /// Writes the encoded trace to `path`.
    pub fn write_to(&self, path: &Path) -> Result<(), TraceError> {
        std::fs::write(path, self.encode()).map_err(|e| TraceError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        })
    }

    /// Loads and decodes a trace file.
    pub fn load(path: &Path) -> Result<Self, TraceError> {
        let bytes = std::fs::read(path).map_err(|e| TraceError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
        Self::decode(&bytes, &path.display().to_string())
    }

    /// Total number of warp ops across all launches.
    pub fn total_ops(&self) -> u64 {
        self.launches
            .iter()
            .flatten()
            .flat_map(|b| &b.warps)
            .map(|w| w.ops.len() as u64)
            .sum()
    }

    /// Total number of blocks across all launches.
    pub fn total_blocks(&self) -> usize {
        self.launches.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkloadTrace {
        let mut first = BlockTrace::default();
        let ops = vec![
            WarpOp::Compute(7),
            WarpOp::Load(first.push_lanes([4096, 4160, 4224])),
            WarpOp::Atomic {
                op: PimOp::FloatAdd,
                lanes: first.push_lanes([1 << 40, (1 << 40) - 8]),
            },
        ];
        first.warps = vec![WarpTrace { ops }, WarpTrace { ops: vec![] }];
        let mut last = BlockTrace::default();
        let ops = vec![
            WarpOp::Store(last.push_lanes([0])),
            WarpOp::Compute(u32::MAX),
        ];
        last.warps.push(WarpTrace { ops });
        WorkloadTrace {
            name: "unit".into(),
            params: "workload=unit scale=1".into(),
            config_hash: 0xdead_beef_cafe_f00d,
            warps_per_block: 8,
            profile: KernelProfile {
                pim_intensity: 0.371,
                divergence_ratio: 0.125,
            },
            launches: vec![vec![first, BlockTrace::default()], vec![last]],
        }
    }

    #[test]
    fn round_trips_exactly() {
        let t = sample();
        let bytes = t.encode();
        let back = WorkloadTrace::decode(&bytes, "mem").expect("decode");
        assert_eq!(back, t);
        assert_eq!(t.total_ops(), 5);
        assert_eq!(t.total_blocks(), 3);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        let err = WorkloadTrace::decode(&bytes, "bad.cptr").unwrap_err();
        assert!(matches!(err, TraceError::BadMagic { .. }), "{err}");
        assert!(err.to_string().contains("bad.cptr"));

        let mut bytes = sample().encode();
        bytes[4] = 99;
        let err = WorkloadTrace::decode(&bytes, "v99.cptr").unwrap_err();
        assert!(
            matches!(err, TraceError::BadVersion { found: 99, .. }),
            "{err}"
        );
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let err = WorkloadTrace::decode(&bytes[..cut], "cut.cptr").unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("cut.cptr"), "error must name the file: {msg}");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = sample().encode();
        bytes.extend_from_slice(&[1, 2, 3]);
        let err = WorkloadTrace::decode(&bytes, "t.cptr").unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn profile_bits_survive_exactly() {
        // Shrunk from the replay-oracle wiring: the profile seeds Eq. 1's
        // token pool, so even the last mantissa bit must survive a trip
        // through the file format.
        let mut t = sample();
        t.profile.pim_intensity = f64::from_bits(0x3FD5_5555_5555_5556);
        let back = WorkloadTrace::decode(&t.encode(), "mem").unwrap();
        assert_eq!(
            back.profile.pim_intensity.to_bits(),
            t.profile.pim_intensity.to_bits()
        );
    }
}
