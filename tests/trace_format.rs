//! Integration tests for the `.cptr` workload-trace binary format:
//! randomized encode→decode round trips (via the workspace's own seeded
//! PRNG, same idiom as `proptest_invariants`), rejection of corrupt
//! inputs with errors naming the file, and a byte-exact golden file
//! that pins the on-disk layout — the format is little-endian by
//! definition, so the golden must decode identically on every host.
//!
//! To refresh the golden after an intentional format change (bump
//! `TRACE_VERSION` first): `UPDATE_GOLDEN=1 cargo test --test
//! trace_format` and commit the diff.

use std::path::PathBuf;

use coolpim::gpu::isa::{BlockTrace, WarpOp, WarpTrace};
use coolpim::gpu::kernel::KernelProfile;
use coolpim::graph::rng::SplitMix64;
use coolpim::hmc::PimOp;
use coolpim::trace::{TraceError, WorkloadTrace, TRACE_MAGIC, TRACE_VERSION};

/// Random trace exercising every op kind, empty warps, empty blocks,
/// multi-launch grids, and extreme address/cycle values.
fn random_trace(rng: &mut SplitMix64) -> WorkloadTrace {
    let launches = (1 + rng.gen_range_u64(3)) as usize;
    let warps_per_block = (1 + rng.gen_range_u64(4)) as usize;
    let mut trace = WorkloadTrace {
        name: format!("rand-{}", rng.gen_range_u64(1000)),
        params: "workload=rand scale=test".to_string(),
        config_hash: rng.next_u64(),
        warps_per_block,
        profile: KernelProfile {
            pim_intensity: rng.gen_f64(),
            divergence_ratio: rng.gen_f64(),
        },
        launches: Vec::new(),
    };
    for _ in 0..launches {
        let blocks = rng.gen_range_u64(6) as usize;
        let mut launch = Vec::new();
        for _ in 0..blocks {
            let mut block = BlockTrace::default();
            for _ in 0..warps_per_block {
                let mut warp = WarpTrace::default();
                for _ in 0..rng.gen_range_u64(8) {
                    let lanes = 1 + rng.gen_range_u64(32) as usize;
                    let mut addrs = |rng: &mut SplitMix64| {
                        block.push_lanes((0..lanes).map(|_| match rng.gen_range_u64(4) {
                            // Mix nearby strides (the delta fast
                            // path) with far jumps and the extremes.
                            0 => rng.gen_range_u64(1 << 20),
                            1 => u64::MAX - rng.gen_range_u64(1 << 10),
                            _ => rng.next_u64(),
                        }))
                    };
                    warp.ops.push(match rng.gen_range_u64(4) {
                        0 => WarpOp::Compute(rng.next_u64() as u32),
                        1 => WarpOp::Load(addrs(rng)),
                        2 => WarpOp::Store(addrs(rng)),
                        _ => WarpOp::Atomic {
                            op: PimOp::ALL[rng.gen_range_u64(9) as usize],
                            lanes: addrs(rng),
                        },
                    });
                }
                block.warps.push(warp);
            }
            launch.push(block);
        }
        trace.launches.push(launch);
    }
    trace
}

#[test]
fn random_traces_round_trip_bit_exactly() {
    let mut rng = SplitMix64::seed_from_u64(0xC0_17);
    for case in 0..40 {
        let trace = random_trace(&mut rng);
        let bytes = trace.encode();
        let back = WorkloadTrace::decode(&bytes, "case.cptr")
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(trace, back, "case {case} did not round-trip");
        // Re-encoding the decode must reproduce the exact bytes: the
        // format has one canonical serialisation.
        assert_eq!(bytes, back.encode(), "case {case} re-encode drifted");
    }
}

#[test]
fn bad_magic_and_version_are_rejected_by_name() {
    let mut rng = SplitMix64::seed_from_u64(0xC0_18);
    let bytes = random_trace(&mut rng).encode();

    let mut wrong_magic = bytes.clone();
    wrong_magic[..4].copy_from_slice(b"NOPE");
    match WorkloadTrace::decode(&wrong_magic, "m.cptr") {
        Err(TraceError::BadMagic { path, found }) => {
            assert_eq!(path, "m.cptr");
            assert_eq!(found, *b"NOPE");
        }
        other => panic!("expected BadMagic, got {other:?}"),
    }

    let mut wrong_version = bytes;
    let next = TRACE_VERSION + 1;
    wrong_version[4..6].copy_from_slice(&next.to_le_bytes());
    match WorkloadTrace::decode(&wrong_version, "v.cptr") {
        Err(TraceError::BadVersion { path, found }) => {
            assert_eq!(path, "v.cptr");
            assert_eq!(found, next);
        }
        other => panic!("expected BadVersion, got {other:?}"),
    }
}

#[test]
fn every_truncation_is_rejected_and_names_the_file() {
    let mut rng = SplitMix64::seed_from_u64(0xC0_19);
    let bytes = random_trace(&mut rng).encode();
    for cut in 0..bytes.len() {
        let err = WorkloadTrace::decode(&bytes[..cut], "cut.cptr")
            .expect_err("a strict prefix must never decode");
        assert!(
            err.to_string().contains("cut.cptr"),
            "error at cut {cut} does not name the file: {err}"
        );
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut rng = SplitMix64::seed_from_u64(0xC0_20);
    let mut bytes = random_trace(&mut rng).encode();
    bytes.push(0);
    assert!(WorkloadTrace::decode(&bytes, "t.cptr").is_err());
}

/// A fixed, fully deterministic trace: every op kind, an empty warp, an
/// empty block, a multi-launch grid, NaN-free but extreme floats.
fn golden_trace() -> WorkloadTrace {
    let mut first = BlockTrace::default();
    let ops = vec![
        WarpOp::Compute(0),
        WarpOp::Compute(u32::MAX),
        WarpOp::Load(first.push_lanes([0, 64, 128, u64::MAX])),
        WarpOp::Store(first.push_lanes([1 << 40])),
        WarpOp::Atomic {
            op: PimOp::SignedAdd,
            lanes: first.push_lanes([16, 32, 16]),
        },
    ];
    first.warps = vec![WarpTrace { ops }, WarpTrace::default()]; // then an empty warp
    let mut second = BlockTrace::default();
    let ops = vec![WarpOp::Atomic {
        op: PimOp::ALL[8],
        lanes: second.push_lanes([u64::MAX, 0]),
    }];
    second.warps = vec![
        WarpTrace { ops },
        WarpTrace {
            ops: vec![WarpOp::Compute(7)],
        },
    ];
    let mut last = BlockTrace::default();
    let ops = vec![WarpOp::Load(last.push_lanes([42]))];
    last.warps = vec![WarpTrace { ops }, WarpTrace::default()];
    WorkloadTrace {
        name: "golden".to_string(),
        params: "workload=golden scale=0 seed=42".to_string(),
        config_hash: 0x0123_4567_89ab_cdef,
        warps_per_block: 2,
        profile: KernelProfile {
            pim_intensity: 0.1 + 0.2, // deliberately not representable exactly
            divergence_ratio: f64::MIN_POSITIVE,
        },
        launches: vec![
            vec![first, second],
            Vec::new(), // empty launch
            vec![last],
        ],
    }
}

#[test]
fn golden_file_pins_the_on_disk_layout() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join("workload_trace.cptr");
    let bytes = golden_trace().encode();
    assert_eq!(&bytes[..4], TRACE_MAGIC.as_slice());
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &bytes).unwrap();
        return;
    }
    let expected = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (run with UPDATE_GOLDEN=1 to create)",
            path.display()
        )
    });
    // Byte equality in both directions: today's encoder must reproduce
    // the committed bytes, and the committed bytes must decode to
    // today's in-memory value — including exact profile float bits.
    // The format is explicitly little-endian, so this holds on any host.
    assert_eq!(
        bytes,
        expected,
        "{} drifted from the golden copy — a format change must bump TRACE_VERSION; \
         if intentional, refresh with UPDATE_GOLDEN=1",
        path.display()
    );
    let decoded = WorkloadTrace::load(&path).expect("golden decodes");
    assert_eq!(decoded, golden_trace());
}
