//! Fuzz-shaped robustness tests: every decoder is fed truncated and
//! bit-flipped buffers in a seeded loop and must return a typed
//! [`WireError`] — never panic, never hang, never allocate absurdly.

use xhc_core::PartitionEngine;
use xhc_misr::XCancelConfig;
use xhc_prng::XhcRng;
use xhc_scan::{CellId, ScanConfig, XMapBuilder};
use xhc_wire::{
    decode_certificate, decode_plan, decode_plan_request, decode_workload_spec, decode_xmap,
    encode_certificate, encode_plan, encode_plan_request, encode_workload_spec, encode_xmap,
    peek_kind, BlockCertificate, PartitionAccount, PlanCertificate, PlanRequest,
};
use xhc_workload::WorkloadSpec;

/// A decoder under test, type-erased to `bytes -> ok?`.
type Decoder = (&'static str, fn(&[u8]) -> bool);

/// Every decoder under test.
fn decoders() -> Vec<Decoder> {
    vec![
        ("xmap", |b| decode_xmap(b).is_ok()),
        ("workload_spec", |b| decode_workload_spec(b).is_ok()),
        ("plan", |b| decode_plan(b).is_ok()),
        ("plan_request", |b| decode_plan_request(b).is_ok()),
        ("certificate", |b| decode_certificate(b).is_ok()),
        ("peek_kind", |b| peek_kind(b).is_ok()),
    ]
}

/// A small but fully-populated certificate (two partitions, one block)
/// as a mutation seed.
fn seed_certificate() -> PlanCertificate {
    PlanCertificate {
        plan_hash: 0xDEAD_BEEF,
        num_patterns: 12,
        num_partitions: 2,
        mask_bits: 8,
        total_x: 3,
        m: 8,
        q: 2,
        assignment: vec![0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1],
        partitions: vec![
            PartitionAccount {
                patterns: 6,
                masked_x: 2,
                leaked_x: 0,
                mask_cells: 1,
                cancel_bits: 0.0,
                histogram: vec![(2, 1)],
            },
            PartitionAccount {
                patterns: 6,
                masked_x: 0,
                leaked_x: 1,
                mask_cells: 0,
                cancel_bits: 8.0 * 2.0 / 6.0,
                histogram: vec![(1, 1)],
            },
        ],
        blocks: Some(vec![BlockCertificate {
            patterns: (0, 12),
            num_x: 1,
            rank: 1,
            pivot_cols: vec![0],
            combinations: 2,
            control_bits: 16,
            dependency: vec![1, 0, 0, 0, 0, 0, 0, 0],
        }]),
    }
}

/// One valid buffer of every artifact kind, as mutation seeds.
fn seed_buffers() -> Vec<Vec<u8>> {
    let config = ScanConfig::new(vec![3, 1, 4]);
    let mut b = XMapBuilder::new(config, 12);
    b.add_x(CellId::new(0, 0), 0).unwrap();
    b.add_x(CellId::new(0, 0), 7).unwrap();
    b.add_x(CellId::new(2, 3), 11).unwrap();
    let xmap = b.finish();
    let outcome = PartitionEngine::new(XCancelConfig::new(8, 2)).run(&xmap);
    let request = PlanRequest {
        m: 8,
        q: 2,
        options: xhc_core::PlanOptions {
            backend: xhc_core::BackendId::XCode,
            ..xhc_core::PlanOptions::default()
        },
        artifact: encode_xmap(&xmap),
    };
    vec![
        encode_xmap(&xmap),
        encode_workload_spec(&WorkloadSpec::default()),
        encode_plan(&outcome, xmap.num_patterns()),
        encode_certificate(&seed_certificate()),
        encode_plan_request(&request),
    ]
}

#[test]
fn truncations_never_panic() {
    for seed in seed_buffers() {
        for cut in 0..seed.len() {
            for (name, decode) in decoders() {
                // Either a clean decode (only at full length for the
                // matching kind) or a typed error — the call returning at
                // all is the property under test.
                let _ok = decode(&seed[..cut]);
                let _ = name;
            }
        }
    }
}

#[test]
fn bit_flips_never_panic() {
    let mut rng = XhcRng::seed_from_u64(0xF1AB_0001);
    let seeds = seed_buffers();
    for round in 0..400 {
        let seed = &seeds[round % seeds.len()];
        let mut buf = seed.clone();
        // Flip 1..=8 random bits.
        let flips = 1 + rng.gen_index(8);
        for _ in 0..flips {
            let byte = rng.gen_index(buf.len());
            let bit = rng.gen_index(8);
            buf[byte] ^= 1 << bit;
        }
        for (_, decode) in decoders() {
            let _ = decode(&buf);
        }
    }
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = XhcRng::seed_from_u64(0xF1AB_0002);
    for _ in 0..200 {
        let len = rng.gen_index(256);
        let mut buf = vec![0u8; len];
        for byte in &mut buf {
            *byte = (rng.next_u64() & 0xFF) as u8;
        }
        // Half the time, plant a valid header so parsing reaches the
        // section table and payload logic.
        if rng.gen_bool(0.5) && buf.len() >= 8 {
            buf[..4].copy_from_slice(b"XHCW");
            buf[4..6].copy_from_slice(&1u16.to_le_bytes());
            let kind = 1 + (rng.gen_index(7) as u16);
            buf[6..8].copy_from_slice(&kind.to_le_bytes());
        }
        for (_, decode) in decoders() {
            let _ = decode(&buf);
        }
    }
}

#[test]
fn plan_request_backend_byte_sweep() {
    // The backend byte is the last byte of the params payload. Sweep it
    // over every value: the five pinned codes decode to their backend,
    // everything else is a typed error — never a panic.
    let request = PlanRequest {
        m: 8,
        q: 2,
        options: xhc_core::PlanOptions::default(),
        artifact: encode_xmap(&{
            let mut b = XMapBuilder::new(ScanConfig::uniform(2, 2), 4);
            b.add_x(CellId::new(0, 0), 1).unwrap();
            b.finish()
        }),
    };
    let bytes = encode_plan_request(&request);
    // Params payload: m(8) q(8) strategy(1) policy(1) seed(8) threads(8)
    // flag(1) max_rounds(8) cost_stop(1) backend(1); it is the first
    // section, after the 12-byte header and two 12-byte table entries.
    let backend_off = 12 + 2 * 12 + 44;
    assert_eq!(bytes[backend_off], 0);
    for value in 0..=255u8 {
        let mut buf = bytes.clone();
        buf[backend_off] = value;
        match decode_plan_request(&buf) {
            Ok(back) => {
                // Canonical: the decoded backend re-encodes to the byte.
                assert_eq!(encode_plan_request(&back), buf, "backend byte {value}");
            }
            Err(err) => {
                assert!(value > 4, "pinned code {value} must decode: {err}");
            }
        }
    }
}

#[test]
fn truncated_buffers_always_fail() {
    // Sharper than "no panic": a strict prefix of a valid buffer must
    // never decode successfully (the length accounting has no slack).
    let mut b = XMapBuilder::new(ScanConfig::new(vec![3, 1, 4]), 12);
    b.add_x(CellId::new(2, 3), 11).unwrap();
    let bytes = encode_xmap(&b.finish());
    for cut in 0..bytes.len() {
        assert!(
            decode_xmap(&bytes[..cut]).is_err(),
            "prefix of length {cut} decoded"
        );
    }
}
