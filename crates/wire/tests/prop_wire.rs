//! Property tests: random artifacts round-trip through the wire format,
//! the wire and `xmap v1` text formats agree, and the text reader's
//! error paths are pinned.

use xhc_core::PartitionEngine;
use xhc_misr::XCancelConfig;
use xhc_prng::XhcRng;
use xhc_scan::{read_xmap, write_xmap, LintCode, ReadXMapError, ScanConfig, XMap, XMapBuilder};
use xhc_wire::{
    content_hash, decode_plan, decode_workload_spec, decode_xmap, encode_plan,
    encode_workload_spec, encode_xmap,
};
use xhc_workload::WorkloadSpec;

/// A random but structurally valid X map.
fn random_xmap(rng: &mut XhcRng) -> XMap {
    let chains = 1 + ((rng.next_u64() as u32) % 6) as usize;
    let lengths: Vec<usize> = (0..chains)
        .map(|_| 1 + ((rng.next_u64() as u32) % 8) as usize)
        .collect();
    let config = ScanConfig::new(lengths);
    let patterns = 1 + ((rng.next_u64() as u32) % 90) as usize;
    let mut b = XMapBuilder::new(config.clone(), patterns);
    for idx in 0..config.total_cells() {
        if rng.gen_index(3) != 0 {
            continue;
        }
        let cell = config.cell_at(idx);
        for p in 0..patterns {
            if rng.gen_index(4) == 0 {
                b.add_x(cell, p).unwrap();
            }
        }
    }
    b.finish()
}

#[test]
fn random_xmaps_roundtrip_and_hash_stably() {
    let mut rng = XhcRng::seed_from_u64(0x5eed_0001);
    for _ in 0..60 {
        let xmap = random_xmap(&mut rng);
        let bytes = encode_xmap(&xmap);
        let back = decode_xmap(&bytes).expect("valid encoding must decode");
        assert_eq!(back, xmap);
        // Canonical bytes: re-encoding the decoded artifact is identical,
        // so the content address is stable.
        let bytes2 = encode_xmap(&back);
        assert_eq!(bytes, bytes2);
        assert_eq!(content_hash(&bytes), content_hash(&bytes2));
    }
}

#[test]
fn text_and_wire_formats_agree() {
    let mut rng = XhcRng::seed_from_u64(0x5eed_0002);
    for _ in 0..40 {
        let xmap = random_xmap(&mut rng);
        // text -> XMap -> wire must equal XMap -> wire directly.
        let mut text = Vec::new();
        write_xmap(&mut text, &xmap).unwrap();
        let from_text = read_xmap(&text[..]).expect("writer output must parse");
        assert_eq!(from_text, xmap);
        assert_eq!(encode_xmap(&from_text), encode_xmap(&xmap));
        // wire -> XMap -> text -> XMap closes the loop.
        let from_wire = decode_xmap(&encode_xmap(&xmap)).unwrap();
        let mut text2 = Vec::new();
        write_xmap(&mut text2, &from_wire).unwrap();
        assert_eq!(read_xmap(&text2[..]).unwrap(), xmap);
    }
}

#[test]
fn random_workload_specs_roundtrip() {
    let mut rng = XhcRng::seed_from_u64(0x5eed_0004);
    for _ in 0..50 {
        let mut spec = match (rng.next_u64() as u32) % 4 {
            0 => WorkloadSpec::default(),
            1 => WorkloadSpec::ckt_a(),
            2 => WorkloadSpec::ckt_b(),
            _ => WorkloadSpec::ckt_c(),
        };
        spec.seed = rng.next_u64();
        spec.num_patterns = 1 + ((rng.next_u64() as u32) % 500) as usize;
        spec.x_density = f64::from((rng.next_u64() % 1000) as u32) / 1000.0;
        let back = decode_workload_spec(&encode_workload_spec(&spec)).unwrap();
        assert_eq!(back, spec);
    }
}

#[test]
fn plans_roundtrip_for_random_workloads() {
    let mut rng = XhcRng::seed_from_u64(0x5eed_0005);
    for _ in 0..12 {
        let xmap = random_xmap(&mut rng);
        let outcome = PartitionEngine::new(XCancelConfig::new(16, 3)).run(&xmap);
        let bytes = encode_plan(&outcome, xmap.num_patterns());
        let (back, patterns) = decode_plan(&bytes).unwrap();
        assert_eq!(patterns, xmap.num_patterns());
        assert_eq!(back, outcome);
        assert_eq!(encode_plan(&back, patterns), bytes);
    }
}

#[test]
fn plan_requests_roundtrip_for_every_backend() {
    use xhc_core::{BackendId, CellSelection, PlanOptions, SplitStrategy};
    use xhc_wire::{decode_plan_request, encode_plan_request, PlanRequest};
    let mut rng = XhcRng::seed_from_u64(0x5eed_0006);
    for round in 0..40 {
        let backend = BackendId::ALL[round % BackendId::ALL.len()];
        let options = PlanOptions {
            strategy: if rng.gen_bool(0.5) {
                SplitStrategy::BestCost
            } else {
                SplitStrategy::LargestClass
            },
            policy: match rng.gen_index(3) {
                0 => CellSelection::First,
                1 => CellSelection::Seeded(rng.next_u64()),
                _ => CellSelection::GlobalMaxX,
            },
            threads: rng.gen_index(9),
            max_rounds: if rng.gen_bool(0.5) {
                Some(rng.gen_index(20))
            } else {
                None
            },
            cost_stop: rng.gen_bool(0.5),
            backend,
        };
        let request = PlanRequest {
            m: 8 + rng.gen_index(60),
            q: 1 + rng.gen_index(6),
            options,
            artifact: encode_xmap(&random_xmap(&mut rng)),
        };
        let bytes = encode_plan_request(&request);
        let back = decode_plan_request(&bytes).expect("valid request must decode");
        assert_eq!(back, request);
        assert_eq!(encode_plan_request(&back), bytes, "canonical bytes");
    }
}

// ---------------------------------------------------------------------
// `xmap v1` text reader error paths
// ---------------------------------------------------------------------

#[test]
fn text_reader_rejects_bad_header() {
    for input in ["", "xmap v2\nchains 3\npatterns 4\n", "not a header\n"] {
        match read_xmap(input.as_bytes()) {
            Err(ReadXMapError::BadHeader(_)) => {}
            other => panic!("expected BadHeader for {input:?}, got {other:?}"),
        }
    }
}

#[test]
fn text_reader_rejects_bad_lines() {
    // Each input with the rule its rejection names, if any.
    let cases = [
        // Unparseable chain length.
        ("xmap v1\nchains three\npatterns 4\n", None),
        // Unparseable pattern count.
        ("xmap v1\nchains 3\npatterns many\n", None),
        // Malformed x line (no colon).
        ("xmap v1\nchains 3\npatterns 4\nx 0 0 1\n", None),
        // Out-of-range cell index.
        (
            "xmap v1\nchains 3\npatterns 4\nx 99 : 0\n",
            Some(LintCode::XOutOfRange),
        ),
        // Out-of-range pattern index.
        (
            "xmap v1\nchains 3\npatterns 4\nx 0 : 9\n",
            Some(LintCode::XOutOfRange),
        ),
        // Unknown directive.
        ("xmap v1\nchains 3\npatterns 4\nbogus line\n", None),
    ];
    for (input, code) in cases {
        match read_xmap(input.as_bytes()) {
            Err(
                e @ (ReadXMapError::BadLine { line, .. } | ReadXMapError::Violation { line, .. }),
            ) => {
                assert!(line >= 2, "line number should point past the header");
                assert_eq!(e.code(), code, "{input:?}");
            }
            other => panic!("expected a line rejection for {input:?}, got {other:?}"),
        }
    }
}

#[test]
fn text_reader_rejects_missing_declarations() {
    // `x` lines before declarations are BadLine; a file that simply ends
    // without declarations is MissingDeclaration.
    match read_xmap(&b"xmap v1\npatterns 4\n"[..]) {
        Err(ReadXMapError::MissingDeclaration(what)) => assert_eq!(what, "chains"),
        other => panic!("expected MissingDeclaration(chains), got {other:?}"),
    }
    match read_xmap(&b"xmap v1\nchains 3\n"[..]) {
        Err(ReadXMapError::MissingDeclaration(what)) => assert_eq!(what, "patterns"),
        other => panic!("expected MissingDeclaration(patterns), got {other:?}"),
    }
}
