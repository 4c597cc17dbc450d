//! Property test of the X map's one representation: sorted cell indices
//! beside one packed row matrix. Random maps over universes on both
//! sides of a word boundary must round-trip the wire format, ship their
//! packed rows verbatim as the XSETS section, keep every bit past the
//! universe clear, and address entries consistently with the cell array
//! they were built from.

use xhc_bits::{PatternSet, XBitMatrix};
use xhc_prng::XhcRng;
use xhc_scan::{ScanConfig, XMap};
use xhc_wire::{decode_xmap, encode_xmap};

/// The XSETS section tag of an encoded X map.
const SEC_XSETS: u32 = 4;

/// The payload of section `tag` in an encoded artifact: a 12-byte
/// header ending in the section count, a table of `(tag u32, len u64)`
/// entries, then the payloads in table order.
fn section(bytes: &[u8], tag: u32) -> &[u8] {
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let mut offset = 12 + 12 * count;
    for i in 0..count {
        let entry = &bytes[12 + 12 * i..24 + 12 * i];
        let t = u32::from_le_bytes(entry[..4].try_into().unwrap());
        let len = u64::from_le_bytes(entry[4..].try_into().unwrap()) as usize;
        if t == tag {
            return &bytes[offset..offset + len];
        }
        offset += len;
    }
    panic!("section {tag} missing");
}

/// Random strictly ascending cells with one random row each, some rows
/// left empty so the constructor has something to drop.
fn random_parts(rng: &mut XhcRng, universe: usize) -> (ScanConfig, Vec<u32>, Vec<PatternSet>) {
    let chains = 1 + rng.gen_index(5);
    let config = ScanConfig::uniform(chains, 1 + rng.gen_index(12));
    let mut cells = Vec::new();
    let mut sets = Vec::new();
    for idx in 0..config.total_cells() {
        if rng.gen_index(2) == 0 {
            continue;
        }
        let density = 1 + rng.gen_index(6);
        let set = if rng.gen_index(5) == 0 {
            PatternSet::empty(universe)
        } else {
            PatternSet::from_patterns(
                universe,
                (0..universe).filter(|_| rng.gen_index(density) == 0),
            )
        };
        cells.push(idx as u32);
        sets.push(set);
    }
    (config, cells, sets)
}

#[test]
fn packed_rows_are_the_wire_section_and_the_map() {
    let mut rng = XhcRng::seed_from_u64(0x5eed_0019);
    let mut dropped = 0;
    for universe in [63usize, 64, 65, 130] {
        for _ in 0..40 {
            let (config, cells, sets) = random_parts(&mut rng, universe);
            let words: Vec<u64> = sets
                .iter()
                .flat_map(|s| s.as_bits().as_words().to_vec())
                .collect();
            let rows = XBitMatrix::from_words(universe, words).expect("sets have clear tails");
            let xmap = XMap::from_rows(config.clone(), cells.clone(), rows);

            // Empty rows are dropped with their cells; the rest keep
            // their order.
            let kept: Vec<(u32, &PatternSet)> = cells
                .iter()
                .copied()
                .zip(&sets)
                .filter(|(_, s)| !s.is_empty())
                .collect();
            dropped += cells.len() - kept.len();
            assert_eq!(xmap.num_x_cells(), kept.len());
            assert_eq!(
                xmap.total_x(),
                kept.iter().map(|(_, s)| s.card()).sum::<usize>()
            );
            let entries = cells.iter().copied().zip(sets.iter().cloned()).collect();
            assert_eq!(XMap::from_entries(config.clone(), universe, entries), xmap);

            // find_entry / entry agree with the cell array.
            for (pos, &(idx, set)) in kept.iter().enumerate() {
                let (cell, row) = xmap.entry(pos);
                assert_eq!(cell, idx as usize);
                assert_eq!(row.to_set(), *set);
                assert_eq!(xmap.find_entry(idx as usize), Some(pos));
            }
            for idx in 0..config.total_cells() {
                if !kept.iter().any(|&(c, _)| c as usize == idx) {
                    assert_eq!(xmap.find_entry(idx), None, "cell {idx}");
                }
            }

            // No row has a bit set past the universe.
            let matrix = xmap.to_bitmatrix();
            assert_eq!(matrix.num_rows(), kept.len());
            for r in 0..matrix.num_rows() {
                let last = *matrix.row(r).last().expect("universe > 0");
                if universe % 64 != 0 {
                    assert_eq!(last >> (universe % 64), 0, "row {r}");
                }
            }

            // The wire round trip is exact, and XSETS is the packed
            // rows, little-endian.
            let bytes = encode_xmap(&xmap);
            assert_eq!(decode_xmap(&bytes).expect("valid encoding"), xmap);
            let le: Vec<u8> = matrix
                .words()
                .iter()
                .flat_map(|w| w.to_le_bytes())
                .collect();
            assert_eq!(section(&bytes, SEC_XSETS), &le[..]);
        }
    }
    assert!(dropped > 0, "no empty row was exercised");
}
