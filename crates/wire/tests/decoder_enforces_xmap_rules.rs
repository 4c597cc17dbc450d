//! The X-map decoders hold the raw-facts rules XL0202 (out-of-range X)
//! and XL0203 (duplicate X). Every entry list that `check_xmap_facts`
//! flags is rejected by `decode_xmap` in its wire form and by
//! `read_xmap` in its text form; a rejection of a single defect names
//! the rule that flags it, in both forms.
//! That is why `check_xmap` on a built map runs only XL0201, which the
//! last test pins (seeded `xhc-prng` loops).

use xhc_lint::{check_scan_config, check_xmap, check_xmap_facts, LintCode, LintConfig, XMapFacts};
use xhc_prng::XhcRng;
use xhc_scan::{read_xmap, ScanConfig, XMap, XMapBuilder};
use xhc_wire::{decode_xmap, encode_xmap, MAGIC, VERSION};

/// The defects the generator injects, one per XL0202/XL0203 case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Defect {
    CellOutOfRange,
    PatternOutOfRange,
    RepeatedCell,
    RepeatedPattern,
}

const DEFECTS: [Defect; 4] = [
    Defect::CellOutOfRange,
    Defect::PatternOutOfRange,
    Defect::RepeatedCell,
    Defect::RepeatedPattern,
];

/// A random scan config: balanced or ragged chains.
fn random_config(rng: &mut XhcRng) -> ScanConfig {
    let chains = rng.gen_range(1..6usize);
    if rng.gen_bool(0.5) {
        ScanConfig::balanced(rng.gen_range(chains..chains * 9), chains)
    } else {
        ScanConfig::new((0..chains).map(|_| rng.gen_range(1..12usize)).collect())
    }
}

/// A random clean entry list over `config` (distinct cells, distinct
/// in-range patterns, no empty list), in random cell order. Pattern
/// counts straddle the 64-bit word boundary, 64 and 128 included.
fn random_clean_facts(rng: &mut XhcRng, config: &ScanConfig) -> XMapFacts {
    let num_patterns = [1, 5, 63, 64, 65, 100, 128, 130][rng.gen_index(8)];
    let mut entries = Vec::new();
    for cell in 0..config.total_cells() {
        if rng.gen_bool(0.4) {
            let mut patterns: Vec<usize> =
                (0..num_patterns).filter(|_| rng.gen_bool(0.1)).collect();
            if patterns.is_empty() {
                patterns.push(rng.gen_index(num_patterns));
            }
            entries.push((cell, patterns));
        }
    }
    if entries.is_empty() {
        entries.push((rng.gen_index(config.total_cells()), vec![0]));
    }
    // Raw sources need not be sorted.
    for i in (1..entries.len()).rev() {
        entries.swap(i, rng.gen_index(i + 1));
    }
    XMapFacts {
        total_cells: config.total_cells(),
        num_patterns,
        entries,
    }
}

/// Injects `defect` into a clean entry list.
fn inject(rng: &mut XhcRng, facts: &mut XMapFacts, defect: Defect) {
    let at = rng.gen_index(facts.entries.len());
    match defect {
        Defect::CellOutOfRange => {
            facts.entries[at].0 = facts.total_cells + rng.gen_index(4);
        }
        Defect::PatternOutOfRange => {
            let p = facts.num_patterns + rng.gen_index(70);
            facts.entries[at].1.push(p);
        }
        Defect::RepeatedCell => {
            let cell = facts.entries[at].0;
            let extra = vec![rng.gen_index(facts.num_patterns)];
            facts
                .entries
                .insert(rng.gen_index(facts.entries.len() + 1), (cell, extra));
        }
        Defect::RepeatedPattern => {
            let patterns = &mut facts.entries[at].1;
            let p = patterns[rng.gen_index(patterns.len())];
            patterns.insert(rng.gen_index(patterns.len() + 1), p);
        }
    }
}

/// The wire form of a raw entry list, built section by section the way
/// `encode_xmap` lays out a map: entries sorted by cell (stably, so a
/// repeated cell stays repeated), one bitmap per entry wide enough for
/// its largest pattern, and the declared X count the list's length.
fn wire_form(config: &ScanConfig, facts: &XMapFacts) -> Vec<u8> {
    let mut entries = facts.entries.clone();
    entries.sort_by_key(|(cell, _)| *cell);
    let top = entries
        .iter()
        .flat_map(|(_, ps)| ps)
        .max()
        .map_or(0, |p| p + 1);
    let words = facts.num_patterns.max(top).div_ceil(64);

    let u64s = |vals: &[usize]| -> Vec<u8> {
        vals.iter()
            .flat_map(|&v| (v as u64).to_le_bytes())
            .collect()
    };
    let mut chains = vec![config.num_chains()];
    chains.extend((0..config.num_chains()).map(|c| config.chain_len(c)));
    let declared_x: usize = entries.iter().map(|(_, ps)| ps.len()).sum();
    let meta = [facts.num_patterns, entries.len(), declared_x];
    let cells: Vec<u8> = entries
        .iter()
        .flat_map(|(cell, _)| (*cell as u32).to_le_bytes())
        .collect();
    let mut xsets = Vec::new();
    for (_, patterns) in &entries {
        let mut bitmap = vec![0u64; words];
        for &p in patterns {
            bitmap[p / 64] |= 1 << (p % 64);
        }
        xsets.extend(bitmap.iter().flat_map(|w| w.to_le_bytes()));
    }
    let sections = [u64s(&chains), u64s(&meta), cells, xsets];

    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&2u16.to_le_bytes()); // Kind::XMap
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (tag, payload) in (1u32..).zip(&sections) {
        out.extend_from_slice(&tag.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    }
    for payload in &sections {
        out.extend_from_slice(payload);
    }
    out
}

/// The `xmap v1` text form of a raw entry list, entries in list order.
fn text_form(config: &ScanConfig, facts: &XMapFacts) -> String {
    let lengths: Vec<String> = (0..config.num_chains())
        .map(|c| config.chain_len(c).to_string())
        .collect();
    let mut text = format!(
        "xmap v1\nchains {}\npatterns {}\n",
        lengths.join(" "),
        facts.num_patterns
    );
    for (cell, patterns) in &facts.entries {
        let patterns: Vec<String> = patterns.iter().map(usize::to_string).collect();
        text.push_str(&format!("x {cell} : {}\n", patterns.join(" ")));
    }
    text
}

/// The map a clean entry list describes.
fn xmap_of(config: &ScanConfig, facts: &XMapFacts) -> XMap {
    let mut b = XMapBuilder::new(config.clone(), facts.num_patterns);
    for (cell, patterns) in &facts.entries {
        for &p in patterns {
            b.add_x(config.cell_at(*cell), p).unwrap();
        }
    }
    b.finish()
}

fn flags(facts: &XMapFacts, code: LintCode) -> bool {
    check_xmap_facts(&LintConfig::default(), facts)
        .diagnostics
        .iter()
        .any(|d| d.code == code)
}

#[test]
fn clean_entry_lists_have_a_faithful_wire_form() {
    // Guards the hand-built encoder: on clean input it must produce the
    // exact canonical bytes, so its rejections below are the decoder's.
    let mut rng = XhcRng::seed_from_u64(0xDEC0_0001);
    for _ in 0..200 {
        let config = random_config(&mut rng);
        let facts = random_clean_facts(&mut rng, &config);
        assert!(check_xmap_facts(&LintConfig::default(), &facts).is_empty());
        let xmap = xmap_of(&config, &facts);
        let wire = wire_form(&config, &facts);
        assert_eq!(wire, encode_xmap(&xmap), "{facts:?}");
        assert_eq!(decode_xmap(&wire).unwrap(), xmap);
        assert_eq!(
            read_xmap(text_form(&config, &facts).as_bytes()).unwrap(),
            xmap
        );
    }
}

#[test]
fn every_flagged_entry_list_is_rejected_by_the_decoders() {
    let mut rng = XhcRng::seed_from_u64(0xDEC0_0002);
    let mut seen = [0usize; DEFECTS.len()];
    for _ in 0..2000 {
        let config = random_config(&mut rng);
        let mut facts = random_clean_facts(&mut rng, &config);
        let mut injected = Vec::new();
        for _ in 0..rng.gen_range(1..3usize) {
            let k = rng.gen_index(DEFECTS.len());
            inject(&mut rng, &mut facts, DEFECTS[k]);
            injected.push(DEFECTS[k]);
        }
        let out_of_range = flags(&facts, LintCode::XOutOfRange);
        let duplicate = flags(&facts, LintCode::DuplicateX);
        // A later defect may move an earlier one out of view (a cell
        // pushed out of range is no longer the repeated cell), but any
        // injected list is flagged by at least one of the two rules.
        assert!(
            out_of_range || duplicate,
            "{injected:?} unflagged: {facts:?}"
        );
        let wire = decode_xmap(&wire_form(&config, &facts));
        let text = read_xmap(text_form(&config, &facts).as_bytes());
        if let [defect] = injected[..] {
            // Alone, each defect is flagged by its own rule, and both
            // decoders reject it naming that rule.
            let own_rule = match defect {
                Defect::CellOutOfRange | Defect::PatternOutOfRange => LintCode::XOutOfRange,
                Defect::RepeatedCell | Defect::RepeatedPattern => LintCode::DuplicateX,
            };
            assert!(
                flags(&facts, own_rule),
                "{defect:?} not flagged by its rule: {facts:?}"
            );
            let wire_code = wire.as_ref().map_err(|e| e.code());
            assert_eq!(wire_code, Err(Some(own_rule)), "{defect:?}: {facts:?}");
            let text_code = text.as_ref().map_err(|e| e.code());
            assert_eq!(text_code, Err(Some(own_rule)), "{defect:?}: {facts:?}");
            seen[defect as usize] += 1;
        }

        assert!(
            wire.is_err(),
            "decode_xmap accepted {injected:?}: {facts:?}"
        );
        assert!(text.is_err(), "read_xmap accepted {injected:?}: {facts:?}");
    }
    // Every defect kind was exercised alone many times.
    assert!(seen.iter().all(|&n| n >= 100), "{seen:?}");
}

#[test]
fn check_xmap_is_the_scan_config_rule() {
    let mut rng = XhcRng::seed_from_u64(0xDEC0_0003);
    let config = LintConfig::default();
    let mut imbalanced = 0;
    for _ in 0..200 {
        let scan = random_config(&mut rng);
        let xmap = xmap_of(&scan, &random_clean_facts(&mut rng, &scan));
        let report = check_xmap(&config, &xmap);
        assert_eq!(report, check_scan_config(&config, xmap.config()));
        if !report.is_empty() {
            assert_eq!(report.diagnostics[0].code, LintCode::ChainImbalance);
            imbalanced += 1;
        }
    }
    // Ragged configs reach the daemon's gate through this rule.
    assert!(
        imbalanced > 20,
        "only {imbalanced} ragged configs fired XL0201"
    );
}
