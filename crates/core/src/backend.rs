//! One planning API over the fleet of compaction backends.
//!
//! The paper's hybrid architecture is one point in a design space of
//! X-tolerant response-compaction schemes. This module plans every scheme
//! the workspace knows through one call, [`BackendId::plan`], so the CLI,
//! the wire format and the planning daemon can treat them uniformly:
//!
//! | id | scheme | control bits |
//! |----|--------|--------------|
//! | [`BackendId::Hybrid`] | the paper's partitioned masking + X-canceling MISR | `L·C·#partitions + m·q·leakedX/(m−q)` |
//! | [`BackendId::MaskingOnly`] | conventional per-pattern X-masking \[5\] | `L·C·P` |
//! | [`BackendId::CancelingOnly`] | X-canceling MISR only \[12\] | `m·q·totalX/(m−q)` |
//! | [`BackendId::Superset`] | superset-X-canceling clustering \[17, 18\] | per-cluster canceling bits |
//! | [`BackendId::XCode`] | weight-3 X-code combinational compactor (Fujiwara & Colbourn, arXiv:1508.00481) | `0` — pays in lost observability instead |
//!
//! Every backend plans from an [`XMap`] plus the MISR configuration and
//! fills the same [`BackendReport`]: total control bits, the observed-X
//! account (masked / leaked / lost), and — for backends that produce a
//! partition plan — the [`PartitionOutcome`] certificate hook.
//!
//! # Examples
//!
//! ```
//! use xhc_core::{BackendId, PlanOptions};
//! use xhc_misr::XCancelConfig;
//! use xhc_scan::{CellId, ScanConfig, XMapBuilder};
//!
//! let mut b = XMapBuilder::new(ScanConfig::uniform(4, 4), 8);
//! b.add_x(CellId::new(0, 0), 3).unwrap();
//! let xmap = b.finish();
//!
//! for id in BackendId::ALL {
//!     let report = id.plan(&xmap, XCancelConfig::new(10, 2), &PlanOptions::default());
//!     assert_eq!(report.backend, id);
//!     // The observed-X account always balances.
//!     assert_eq!(report.masked_x + report.leaked_x, xmap.total_x());
//! }
//! ```

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::partition::{PartitionEngine, PartitionOutcome, PlanOptions};
use xhc_misr::{conventional_masking_bits, XCancelConfig};
use xhc_scan::XMap;

/// The stable identifier of a planning backend.
///
/// The lowercase [`name`](BackendId::name) is the token used by
/// `xhybrid plan --backend`, the daemon's `backend=` query parameter and
/// the `GET /v1/backends` listing; the wire format pins one byte per
/// variant (in `xhc-wire`'s plan-request codec), with
/// [`BackendId::Hybrid`] at code 0 so default-options requests hash
/// identically to pre-backend builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendId {
    /// The paper's hybrid: partitioned X-masking + X-canceling MISR.
    #[default]
    Hybrid,
    /// Conventional per-pattern X-masking only (baseline \[5\]).
    MaskingOnly,
    /// X-canceling MISR only (baseline \[12\]).
    CancelingOnly,
    /// Superset-X-canceling pattern clustering (\[17, 18\]).
    Superset,
    /// Weight-3 X-code combinational compactor (arXiv:1508.00481).
    XCode,
}

impl BackendId {
    /// Every backend, in capability-listing order (hybrid first).
    pub const ALL: [BackendId; 5] = [
        BackendId::Hybrid,
        BackendId::MaskingOnly,
        BackendId::CancelingOnly,
        BackendId::Superset,
        BackendId::XCode,
    ];

    /// The stable lowercase token (CLI flag value, query parameter,
    /// `GET /v1/backends` id).
    pub fn name(self) -> &'static str {
        match self {
            BackendId::Hybrid => "hybrid",
            BackendId::MaskingOnly => "masking",
            BackendId::CancelingOnly => "canceling",
            BackendId::Superset => "superset",
            BackendId::XCode => "xcode",
        }
    }

    /// Parses a backend token as produced by [`BackendId::name`]; an
    /// unknown token is an error carrying the message the CLI and the
    /// daemon print.
    pub fn parse(s: &str) -> Result<BackendId, String> {
        BackendId::ALL
            .into_iter()
            .find(|b| b.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = BackendId::ALL.iter().map(|b| b.name()).collect();
                format!(
                    "`{s}` is not a backend (expected one of {})",
                    names.join(", ")
                )
            })
    }

    /// The backend's capability flags.
    pub fn caps(self) -> BackendCaps {
        match self {
            BackendId::Hybrid => BackendCaps {
                partitions: true,
                masking: true,
                canceling: true,
                lossless: true,
                uses_matrix: true,
            },
            BackendId::MaskingOnly => BackendCaps {
                partitions: false,
                masking: true,
                canceling: false,
                lossless: true,
                uses_matrix: false,
            },
            BackendId::CancelingOnly => BackendCaps {
                partitions: false,
                masking: false,
                canceling: true,
                lossless: true,
                uses_matrix: false,
            },
            BackendId::Superset => BackendCaps {
                partitions: false,
                masking: false,
                canceling: true,
                lossless: false,
                uses_matrix: false,
            },
            BackendId::XCode => BackendCaps {
                partitions: false,
                masking: false,
                canceling: false,
                lossless: false,
                uses_matrix: false,
            },
        }
    }

    /// Plans `xmap` under `cancel` with this backend and returns the
    /// uniform report. Total: it never fails and never panics on a
    /// well-formed map.
    ///
    /// Only the hybrid reads `opts` (every engine knob; `opts.backend` is
    /// not consulted) and only the X-canceling schemes read `cancel`. The
    /// superset baseline clusters at [`SUPERSET_BACKEND_SLACK`].
    pub fn plan(self, xmap: &XMap, cancel: XCancelConfig, opts: &PlanOptions) -> BackendReport {
        let total_x = xmap.total_x();
        let uncertified = |control_bits, masked_x, lost_observability| BackendReport {
            backend: self,
            control_bits,
            masked_x,
            leaked_x: total_x - masked_x,
            lost_observability,
            outcome: None,
        };
        match self {
            BackendId::Hybrid => {
                BackendReport::hybrid(PartitionEngine::with_options(cancel, *opts).run(xmap))
            }
            BackendId::MaskingOnly => uncertified(
                conventional_masking_bits(xmap.config(), xmap.num_patterns()) as f64,
                total_x,
                0,
            ),
            BackendId::CancelingOnly => uncertified(cancel.control_bits(total_x), 0, 0),
            BackendId::Superset => superset_report(xmap, cancel, SUPERSET_BACKEND_SLACK),
            BackendId::XCode => uncertified(0.0, 0, xcode_lost_observability(xmap)),
        }
    }
}

impl fmt::Display for BackendId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a backend can and cannot do — the capability flags behind
/// `GET /v1/backends`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendCaps {
    /// Produces a partition plan (so a [`PartitionOutcome`] rides in the
    /// report and a plan certificate can be derived from it).
    pub partitions: bool,
    /// Gates responses with per-pattern (or per-partition) mask words.
    pub masking: bool,
    /// Feeds an X-canceling MISR (so `m`/`q` matter to its cost).
    pub canceling: bool,
    /// Preserves the observability of every non-X response bit.
    pub lossless: bool,
    /// Sweeps the X map's packed `cells × patterns` rows
    /// ([`XMap::to_bitmatrix`]) with the word-level superset kernel.
    pub uses_matrix: bool,
}

/// The uniform result every backend returns: the control-bit total, the
/// observed-X account and (for partitioning backends) the certificate
/// hook.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendReport {
    /// Which backend produced this report.
    pub backend: BackendId,
    /// Total control bits the scheme spends on this workload — the
    /// paper's comparison axis.
    pub control_bits: f64,
    /// X's removed before the observation path. With
    /// [`BackendReport::leaked_x`] this partitions the map's total X
    /// count: `masked_x + leaked_x == xmap.total_x()` for every backend.
    pub masked_x: usize,
    /// X's entering the observation path (the MISR, or the X-code
    /// compactor's outputs).
    pub leaked_x: usize,
    /// Non-X response bits whose observability the scheme sacrifices
    /// (0 for lossless backends; the superset baseline and the X-code
    /// compactor pay here instead of in control bits).
    pub lost_observability: usize,
    /// The certificate hook: the partition plan behind the numbers, for
    /// backends whose [`BackendCaps::partitions`] is set. `xhc-wire` can
    /// encode it and derive a checkable [`PlanCertificate`] from it.
    ///
    /// [`PlanCertificate`]: https://docs.rs/xhc-wire
    pub outcome: Option<PartitionOutcome>,
}

impl BackendReport {
    /// The hybrid's report of an already-computed plan: a read of
    /// `outcome.cost`, without re-running the engine. The daemon's race
    /// reports a cached plan through this under the same accounting as a
    /// fresh [`BackendId::plan`] call. Judging the plan (cover, mask
    /// safety, cost) is `xhc-verify`'s job, not this report's.
    pub fn hybrid(outcome: PartitionOutcome) -> BackendReport {
        BackendReport {
            backend: BackendId::Hybrid,
            control_bits: outcome.cost.total(),
            masked_x: outcome.cost.masked_x,
            leaked_x: outcome.cost.leaked_x,
            lost_observability: 0,
            outcome: Some(outcome),
        }
    }

    /// Normalized test time of this scheme per the paper's §5 formula:
    /// the X-density fed to [`XCancelConfig::normalized_test_time`] is
    /// this report's leaked X's over the map's response bits. `xmap` and
    /// `cancel` must be the ones the report was planned from.
    pub fn normalized_test_time(&self, xmap: &XMap, cancel: XCancelConfig) -> f64 {
        let bits = xmap.config().total_cells() as f64 * xmap.num_patterns() as f64;
        let density = if bits > 0.0 {
            self.leaked_x as f64 / bits
        } else {
            0.0
        };
        cancel.normalized_test_time(xmap.config().num_chains(), density)
    }
}

/// The merge slack [`BackendId::Superset`] plans with through
/// [`BackendId::plan`] (the CLI, the daemon and the race);
/// [`superset_report`] plans at any other slack.
pub const SUPERSET_BACKEND_SLACK: f64 = 0.25;

/// The superset-X-canceling report of `xmap` with the patterns clustered
/// at `merge_slack`.
///
/// This is a faithful-in-spirit re-implementation of the *accounting* of
/// \[17, 18\]: patterns are greedily clustered by X-location similarity;
/// each cluster's selective-XOR control data is computed once for the
/// union of its X locations and reused by every member pattern. A pattern
/// joins the cluster whose union grows least, when that growth is at most
/// `merge_slack × |pattern's X cells|` (0.0 = only identical-or-subset
/// merges; larger = more aggressive merging and more lost
/// observability). It is documented as an approximation in `DESIGN.md`
/// (the original's exact merge heuristic is not published in the DAC'16
/// paper).
///
/// Unlike the paper's proposed method, merging a pattern whose X set is a
/// *proper subset* of the cluster union treats some of its non-X values
/// as X — `lost_observability` counts those positions, which is exactly
/// why \[17, 18\] need iterative fault simulation and the proposed method
/// does not. Every X reaches the MISR (`leaked`), X-free patterns join no
/// cluster and cost nothing, and the total is rounded to 1/1000 bit.
pub fn superset_report(xmap: &XMap, cancel: XCancelConfig, merge_slack: f64) -> BackendReport {
    // Invert the map: X-cell set per pattern.
    let mut x_cells: Vec<Vec<usize>> = vec![Vec::new(); xmap.num_patterns()];
    for (cell, xs) in xmap.iter() {
        let idx = xmap.config().linear_index(cell);
        for p in xs.iter() {
            x_cells[p].push(idx);
        }
    }

    struct Cluster {
        union: HashSet<usize>,
        members: usize,
    }
    let mut clusters: Vec<Cluster> = Vec::new();
    let mut lost = 0usize;

    for xcells in x_cells.iter().filter(|xcells| !xcells.is_empty()) {
        // Find the cluster whose union grows least.
        let mut best: Option<(usize, usize)> = None; // (cluster idx, growth)
        for (ci, cluster) in clusters.iter().enumerate() {
            let growth = xcells.iter().filter(|c| !cluster.union.contains(c)).count();
            if best.is_none_or(|(_, g)| growth < g) {
                best = Some((ci, growth));
            }
        }
        let budget = (merge_slack * xcells.len() as f64).floor() as usize;
        match best {
            Some((ci, growth)) if growth <= budget => {
                let cluster = &mut clusters[ci];
                // This pattern loses the union positions where it is
                // non-X; every existing member retroactively loses the
                // `growth` newly-added cells (none were in any member's X
                // set, by construction of the union).
                lost += cluster.union.len() + growth - xcells.len();
                lost += growth * cluster.members;
                cluster.union.extend(xcells.iter().copied());
                cluster.members += 1;
            }
            _ => clusters.push(Cluster {
                union: xcells.iter().copied().collect(),
                members: 1,
            }),
        }
    }

    // Summed up from +0.0 (`Sum` starts at -0.0, which an X-free map would
    // keep and print as "-0").
    let mut control_bits = 0.0f64;
    for cluster in &clusters {
        control_bits += cancel.control_bits(cluster.union.len());
    }
    BackendReport {
        backend: BackendId::Superset,
        control_bits: (control_bits * 1000.0).round() / 1000.0,
        masked_x: 0,
        leaked_x: xmap.total_x(),
        lost_observability: lost,
        outcome: None,
    }
}

/// The minimal output width for a weight-3 X-code over `chains` inputs:
/// the smallest `j >= 3` with `C(j,3) >= chains`.
pub fn xcode_output_width(chains: usize) -> usize {
    let mut j = 3usize;
    while j * (j - 1) * (j - 2) / 6 < chains {
        j += 1;
    }
    j
}

/// The distinct weight-3 columns assigned to chains `0..chains`, in
/// lexicographic order over output triples of `xcode_output_width`.
fn xcode_columns(chains: usize) -> Vec<[u16; 3]> {
    let j = xcode_output_width(chains) as u16;
    let mut columns = Vec::with_capacity(chains);
    'outer: for a in 0..j {
        for b in (a + 1)..j {
            for c in (b + 1)..j {
                columns.push([a, b, c]);
                if columns.len() == chains {
                    break 'outer;
                }
            }
        }
    }
    columns
}

/// The non-X response bits a weight-3 X-code compactor in the style of
/// Fujiwara & Colbourn (arXiv:1508.00481) cannot observe on `xmap`.
///
/// Each of the `C` scan chains feeds exactly three of `j` XOR outputs,
/// where `j` is [`xcode_output_width`] and every chain gets a *distinct*
/// 3-subset. Because two distinct 3-subsets share at most two outputs,
/// any single X per shift cycle leaves every other chain at least one
/// clean output — the classic 1-X-tolerance of X-codes — with **zero**
/// control bits. In a cycle with several X's, a chain whose three outputs
/// are all dirtied by X columns becomes unobservable; this counts exactly
/// those (pattern, cycle, chain) positions, sweeping only the cycles that
/// carry more than one X.
fn xcode_lost_observability(xmap: &XMap) -> usize {
    let config = xmap.config();
    let chains = config.num_chains();
    let columns = xcode_columns(chains);
    let column_of: HashMap<[u16; 3], usize> = columns
        .iter()
        .enumerate()
        .map(|(chain, &col)| (col, chain))
        .collect();

    // Group the map's X's by (pattern, cycle): only those cycles can dirty
    // outputs, so the sweep is O(total_x), not O(response bits).
    let mut x_chains: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
    for (cell, xs) in xmap.iter() {
        for p in xs.iter() {
            x_chains
                .entry((p, cell.position as usize))
                .or_default()
                .push(cell.chain as usize);
        }
    }

    let mut lost_total = 0usize;
    for (&(_, cycle), dirty_chains) in &x_chains {
        if dirty_chains.len() < 2 {
            // Weight-3 distinct columns: one X can cover at most two of
            // any other chain's three outputs.
            continue;
        }
        let mut dirty: Vec<u16> = dirty_chains.iter().flat_map(|&ch| columns[ch]).collect();
        dirty.sort_unstable();
        dirty.dedup();
        let d = dirty.len();
        // A chain is lost iff its whole column lies inside the dirty set.
        // Enumerate whichever is smaller: the C(d,3) triples of dirty
        // outputs, or the chains themselves.
        let triples = d * (d - 1) * (d - 2) / 6;
        let lost_here: usize = if triples <= chains {
            let mut lost = 0usize;
            for ai in 0..d {
                for bi in (ai + 1)..d {
                    for ci in (bi + 1)..d {
                        let col = [dirty[ai], dirty[bi], dirty[ci]];
                        if let Some(&chain) = column_of.get(&col) {
                            if cycle < config.chain_len(chain) && !dirty_chains.contains(&chain) {
                                lost += 1;
                            }
                        }
                    }
                }
            }
            lost
        } else {
            (0..chains)
                .filter(|&chain| {
                    cycle < config.chain_len(chain)
                        && !dirty_chains.contains(&chain)
                        && columns[chain]
                            .iter()
                            .all(|o| dirty.binary_search(o).is_ok())
                })
                .count()
        };
        lost_total += lost_here;
    }
    lost_total
}

#[cfg(test)]
mod tests {
    use super::*;
    use xhc_bits::PatternSet;
    use xhc_scan::samples::fig4_xmap;
    use xhc_scan::{CellId, ScanConfig, XMapBuilder};

    #[test]
    fn ids_name_parse_roundtrip() {
        for id in BackendId::ALL {
            assert_eq!(BackendId::parse(id.name()), Ok(id));
            assert_eq!(id.to_string(), id.name());
        }
        assert_eq!(
            BackendId::parse("nope"),
            Err(
                "`nope` is not a backend (expected one of hybrid, masking, canceling, superset, xcode)"
                    .to_string()
            )
        );
        assert_eq!(BackendId::default(), BackendId::Hybrid);
    }

    #[test]
    fn every_report_balances_the_x_account() {
        let xmap = fig4_xmap();
        for id in BackendId::ALL {
            let r = id.plan(&xmap, XCancelConfig::new(10, 2), &PlanOptions::default());
            assert_eq!(r.backend, id);
            assert_eq!(r.masked_x + r.leaked_x, xmap.total_x(), "{}", r.backend);
            assert_eq!(r.outcome.is_some(), id.caps().partitions);
            if id.caps().lossless {
                assert_eq!(r.lost_observability, 0, "{}", r.backend);
            }
        }
    }

    #[test]
    fn hybrid_backend_matches_the_engine() {
        let xmap = fig4_xmap();
        let r = BackendId::Hybrid.plan(&xmap, XCancelConfig::new(10, 2), &PlanOptions::default());
        assert!((r.control_bits - 57.5).abs() < 1e-9);
        assert_eq!(r.masked_x, 23);
        assert_eq!(r.leaked_x, 5);
        let outcome = r.outcome.expect("hybrid carries its plan");
        assert_eq!(outcome.partitions.len(), 3);
    }

    #[test]
    fn baseline_backends_match_fig4_numbers() {
        let xmap = fig4_xmap();
        let plan =
            |id: BackendId| id.plan(&xmap, XCancelConfig::new(10, 2), &PlanOptions::default());
        let masking = plan(BackendId::MaskingOnly);
        assert_eq!(masking.control_bits, 120.0);
        assert_eq!(masking.leaked_x, 0);
        let canceling = plan(BackendId::CancelingOnly);
        assert!((canceling.control_bits - 70.0).abs() < 1e-9);
        assert_eq!(canceling.masked_x, 0);
    }

    #[test]
    fn report_matches_fig6_numbers() {
        let xmap = fig4_xmap();
        let cancel = XCancelConfig::new(10, 2);
        let plan = |id: BackendId| id.plan(&xmap, cancel, &PlanOptions::default());
        let hybrid = plan(BackendId::Hybrid);
        let masking = plan(BackendId::MaskingOnly);
        let canceling = plan(BackendId::CancelingOnly);
        assert_eq!(hybrid.masked_x + hybrid.leaked_x, 28);
        assert_eq!(masking.control_bits, 120.0);
        assert!((hybrid.control_bits - 57.5).abs() < 1e-9);
        assert!(masking.control_bits / hybrid.control_bits > 2.0);
        // Canceling-only: 10*2*28/8 = 70 bits -> hybrid wins.
        assert!((canceling.control_bits - 70.0).abs() < 1e-9);
        assert!(canceling.control_bits / hybrid.control_bits > 1.2);
        // Residual X-density falls -> test time improves.
        let time_canceling_only = canceling.normalized_test_time(&xmap, cancel);
        let time_proposed = hybrid.normalized_test_time(&xmap, cancel);
        assert!(time_proposed < time_canceling_only);
        assert!(time_canceling_only / time_proposed > 1.0);
    }

    #[test]
    fn x_free_workload_degenerates_gracefully() {
        let cfg = ScanConfig::uniform(3, 3);
        let xmap = XMapBuilder::new(cfg, 10).finish();
        let cancel = XCancelConfig::paper_default();
        let plan = |id: BackendId| id.plan(&xmap, cancel, &PlanOptions::default());
        let hybrid = plan(BackendId::Hybrid);
        assert_eq!(hybrid.masked_x + hybrid.leaked_x, 0);
        assert_eq!(hybrid.outcome.as_ref().map(|o| o.partitions.len()), Some(1));
        assert_eq!(hybrid.normalized_test_time(&xmap, cancel), 1.0);
        assert_eq!(plan(BackendId::CancelingOnly).control_bits, 0.0);
    }

    /// A one-chain map: `sets` lists (cell index, X patterns).
    fn map_with(sets: &[(usize, &[usize])], patterns: usize) -> XMap {
        let cells = sets.iter().map(|&(c, _)| c).max().unwrap_or(0) + 1;
        let cfg = ScanConfig::uniform(1, cells);
        let mut b = XMapBuilder::new(cfg, patterns);
        for &(c, pats) in sets {
            b.add_xset(
                CellId::new(0, c),
                &PatternSet::from_patterns(patterns, pats.iter().copied()),
            );
        }
        b.finish()
    }

    fn superset_at(xmap: &XMap, merge_slack: f64) -> BackendReport {
        superset_report(xmap, XCancelConfig::new(10, 2), merge_slack)
    }

    #[test]
    fn identical_x_patterns_share_one_cluster() {
        // 4 patterns, all with the same two X cells -> one cluster, no
        // lost observability.
        let xmap = map_with(&[(0, &[0, 1, 2, 3]), (1, &[0, 1, 2, 3])], 4);
        let report = superset_at(&xmap, 0.0);
        assert_eq!(report.lost_observability, 0);
        // One cluster with |union| = 2 -> 10*2*2/8 = 5 bits (four
        // clusters would cost 20, as canceling only does for 8 X's).
        assert!((report.control_bits - 5.0).abs() < 1e-6);
    }

    #[test]
    fn disjoint_x_patterns_do_not_merge_at_zero_slack() {
        // Three singleton clusters at 2.5 bits each; any merge of
        // disjoint X sets would sacrifice observability.
        let xmap = map_with(&[(0, &[0]), (1, &[1]), (2, &[2])], 3);
        let report = superset_at(&xmap, 0.0);
        assert_eq!(report.lost_observability, 0);
        assert!((report.control_bits - 7.5).abs() < 1e-6);
    }

    #[test]
    fn slack_merges_at_observability_cost() {
        // Pattern 0 has X in cells {0,1}; pattern 1 in {0,2}. With slack
        // 0.5 they merge into one |union| = 3 cluster (7.5 bits, not the
        // 5 + 5 of two clusters); pattern 1 loses cell 1's value.
        let xmap = map_with(&[(0, &[0, 1]), (1, &[0]), (2, &[1])], 2);
        let report = superset_at(&xmap, 0.5);
        assert!((report.control_bits - 7.5).abs() < 1e-6);
        assert!(report.lost_observability > 0);
    }

    #[test]
    fn x_free_patterns_cost_nothing() {
        // One X under pattern 1 of 5: a single one-cell cluster (2.5
        // bits), the same as the pattern alone; the four X-free patterns
        // add nothing.
        let xmap = map_with(&[(0, &[1])], 5);
        let report = superset_at(&xmap, 0.0);
        assert!((report.control_bits - 2.5).abs() < 1e-6);
        let alone = superset_at(&map_with(&[(0, &[0])], 1), 0.0);
        assert_eq!(report.control_bits, alone.control_bits);
        assert_eq!(superset_at(&map_with(&[], 5), 0.0).control_bits, 0.0);
    }

    #[test]
    fn xcode_width_is_minimal() {
        assert_eq!(xcode_output_width(1), 3);
        assert_eq!(xcode_output_width(4), 4);
        assert_eq!(xcode_output_width(5), 5);
        assert_eq!(xcode_output_width(10), 5);
        assert_eq!(xcode_output_width(11), 6);
        for chains in 1..200 {
            let j = xcode_output_width(chains);
            assert!(j * (j - 1) * (j - 2) / 6 >= chains);
            if j > 3 {
                let j1 = j - 1;
                assert!(j1 * (j1 - 1) * (j1 - 2) / 6 < chains);
            }
            let cols = xcode_columns(chains);
            assert_eq!(cols.len(), chains);
            let distinct: std::collections::HashSet<_> = cols.iter().collect();
            assert_eq!(distinct.len(), chains, "columns must be distinct");
        }
    }

    #[test]
    fn xcode_tolerates_single_x_cycles() {
        // One X per (pattern, cycle) everywhere: nothing is lost.
        let cfg = ScanConfig::uniform(6, 4);
        let mut b = XMapBuilder::new(cfg, 5);
        for p in 0..5 {
            b.add_x(CellId::new(p % 6, p % 4), p).unwrap();
        }
        let xmap = b.finish();
        let r = BackendId::XCode.plan(
            &xmap,
            XCancelConfig::paper_default(),
            &PlanOptions::default(),
        );
        assert_eq!(r.control_bits, 0.0);
        assert_eq!(r.lost_observability, 0);
        assert_eq!(r.leaked_x, 5);
    }

    /// Lost observability by definition: every (pattern, cycle, chain)
    /// position holding a non-X value whose three outputs each carry an
    /// X from some other chain in that cycle.
    fn xcode_lost_by_sweep(xmap: &XMap) -> usize {
        let config = xmap.config();
        let chains = config.num_chains();
        let columns = xcode_columns(chains);
        let is_x = |p: usize, chain: usize, cycle: usize| {
            cycle < config.chain_len(chain)
                && xmap
                    .xset(CellId::new(chain, cycle))
                    .is_some_and(|xs| xs.contains(p))
        };
        let mut lost = 0;
        for p in 0..xmap.num_patterns() {
            for cycle in 0..config.max_chain_len() {
                for chain in (0..chains).filter(|&ch| cycle < config.chain_len(ch)) {
                    let blind = columns[chain].iter().all(|o| {
                        (0..chains).any(|other| is_x(p, other, cycle) && columns[other].contains(o))
                    });
                    if !is_x(p, chain, cycle) && blind {
                        lost += 1;
                    }
                }
            }
        }
        lost
    }

    #[test]
    fn xcode_lost_observability_equals_a_naive_sweep() {
        // Uneven chain lengths, so some chains have no cell in the last
        // cycles. 12 chains take 6 outputs (C(5,3) = 10 < 12 <= 20): a
        // cycle whose X's dirty at most 5 outputs is counted by
        // enumerating dirty triples, one dirtying all 6 by sweeping every
        // chain. Both branches must be reached.
        let mut rng = xhc_prng::XhcRng::seed_from_u64(0x3C0DE);
        let (mut triple_cycles, mut sweep_cycles) = (0, 0);
        for (chains, density) in [(12usize, 0.08), (12, 0.25), (7, 0.15), (40, 0.05)] {
            let lengths: Vec<usize> = (0..chains).map(|_| rng.gen_range(3..9usize)).collect();
            let config = ScanConfig::new(lengths);
            let patterns = 24;
            let mut b = XMapBuilder::new(config.clone(), patterns);
            for cell in config.iter_cells() {
                for p in 0..patterns {
                    if rng.gen_bool(density) {
                        b.add_x(cell, p).unwrap();
                    }
                }
            }
            let xmap = b.finish();
            let columns = xcode_columns(chains);
            for p in 0..patterns {
                for cycle in 0..config.max_chain_len() {
                    let mut dirty: Vec<u16> = (0..chains)
                        .filter(|&ch| {
                            cycle < config.chain_len(ch)
                                && xmap
                                    .xset(CellId::new(ch, cycle))
                                    .is_some_and(|xs| xs.contains(p))
                        })
                        .flat_map(|ch| columns[ch])
                        .collect();
                    dirty.sort_unstable();
                    dirty.dedup();
                    let d = dirty.len();
                    if d > 3 {
                        if d * (d - 1) * (d - 2) / 6 <= chains {
                            triple_cycles += 1;
                        } else {
                            sweep_cycles += 1;
                        }
                    }
                }
            }
            let r = BackendId::XCode.plan(
                &xmap,
                XCancelConfig::paper_default(),
                &PlanOptions::default(),
            );
            assert_eq!(
                r.lost_observability,
                xcode_lost_by_sweep(&xmap),
                "{chains} chains at density {density}"
            );
        }
        assert!(
            triple_cycles > 0 && sweep_cycles > 0,
            "triples {triple_cycles}, sweeps {sweep_cycles}"
        );
    }

    #[test]
    fn xcode_loses_fully_covered_chains() {
        // 4 chains -> j = 4, columns are the four 3-subsets of {0,1,2,3}.
        // X's on chains 0, 1, 2 in the same cycle dirty all four outputs,
        // so chain 3 (non-X there) is unobservable in that cycle.
        let cfg = ScanConfig::uniform(4, 2);
        let mut b = XMapBuilder::new(cfg, 1);
        for chain in 0..3 {
            b.add_x(CellId::new(chain, 0), 0).unwrap();
        }
        let xmap = b.finish();
        let r = BackendId::XCode.plan(
            &xmap,
            XCancelConfig::paper_default(),
            &PlanOptions::default(),
        );
        assert_eq!(r.lost_observability, 1);
    }
}
