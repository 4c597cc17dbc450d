//! Operational masking: the partition plan applied to captured responses.

use crate::partition::PartitionOutcome;
use xhc_logic::Trit;
use xhc_scan::ResponseMatrix;

/// Applies the per-partition masks of an outcome to captured responses,
/// producing the stream the X-canceling MISR actually sees.
///
/// Masked positions read as `0` (AND gating). X's surviving in the output
/// are exactly the outcome's `leaked_x`.
///
/// # Panics
///
/// Panics if the response matrix and the outcome disagree on shape, or if
/// a pattern belongs to no partition.
pub fn apply_partition_masks(
    responses: &ResponseMatrix,
    outcome: &PartitionOutcome,
) -> ResponseMatrix {
    let config = responses.config().clone();
    let cells = config.total_cells();
    let mut rows: Vec<Vec<Trit>> = Vec::with_capacity(responses.num_patterns());
    for p in 0..responses.num_patterns() {
        let part = outcome
            .partitions
            .iter()
            .position(|set| set.contains(p))
            .unwrap_or_else(|| panic!("pattern {p} belongs to no partition"));
        let mask = &outcome.masks[part];
        let row: Vec<Trit> = (0..cells).map(|c| responses.get_linear(p, c)).collect();
        rows.push(mask.apply(&row));
    }
    ResponseMatrix::from_rows(config, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionEngine;
    use xhc_misr::XCancelConfig;
    use xhc_scan::samples::fig4_xmap;

    fn fig4_responses() -> ResponseMatrix {
        // Concrete responses consistent with the Fig. 4 X map: X where the
        // map says X, a deterministic 0/1 elsewhere.
        let xmap = fig4_xmap();
        let cfg = xmap.config().clone();
        let mut m = ResponseMatrix::filled(cfg.clone(), 8, Trit::Zero);
        for p in 0..8 {
            for idx in 0..cfg.total_cells() {
                let cell = cfg.cell_at(idx);
                let v = if xmap.is_x(p, cell) {
                    Trit::X
                } else {
                    Trit::from_bool((p + idx) % 2 == 0)
                };
                m.set(p, cell, v);
            }
        }
        m
    }

    #[test]
    fn masked_responses_leak_exactly_leaked_x() {
        let xmap = fig4_xmap();
        let responses = fig4_responses();
        let outcome = PartitionEngine::new(XCancelConfig::new(10, 2)).run(&xmap);
        let masked = apply_partition_masks(&responses, &outcome);
        assert_eq!(masked.total_x(), outcome.leaked_x());
        assert_eq!(masked.total_x(), 5);
    }

    #[test]
    fn masking_preserves_every_non_x_value_position() {
        // No observable value is gated: every known bit either passes
        // through unchanged or... nothing else. Masked positions were X.
        let xmap = fig4_xmap();
        let responses = fig4_responses();
        let outcome = PartitionEngine::new(XCancelConfig::new(10, 2)).run(&xmap);
        let masked = apply_partition_masks(&responses, &outcome);
        let cfg = responses.config();
        for p in 0..8 {
            for idx in 0..cfg.total_cells() {
                let orig = responses.get_linear(p, idx);
                let got = masked.get_linear(p, idx);
                if orig.is_known() {
                    assert_eq!(orig, got, "non-X value changed at ({p},{idx})");
                }
            }
        }
    }
}
