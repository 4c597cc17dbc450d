//! The paper's worked example, shared by the workspace's tests, benches
//! and lint presets.

use crate::{CellId, ScanConfig, XMap, XMapBuilder};

/// The paper's Fig. 4 X map: 5 chains of 3 cells and 8 patterns (P1..P8
/// are patterns 0..7), with 28 X's on 7 cells:
///
/// | cell | X under |
/// |------|---------|
/// | `SC1[0]`, `SC2[0]`, `SC3[0]` | P1, P4, P5, P6 |
/// | `SC2[2]` | P1, P5 |
/// | `SC4[2]` | P1, P2, P3, P4, P5, P7, P8 |
/// | `SC5[1]` | P1, P2, P4, P5, P7, P8 |
/// | `SC5[2]` | P6 |
///
/// # Examples
///
/// ```
/// let xmap = xhc_scan::samples::fig4_xmap();
/// assert_eq!(xmap.total_x(), 28);
/// assert_eq!(xmap.num_x_cells(), 7);
/// ```
pub fn fig4_xmap() -> XMap {
    let cells: [(usize, usize, &[usize]); 7] = [
        (0, 0, &[0, 3, 4, 5]),
        (1, 0, &[0, 3, 4, 5]),
        (2, 0, &[0, 3, 4, 5]),
        (1, 2, &[0, 4]),
        (3, 2, &[0, 1, 2, 3, 4, 6, 7]),
        (4, 1, &[0, 1, 3, 4, 6, 7]),
        (4, 2, &[5]),
    ];
    let mut b = XMapBuilder::new(ScanConfig::uniform(5, 3), 8);
    for (chain, pos, patterns) in cells {
        for &p in patterns {
            b.add_x(CellId::new(chain, pos), p)
                .expect("Fig. 4 cells and patterns are in range");
        }
    }
    b.finish()
}
