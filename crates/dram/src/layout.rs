//! Scene-feature storage layouts (paper Fig. 6 and Fig. 12's Var-2/3).
//!
//! Scene features form an `S × H_s × W_s × C` tensor in DRAM. How the
//! `(view, x, y)` coordinate maps to a `(bank, row)` pair decides
//! whether the spatially local fetches of a point patch collide on a
//! bank:
//!
//! * [`FeatureLayout::RowMajor`] — features stored row by row
//!   (Fig. 6 (a)): an epipolar-line fetch spanning few image rows lands
//!   on few banks → conflicts (this is *Var-2* in Fig. 12).
//! * [`FeatureLayout::SpatialInterleave`] — the proposed layout
//!   (Fig. 6 (b)): neighbouring texels go to different banks via a 2D
//!   bank tile, so a local 2D region spreads across all banks.
//! * [`FeatureLayout::ViewInterleave`] — banks assigned per source view
//!   (*Var-3*): every fetch for one view hits one bank.

#![allow(clippy::too_many_arguments)] // placement takes a coordinate bundle

use serde::{Deserialize, Serialize};

/// A placement policy mapping feature coordinates to DRAM banks/rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureLayout {
    /// Row-wise storage (Fig. 6 (a); Var-2 baseline).
    RowMajor,
    /// Spatially interleaved storage (Fig. 6 (b); the proposed layout).
    SpatialInterleave,
    /// View-wise interleaving (Var-3 baseline).
    ViewInterleave,
}

impl FeatureLayout {
    /// All layouts in Fig. 12's ablation order.
    pub fn all() -> [FeatureLayout; 3] {
        [
            FeatureLayout::RowMajor,
            FeatureLayout::SpatialInterleave,
            FeatureLayout::ViewInterleave,
        ]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            FeatureLayout::RowMajor => "row-major",
            FeatureLayout::SpatialInterleave => "spatial-interleave",
            FeatureLayout::ViewInterleave => "view-interleave",
        }
    }

    /// Maps a feature-map texel to `(bank, row)`.
    ///
    /// * `view, x, y` — source view index and texel coordinates,
    /// * `width, height` — feature-map dimensions,
    /// * `feat_bytes` — bytes per texel (C channels × element size),
    /// * `banks` — number of DRAM banks,
    /// * `row_bytes` — bytes per DRAM row.
    pub fn place(
        self,
        view: usize,
        x: u32,
        y: u32,
        width: u32,
        height: u32,
        feat_bytes: u64,
        banks: usize,
        row_bytes: u64,
    ) -> (usize, u64) {
        Placement::new(self, width, height, feat_bytes, banks, row_bytes).place(view, x, y)
    }
}

/// A layout bound to one feature-map geometry and device: everything
/// [`FeatureLayout::place`] derives from its arguments other than the
/// texel itself, worked out once so a device placing hundreds of
/// thousands of requests does not redo it per access.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Placement {
    layout: FeatureLayout,
    width: u32,
    height: u32,
    feat_bytes: u64,
    banks: usize,
    row_bytes: u64,
    /// 2D bank tile (`SpatialInterleave`).
    bx: u32,
    by: u32,
    /// Bank tiles per feature-map row / column.
    tiles_w: u64,
    tiles_h: u64,
}

impl Placement {
    pub(crate) fn new(
        layout: FeatureLayout,
        width: u32,
        height: u32,
        feat_bytes: u64,
        banks: usize,
        row_bytes: u64,
    ) -> Self {
        let bx = bank_tile_width(banks);
        let by = banks as u32 / bx;
        Self {
            layout,
            width,
            height,
            feat_bytes,
            banks,
            row_bytes,
            bx,
            by,
            tiles_w: width.div_ceil(bx) as u64,
            tiles_h: height.div_ceil(by) as u64,
        }
    }

    /// The layout being placed.
    pub(crate) fn layout(&self) -> FeatureLayout {
        self.layout
    }

    /// Feature-map dimensions `(width, height)`.
    pub(crate) fn dims(&self) -> (u32, u32) {
        (self.width, self.height)
    }

    /// `(bank, row)` of texel `(x, y)` of source view `view`.
    #[inline]
    pub(crate) fn place(&self, view: usize, x: u32, y: u32) -> (usize, u64) {
        debug_assert!(x < self.width && y < self.height, "texel out of range");
        let (width, height) = (self.width as u64, self.height as u64);
        match self.layout {
            FeatureLayout::RowMajor => {
                // Banks striped by DRAM row: consecutive addresses fill a
                // row, then move to the next bank.
                let linear_texel = view as u64 * (width * height) + y as u64 * width + x as u64;
                let dram_row_global = linear_texel * self.feat_bytes / self.row_bytes;
                let bank = (dram_row_global % self.banks as u64) as usize;
                let row = dram_row_global / self.banks as u64;
                (bank, row)
            }
            FeatureLayout::SpatialInterleave => {
                // 2D bank tile: bank = f(x mod bx, y mod by) so any
                // bx×by neighbourhood touches all banks; row derived
                // from the tile-local linear address.
                let (bx, by) = (self.bx, self.by);
                let bank = ((x % bx) + (y % by) * bx) as usize;
                // Within a bank, texels appear every (bx, by) steps.
                let tx = (x / bx) as u64;
                let ty = (y / by) as u64;
                let local = view as u64 * self.tiles_w * self.tiles_h + ty * self.tiles_w + tx;
                let row = local * self.feat_bytes / self.row_bytes;
                (bank, row)
            }
            FeatureLayout::ViewInterleave => {
                let bank = view % self.banks;
                let local = (y as u64 * width + x as u64) * self.feat_bytes;
                (bank, local / self.row_bytes)
            }
        }
    }
}

/// Width of the 2D bank tile (`bx`), the largest power-of-two divisor
/// `≤ √banks`.
fn bank_tile_width(banks: usize) -> u32 {
    let mut bx = 1u32;
    while (bx * bx * 4) as usize <= banks * 2 && ((bx * 2) as usize) <= banks {
        // grow while bx*2 divides banks and stays ≤ sqrt-ish
        if banks.is_multiple_of((bx * 2) as usize) && ((bx * 2) * (bx * 2)) as usize <= banks * 2 {
            bx *= 2;
        } else {
            break;
        }
    }
    bx
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    const W: u32 = 64;
    const H: u32 = 64;
    const FEAT: u64 = 32;
    const BANKS: usize = 8;
    const ROW: u64 = 2048;

    fn place(layout: FeatureLayout, view: usize, x: u32, y: u32) -> (usize, u64) {
        layout.place(view, x, y, W, H, FEAT, BANKS, ROW)
    }

    #[test]
    fn banks_in_range_for_all_layouts() {
        for layout in FeatureLayout::all() {
            for view in 0..4 {
                for y in (0..H).step_by(7) {
                    for x in (0..W).step_by(5) {
                        let (bank, _) = place(layout, view, x, y);
                        assert!(bank < BANKS, "{layout:?} bank {bank}");
                    }
                }
            }
        }
    }

    #[test]
    fn spatial_interleave_spreads_local_region() {
        // A 4×2 neighbourhood must touch all 8 banks.
        let mut banks = HashSet::new();
        for y in 10..12 {
            for x in 20..24 {
                banks.insert(place(FeatureLayout::SpatialInterleave, 0, x, y).0);
            }
        }
        assert_eq!(banks.len(), BANKS, "banks hit: {banks:?}");
    }

    #[test]
    fn row_major_concentrates_local_region() {
        // The same neighbourhood under row-major storage touches far
        // fewer banks (a 64-texel row is 2048 B = one DRAM row, so a few
        // image rows = a few banks).
        let mut banks = HashSet::new();
        for y in 10..12 {
            for x in 20..24 {
                banks.insert(place(FeatureLayout::RowMajor, 0, x, y).0);
            }
        }
        assert!(banks.len() <= 2, "banks hit: {banks:?}");
    }

    #[test]
    fn view_interleave_pins_view_to_bank() {
        let mut banks = HashSet::new();
        for y in (0..H).step_by(13) {
            for x in (0..W).step_by(11) {
                banks.insert(place(FeatureLayout::ViewInterleave, 2, x, y).0);
            }
        }
        assert_eq!(banks.len(), 1);
        assert_eq!(*banks.iter().next().unwrap(), 2 % BANKS);
    }

    #[test]
    fn distinct_views_separate_under_view_interleave() {
        let b0 = place(FeatureLayout::ViewInterleave, 0, 5, 5).0;
        let b1 = place(FeatureLayout::ViewInterleave, 1, 5, 5).0;
        assert_ne!(b0, b1);
    }

    #[test]
    fn placement_is_deterministic() {
        for layout in FeatureLayout::all() {
            assert_eq!(place(layout, 1, 33, 17), place(layout, 1, 33, 17));
        }
    }

    #[test]
    fn bank_tile_width_divides_banks() {
        for banks in [2usize, 4, 8, 16, 32] {
            let bx = bank_tile_width(banks) as usize;
            assert!(banks % bx == 0, "banks={banks} bx={bx}");
            assert!(bx >= 1);
        }
    }

    #[test]
    fn rows_advance_with_address() {
        // Two texels far apart in the same bank land on different rows.
        let (b1, r1) = place(FeatureLayout::RowMajor, 0, 0, 0);
        let (b2, r2) = place(FeatureLayout::RowMajor, 3, 0, 0);
        if b1 == b2 {
            assert_ne!(r1, r2);
        }
    }
}
