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
    ///
    /// # Panics
    ///
    /// Panics unless `banks` and `row_bytes` are powers of two.
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
///
/// Bank counts and row sizes are powers of two, as on every DRAM part,
/// so each modulo and quotient of a placement is a mask and a shift.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Placement {
    layout: FeatureLayout,
    width: u32,
    height: u32,
    feat_bytes: u64,
    /// `banks − 1` and `log2(banks)`.
    bank_mask: u64,
    bank_bits: u32,
    /// `log2(row_bytes)`.
    row_bits: u32,
    /// The 2D bank tile (`SpatialInterleave`), `bx × by`, as masks
    /// (`bx − 1`, `by − 1`) and `log2` of each side.
    bx_mask: u32,
    by_mask: u32,
    bx_bits: u32,
    by_bits: u32,
    /// Texels of one view's feature map, and bank tiles per feature-map
    /// row and per view.
    view_texels: u64,
    tiles_w: u64,
    view_tiles: u64,
}

impl Placement {
    /// # Panics
    ///
    /// Panics unless `banks` and `row_bytes` are powers of two.
    pub(crate) fn new(
        layout: FeatureLayout,
        width: u32,
        height: u32,
        feat_bytes: u64,
        banks: usize,
        row_bytes: u64,
    ) -> Self {
        assert!(
            banks.is_power_of_two() && row_bytes.is_power_of_two(),
            "{banks} banks of {row_bytes}-byte rows: both must be powers of two"
        );
        let bank_bits = banks.trailing_zeros();
        let bx_bits = bank_tile_width(banks).trailing_zeros();
        let by_bits = bank_bits - bx_bits;
        let tiles_w = width.div_ceil(1 << bx_bits) as u64;
        let tiles_h = height.div_ceil(1 << by_bits) as u64;
        Self {
            layout,
            width,
            height,
            feat_bytes,
            bank_mask: banks as u64 - 1,
            bank_bits,
            row_bits: row_bytes.trailing_zeros(),
            bx_mask: (1 << bx_bits) - 1,
            by_mask: (1 << by_bits) - 1,
            bx_bits,
            by_bits,
            view_texels: width as u64 * height as u64,
            tiles_w,
            view_tiles: tiles_w * tiles_h,
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
        let (view, width) = (view as u64, self.width as u64);
        match self.layout {
            FeatureLayout::RowMajor => {
                // Banks striped by DRAM row: consecutive addresses fill a
                // row, then move to the next bank.
                let linear_texel = view * self.view_texels + y as u64 * width + x as u64;
                let dram_row_global = (linear_texel * self.feat_bytes) >> self.row_bits;
                let bank = (dram_row_global & self.bank_mask) as usize;
                (bank, dram_row_global >> self.bank_bits)
            }
            FeatureLayout::SpatialInterleave => {
                // 2D bank tile: bank = f(x mod bx, y mod by) so any
                // bx×by neighbourhood touches all banks; row derived
                // from the tile-local linear address.
                let bank = ((x & self.bx_mask) + ((y & self.by_mask) << self.bx_bits)) as usize;
                // Within a bank, texels appear every (bx, by) steps.
                let tx = (x >> self.bx_bits) as u64;
                let ty = (y >> self.by_bits) as u64;
                let local = view * self.view_tiles + ty * self.tiles_w + tx;
                (bank, (local * self.feat_bytes) >> self.row_bits)
            }
            FeatureLayout::ViewInterleave => {
                let bank = (view & self.bank_mask) as usize;
                let local = (y as u64 * width + x as u64) * self.feat_bytes;
                (bank, local >> self.row_bits)
            }
        }
    }
}

/// Width of the 2D bank tile (`bx`) for a power-of-two bank count: the
/// larger side of the squarest power-of-two split, `2^⌈log2(banks) / 2⌉`.
fn bank_tile_width(banks: usize) -> u32 {
    1 << banks.trailing_zeros().div_ceil(2)
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

    /// The divide form every placement was computed in before banks
    /// and rows were restricted to powers of two, with the original
    /// tile-width search: the oracle the shift form must equal.
    fn place_by_divide(
        layout: FeatureLayout,
        (view, x, y): (usize, u32, u32),
        (width, height, feat_bytes): (u32, u32, u64),
        (banks, row_bytes): (usize, u64),
    ) -> (usize, u64) {
        let mut bx = 1u32;
        while (bx * bx * 4) as usize <= banks * 2
            && ((bx * 2) as usize) <= banks
            && banks.is_multiple_of((bx * 2) as usize)
            && ((bx * 2) * (bx * 2)) as usize <= banks * 2
        {
            bx *= 2;
        }
        let by = banks as u32 / bx;
        let (w, h) = (width as u64, height as u64);
        match layout {
            FeatureLayout::RowMajor => {
                let linear_texel = view as u64 * (w * h) + y as u64 * w + x as u64;
                let dram_row_global = linear_texel * feat_bytes / row_bytes;
                (
                    (dram_row_global % banks as u64) as usize,
                    dram_row_global / banks as u64,
                )
            }
            FeatureLayout::SpatialInterleave => {
                let bank = ((x % bx) + (y % by) * bx) as usize;
                let (tiles_w, tiles_h) = (width.div_ceil(bx) as u64, height.div_ceil(by) as u64);
                let local =
                    view as u64 * tiles_w * tiles_h + (y / by) as u64 * tiles_w + (x / bx) as u64;
                (bank, local * feat_bytes / row_bytes)
            }
            FeatureLayout::ViewInterleave => (
                view % banks,
                (y as u64 * w + x as u64) * feat_bytes / row_bytes,
            ),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn prop_shift_placement_matches_the_divide_form(
            bank_bits in 0u32..7,
            row_bits in 6u32..14,
            dims in (1u32..300, 1u32..300, 1u64..65),
            view in 0usize..8,
            texels in proptest::collection::vec((0u32..1 << 16, 0u32..1 << 16), 1..24),
        ) {
            let (width, height, feat_bytes) = dims;
            let (banks, row_bytes) = (1usize << bank_bits, 1u64 << row_bits);
            // Every corner of the map, then texels anywhere on it.
            let corners = [(0, 0), (width - 1, 0), (0, height - 1), (width - 1, height - 1)];
            let texels = corners
                .into_iter()
                .chain(texels.iter().map(|&(x, y)| (x % width, y % height)));
            for layout in FeatureLayout::all() {
                let placement = Placement::new(layout, width, height, feat_bytes, banks, row_bytes);
                for (x, y) in texels.clone() {
                    let oracle = place_by_divide(
                        layout,
                        (view, x, y),
                        (width, height, feat_bytes),
                        (banks, row_bytes),
                    );
                    proptest::prop_assert_eq!(
                        placement.place(view, x, y),
                        oracle,
                        "{:?} at ({}, {}, {}) on {}x{}x{} B, {} banks of {} B",
                        layout, view, x, y, width, height, feat_bytes, banks, row_bytes
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn a_bank_count_that_is_not_a_power_of_two_panics() {
        let _ = FeatureLayout::SpatialInterleave.place(0, 0, 0, W, H, FEAT, 6, ROW);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn a_row_size_that_is_not_a_power_of_two_panics() {
        let _ = FeatureLayout::RowMajor.place(0, 0, 0, W, H, FEAT, BANKS, 1536);
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
