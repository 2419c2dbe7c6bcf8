//! Dataflow ablation variants (paper Fig. 12).

use gen_nerf_dram::FeatureLayout;
use serde::{Deserialize, Serialize};

/// The four configurations benchmarked in Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataflowVariant {
    /// Full Gen-NeRF: greedy 3D-point-patch partition + spatial
    /// interleaving.
    Ours,
    /// No adaptive dataflow: fixed `{k, k, D}` patches sliced along
    /// rows/columns, spatially interleaved storage.
    Var1,
    /// Var-1 plus row-major feature storage (Fig. 6 (a)).
    Var2,
    /// Var-1 plus view-wise interleaved storage.
    Var3,
}

impl DataflowVariant {
    /// All variants in Fig. 12 order.
    pub fn all() -> [DataflowVariant; 4] {
        [
            DataflowVariant::Var1,
            DataflowVariant::Var2,
            DataflowVariant::Var3,
            DataflowVariant::Ours,
        ]
    }

    /// Whether the greedy partition is used (vs the fixed shape).
    pub(crate) fn uses_greedy_partition(self) -> bool {
        matches!(self, DataflowVariant::Ours)
    }

    /// The DRAM/SRAM feature layout the variant stores features with.
    pub fn layout(self) -> FeatureLayout {
        match self {
            DataflowVariant::Ours | DataflowVariant::Var1 => FeatureLayout::SpatialInterleave,
            DataflowVariant::Var2 => FeatureLayout::RowMajor,
            DataflowVariant::Var3 => FeatureLayout::ViewInterleave,
        }
    }

    /// Display label matching the figure.
    pub fn label(self) -> &'static str {
        match self {
            DataflowVariant::Ours => "Ours",
            DataflowVariant::Var1 => "Var-1",
            DataflowVariant::Var2 => "Var-2",
            DataflowVariant::Var3 => "Var-3",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ours_is_greedy_and_interleaved() {
        assert!(DataflowVariant::Ours.uses_greedy_partition());
        assert_eq!(
            DataflowVariant::Ours.layout(),
            FeatureLayout::SpatialInterleave
        );
    }

    #[test]
    fn variants_fix_the_partition() {
        for v in [
            DataflowVariant::Var1,
            DataflowVariant::Var2,
            DataflowVariant::Var3,
        ] {
            assert!(!v.uses_greedy_partition());
        }
    }

    #[test]
    fn layouts_match_figure_12() {
        assert_eq!(
            DataflowVariant::Var1.layout(),
            FeatureLayout::SpatialInterleave
        );
        assert_eq!(DataflowVariant::Var2.layout(), FeatureLayout::RowMajor);
        assert_eq!(
            DataflowVariant::Var3.layout(),
            FeatureLayout::ViewInterleave
        );
    }

    #[test]
    fn labels_unique() {
        let labels: std::collections::HashSet<_> =
            DataflowVariant::all().iter().map(|v| v.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
