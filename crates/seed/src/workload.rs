//! Workload construction: from a genome pair to a filtered anchor list.
//!
//! Bundles stages 1-2 of the pipeline (seeding + filtering) with the
//! paper's methodology knobs (seed budget per benchmark) so that drivers,
//! the FastZ pipeline, and the bench harnesses all build identical
//! workloads.

use crate::anchor::{band_filter, find_anchors, sample_anchors, Anchor, AnchorSource};
use crate::index::SeedIndex;
use crate::shape::SeedShape;
use fastz_genome::Sequence;

/// Parameters for workload construction.
#[derive(Clone, Debug)]
pub struct WorkloadParams {
    /// Seed shape (default: LASTZ 12-of-19).
    pub shape: SeedShape,
    /// Maximum number of anchors after subsampling (0 = unlimited). The
    /// paper uses 1 M seed sites; scaled harnesses use less.
    pub max_anchors: usize,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams {
            shape: SeedShape::lastz_12of19(),
            max_anchors: 0,
        }
    }
}

/// A ready-to-extend workload: the anchor list plus construction stats.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Filtered, subsampled anchors.
    pub anchors: Vec<Anchor>,
    /// Raw anchor count before filtering.
    pub raw_anchors: usize,
    /// Anchor count after the band filter, before subsampling.
    pub filtered_anchors: usize,
    /// Seed shape used.
    pub shape: SeedShape,
}

impl Workload {
    /// Builds the workload for `(target, query)` under `params`.
    pub fn build(target: &Sequence, query: &Sequence, params: &WorkloadParams) -> Workload {
        let index = SeedIndex::build(target, params.shape.clone());
        Workload::build_with_index(&index, query, params)
    }

    /// Builds the workload for `query` against a prebuilt seed index —
    /// the service path, where one shared (possibly persisted, sharded)
    /// index serves many requests without a per-run rebuild. The shape
    /// comes from the index; `params.shape` is ignored.
    pub fn build_with_index<S: AnchorSource>(
        index: &S,
        query: &Sequence,
        params: &WorkloadParams,
    ) -> Workload {
        let raw = find_anchors(index, query);
        let filtered = band_filter(&raw);
        let filtered_anchors = filtered.len();
        // `filtered` moves into place when no budget applies — a deep
        // clone here doubled peak anchor memory for the common
        // unlimited-budget path.
        let anchors = if params.max_anchors > 0 {
            sample_anchors(&filtered, params.max_anchors)
        } else {
            filtered
        };
        Workload {
            raw_anchors: raw.len(),
            filtered_anchors,
            anchors,
            shape: index.shape().clone(),
        }
    }

    /// Number of seed-extension tasks.
    pub fn len(&self) -> usize {
        self.anchors.len()
    }

    /// True if no anchors survived.
    pub fn is_empty(&self) -> bool {
        self.anchors.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastz_genome::evolve::{generate_pair, PairParams};

    #[test]
    fn workload_from_synthetic_pair_is_nonempty() {
        let pair = generate_pair(&PairParams::small_demo("w", 5));
        let wl = Workload::build(&pair.target, &pair.query, &WorkloadParams::default());
        assert!(!wl.is_empty(), "synthetic pair should produce anchors");
        assert!(wl.filtered_anchors <= wl.raw_anchors);
        assert_eq!(wl.len(), wl.anchors.len());
    }

    #[test]
    fn filtering_reduces_anchor_count() {
        let pair = generate_pair(&PairParams::small_demo("w", 6));
        let wl = Workload::build(&pair.target, &pair.query, &WorkloadParams::default());
        assert!(wl.filtered_anchors < wl.raw_anchors);
    }

    #[test]
    fn max_anchors_caps_workload() {
        let pair = generate_pair(&PairParams::small_demo("w", 7));
        let wl = Workload::build(
            &pair.target,
            &pair.query,
            &WorkloadParams {
                max_anchors: 50,
                ..WorkloadParams::default()
            },
        );
        assert!(wl.len() <= 50);
        assert!(wl.filtered_anchors >= wl.len());
    }

    #[test]
    fn anchor_composition_matches_workload_design() {
        // Default filtering keeps the dense chance-anchor background (the
        // paper's dominant eager-traceback class) while the band filter
        // thins planted segments to roughly one anchor per diagonal band:
        // planted-homology anchors are a real but minority share.
        let pair = generate_pair(&PairParams::small_demo("w", 8));
        let wl = Workload::build(&pair.target, &pair.query, &WorkloadParams::default());
        let in_truth = wl
            .anchors
            .iter()
            .filter(|a| {
                pair.truth.iter().any(|s| {
                    (a.target_pos as usize) >= s.target_start.saturating_sub(19)
                        && (a.target_pos as usize) < s.target_start + s.target_len
                })
            })
            .count();
        let frac = in_truth as f64 / wl.len() as f64;
        assert!(
            (0.02..0.9).contains(&frac),
            "homology anchor share {frac:.2} outside the designed range"
        );
        // Every planted segment should still be discoverable: at least
        // half the segments contain a kept anchor.
        let covered = pair
            .truth
            .iter()
            .filter(|s| {
                wl.anchors.iter().any(|a| {
                    (a.target_pos as usize) >= s.target_start.saturating_sub(19)
                        && (a.target_pos as usize) < s.target_start + s.target_len
                })
            })
            .count();
        assert!(
            covered * 2 >= pair.truth.len(),
            "only {covered}/{} planted segments have anchors",
            pair.truth.len()
        );
    }
}
