//! Digital-twin / multi-scale modelling workload (paper Sec. I,
//! application 1).
//!
//! "Solving a hierarchy of such problems (where results from one
//! simulation are used to solve the next one) with varying computational
//! volumes is known as multi-scale modelling." This generator produces a
//! chain of simulation stages whose problem sizes follow a configurable
//! geometric hierarchy (coarse → fine), each stage an RLS `MathTask`
//! feeding its penalty into the next — a synthetic but structurally
//! faithful digital-twin update loop.

use crate::mathtask::simulated_task;
use relperf_sim::{enumerate_placements, placement_label, Loc, Task};

/// Configuration of a multi-scale hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiScaleConfig {
    /// Number of scales (stages in the chain).
    pub stages: usize,
    /// Matrix size of the coarsest stage.
    pub base_size: usize,
    /// Size growth factor per stage (e.g. 2.0 doubles the resolution).
    pub growth: f64,
    /// RLS loop iterations per stage.
    pub iters_per_stage: usize,
}

impl Default for MultiScaleConfig {
    fn default() -> Self {
        MultiScaleConfig {
            stages: 4,
            base_size: 40,
            growth: 2.0,
            iters_per_stage: 5,
        }
    }
}

impl MultiScaleConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on zero stages/sizes/iterations or growth < 1.
    pub fn validate(&self) {
        assert!(self.stages > 0, "need at least one stage");
        assert!(self.base_size > 0, "base size must be positive");
        assert!(self.growth >= 1.0, "hierarchy must be non-shrinking");
        assert!(self.iters_per_stage > 0, "need at least one iteration");
    }

    /// Matrix size of stage `i` (0-based).
    pub fn stage_size(&self, i: usize) -> usize {
        (self.base_size as f64 * self.growth.powi(i as i32)).round() as usize
    }
}

/// Builds the task chain of the hierarchy (coarse first, like a multigrid
/// refinement sweep).
pub fn tasks(config: &MultiScaleConfig) -> Vec<Task> {
    config.validate();
    (0..config.stages)
        .map(|i| {
            simulated_task(
                &format!("scale{}", i + 1),
                config.stage_size(i),
                config.iters_per_stage,
            )
        })
        .collect()
}

/// All `2^stages` placements with paper-style labels.
///
/// # Panics
/// Panics when `stages` exceeds 16 — a 65 536-algorithm exhaustive sweep is
/// the "exponential explosion" case the paper's conclusion defers to
/// guided search, not something to enumerate by accident.
pub fn placements(config: &MultiScaleConfig) -> Vec<(String, Vec<Loc>)> {
    assert!(
        config.stages <= 16,
        "placement enumeration is exponential; use a subset strategy beyond 16 stages"
    );
    enumerate_placements(config.stages, 1)
        .into_iter()
        .map(|p| (placement_label(&p), p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_hierarchy_grows_geometrically() {
        let c = MultiScaleConfig::default();
        assert_eq!(c.stage_size(0), 40);
        assert_eq!(c.stage_size(1), 80);
        assert_eq!(c.stage_size(3), 320);
        let ts = tasks(&c);
        assert_eq!(ts.len(), 4);
        for w in ts.windows(2) {
            assert!(w[1].flops_per_iter > w[0].flops_per_iter);
            assert!(w[1].working_set_bytes > w[0].working_set_bytes);
        }
    }

    #[test]
    fn non_integer_growth() {
        let c = MultiScaleConfig {
            growth: 1.5,
            ..Default::default()
        };
        assert_eq!(c.stage_size(1), 60);
        assert_eq!(c.stage_size(2), 90);
    }

    #[test]
    fn placement_count_is_exponential() {
        let c = MultiScaleConfig {
            stages: 3,
            ..Default::default()
        };
        assert_eq!(placements(&c).len(), 8);
        let c5 = MultiScaleConfig {
            stages: 5,
            ..Default::default()
        };
        assert_eq!(placements(&c5).len(), 32);
    }

    #[test]
    #[should_panic(expected = "exponential")]
    fn refuses_huge_enumeration() {
        let c = MultiScaleConfig {
            stages: 17,
            ..Default::default()
        };
        placements(&c);
    }

    #[test]
    #[should_panic(expected = "non-shrinking")]
    fn rejects_shrinking_hierarchy() {
        MultiScaleConfig {
            growth: 0.5,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn end_to_end_on_platform() {
        use rand::prelude::*;
        let c = MultiScaleConfig {
            stages: 3,
            base_size: 20,
            growth: 2.0,
            iters_per_stage: 2,
        };
        let platform = relperf_sim::presets::table1_platform();
        let ts = tasks(&c);
        let mut rng = StdRng::seed_from_u64(181);
        for (label, placement) in placements(&c) {
            let rec = platform.execute(&ts, &placement, &mut rng);
            assert!(rec.total_time_s > 0.0, "{label} produced no time");
        }
    }
}
