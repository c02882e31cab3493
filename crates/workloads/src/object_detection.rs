//! Hierarchical object-detection workload (paper Sec. I, application 2).
//!
//! "The on-board processor … can still be used to run low-fidelity object
//! detectors (such as YOLO) for quick identification of objects. However,
//! higher fidelity object detectors (such as SSD) can run simultaneously
//! in the background and can be used to correct the low-fidelity
//! detections … but with a lag. This lag can be minimized by properly
//! choosing the parts of the code that could be offloaded."
//!
//! The synthetic pipeline has three stages per frame batch:
//! preprocessing (cheap, data-heavy), a low-fidelity detector (moderate
//! compute), and a high-fidelity correction pass (heavy compute, large
//! activations). FLOP/byte volumes are parameterized by frame size and
//! model width so the placement trade-offs mirror the real structure.

use relperf_sim::{enumerate_placements, placement_label, Loc, Task};

/// Configuration of the detection pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionConfig {
    /// Square frame edge in pixels.
    pub frame_px: usize,
    /// Frames per batch (the loop length of each stage).
    pub frames_per_batch: usize,
    /// Channel width of the low-fidelity detector.
    pub lofi_width: usize,
    /// Channel width of the high-fidelity detector.
    pub hifi_width: usize,
}

impl Default for DetectionConfig {
    fn default() -> Self {
        DetectionConfig {
            frame_px: 320,
            frames_per_batch: 8,
            lofi_width: 16,
            hifi_width: 64,
        }
    }
}

impl DetectionConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on zero dimensions or a hi-fi model no wider than the lo-fi
    /// one.
    pub fn validate(&self) {
        assert!(self.frame_px > 0, "frame must be non-empty");
        assert!(self.frames_per_batch > 0, "need at least one frame");
        assert!(self.lofi_width > 0, "lo-fi width must be positive");
        assert!(
            self.hifi_width > self.lofi_width,
            "hi-fi model must be wider than lo-fi"
        );
    }

    /// Bytes of one RGB frame.
    pub fn frame_bytes(&self) -> u64 {
        3 * (self.frame_px as u64) * (self.frame_px as u64)
    }

    /// FLOPs of a detector pass: a conv-net style estimate
    /// `pixels · width² · k` with a 3x3 kernel constant.
    fn detector_flops(&self, width: usize) -> u64 {
        let px = (self.frame_px as u64) * (self.frame_px as u64);
        px * (width as u64) * (width as u64) * 9
    }
}

/// The three pipeline stages as simulator tasks.
pub fn tasks(config: &DetectionConfig) -> Vec<Task> {
    config.validate();
    let frame = config.frame_bytes();
    vec![
        // Preprocessing: per-pixel normalization — very low arithmetic
        // intensity, so offloading it is all transfer and no gain.
        Task {
            name: "prep".into(),
            iterations: config.frames_per_batch as u64,
            flops_per_iter: 10 * frame,
            offload_bytes_per_iter: frame,
            return_bytes_per_iter: frame,
            working_set_bytes: 2 * frame,
            handoff_bytes: frame,
        },
        // Low-fidelity detector: moderate compute, small outputs (boxes).
        Task {
            name: "lofi".into(),
            iterations: config.frames_per_batch as u64,
            flops_per_iter: config.detector_flops(config.lofi_width),
            offload_bytes_per_iter: frame,
            return_bytes_per_iter: 4 * 1024,
            working_set_bytes: 4 * frame * config.lofi_width as u64 / 3,
            handoff_bytes: 4 * 1024,
        },
        // High-fidelity correction: heavy compute, large activations.
        Task {
            name: "hifi".into(),
            iterations: config.frames_per_batch as u64,
            flops_per_iter: config.detector_flops(config.hifi_width),
            offload_bytes_per_iter: frame,
            return_bytes_per_iter: 4 * 1024,
            working_set_bytes: 4 * frame * config.hifi_width as u64 / 3,
            handoff_bytes: 4 * 1024,
        },
    ]
}

/// All 8 placements of the three stages.
pub fn placements() -> Vec<(String, Vec<Loc>)> {
    enumerate_placements(3, 1)
        .into_iter()
        .map(|p| (placement_label(&p), p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_ordered_by_compute() {
        let ts = tasks(&DetectionConfig::default());
        assert_eq!(ts.len(), 3);
        assert!(ts[0].flops_per_iter < ts[1].flops_per_iter);
        assert!(ts[1].flops_per_iter < ts[2].flops_per_iter);
    }

    #[test]
    fn prep_has_lowest_arithmetic_intensity() {
        let ts = tasks(&DetectionConfig::default());
        let intensity =
            |t: &relperf_sim::Task| t.flops_per_iter as f64 / t.offload_bytes_per_iter as f64;
        assert!(intensity(&ts[0]) < intensity(&ts[1]));
        assert!(intensity(&ts[1]) < intensity(&ts[2]));
    }

    #[test]
    fn frame_bytes_rgb() {
        let c = DetectionConfig {
            frame_px: 10,
            ..Default::default()
        };
        assert_eq!(c.frame_bytes(), 300);
    }

    #[test]
    #[should_panic(expected = "wider than lo-fi")]
    fn rejects_inverted_widths() {
        DetectionConfig {
            lofi_width: 64,
            hifi_width: 32,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn offloading_hifi_beats_offloading_prep() {
        // On the GPU-class platform, the compute-dense hi-fi stage must
        // gain more from offloading than the transfer-bound preprocessing.
        use rand::prelude::*;
        use relperf_sim::Loc::Device as D;
        const A: relperf_sim::Loc = relperf_sim::Loc::Accelerator(0);
        let platform = relperf_sim::presets::fig1_platform();
        let ts = tasks(&DetectionConfig::default());
        let mut rng = StdRng::seed_from_u64(191);
        let quiet = |placement: &[relperf_sim::Loc]| {
            platform.execute_noiseless(&ts, placement).total_time_s
        };
        let _ = &mut rng;
        let ddd = quiet(&[D, D, D]);
        let dda = quiet(&[D, D, A]); // offload hi-fi
        let add = quiet(&[A, D, D]); // offload preprocessing
        let hifi_gain = ddd - dda;
        let prep_gain = ddd - add;
        assert!(
            hifi_gain > prep_gain,
            "hi-fi offload gain {hifi_gain} must beat prep offload gain {prep_gain}"
        );
    }

    #[test]
    fn eight_placements() {
        assert_eq!(placements().len(), 8);
    }
}
