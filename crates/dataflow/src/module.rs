//! Hardware module descriptors and cycle models.
//!
//! FINN lowers each CNN layer to a dedicated streaming module:
//!
//! * convolutions become a Sliding Window Unit (SWU) feeding a
//!   Matrix-Vector-Threshold Unit (MVTU);
//! * fully-connected layers become a standalone MVTU;
//! * max-pool layers become channel-unrolled pooling modules;
//! * the classifier output becomes a LabelSelect module.
//!
//! Each module's steady-state cycles-per-frame follow FINN's folding
//! arithmetic: an MVTU with `rows x cols` weight matrix folded onto
//! `PE x SIMD` hardware needs `(rows/PE)·(cols/SIMD)` cycles per output
//! vector, times the number of output pixels per frame.

use serde::{Deserialize, Serialize};

/// Which hardware template a module instantiates, with its parameters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModuleKind {
    /// Sliding Window Unit: streams convolution windows to the MVTU.
    Swu {
        /// Input channels.
        in_channels: usize,
        /// Kernel side length.
        kernel: usize,
        /// Output pixels per frame.
        out_pixels: usize,
        /// SIMD lanes of the consumer MVTU (window stream width).
        simd: usize,
        /// Activation bit width on the stream.
        act_bits: u8,
    },
    /// Matrix-Vector-Threshold Unit: the MAC engine of conv and dense
    /// layers, with folded thresholds.
    Mvtu {
        /// Weight-matrix rows (output channels / neurons).
        rows: usize,
        /// Weight-matrix columns (`k²·ch_in` for conv, `in_features` for
        /// dense).
        cols: usize,
        /// Processing elements (row parallelism).
        pe: usize,
        /// SIMD lanes (column parallelism).
        simd: usize,
        /// Output vectors per frame (spatial positions; 1 for dense).
        out_pixels: usize,
        /// Weight bit width.
        weight_bits: u8,
        /// Activation bit width.
        act_bits: u8,
        /// Threshold levels folded into the unit (0 for the classifier).
        threshold_levels: usize,
    },
    /// Channel-unrolled max-pooling.
    MaxPool {
        /// Channels processed in parallel (unroll factor = worst case).
        channels: usize,
        /// Pooling window side.
        kernel: usize,
        /// Input pixels per frame (the module consumes the stream at line
        /// rate).
        in_pixels: usize,
        /// Activation bit width.
        act_bits: u8,
    },
    /// Top-1 selection over the classifier output.
    LabelSelect {
        /// Number of classes.
        classes: usize,
    },
}

impl ModuleKind {
    /// Short template name (diagnostics / reports).
    #[must_use]
    pub fn template(&self) -> &'static str {
        match self {
            ModuleKind::Swu { .. } => "swu",
            ModuleKind::Mvtu { .. } => "mvtu",
            ModuleKind::MaxPool { .. } => "maxpool",
            ModuleKind::LabelSelect { .. } => "labelselect",
        }
    }
}

/// One instantiated module of a dataflow accelerator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModuleSpec {
    /// Module instance name (derived from the layer name).
    pub name: String,
    /// Template and parameters.
    pub kind: ModuleKind,
    /// Whether this instance uses the runtime-controllable Flexible HLS
    /// template (paper §IV-A2).
    pub flexible: bool,
}

/// Relative cycle overhead of the flexible MVTU template: the
/// runtime-controllable bound only affects pipeline feeding (Fig. 3a), so
/// the penalty is small. Calibrated with [`FLEX_POOL_CYCLE_OVERHEAD`] so the
/// whole-accelerator latency overhead lands on the paper's 0.67 % average
/// (≤ 3.7 % max).
pub const FLEX_MVTU_CYCLE_OVERHEAD: f64 = 0.005;

/// Relative cycle overhead of flexible channel-unrolled modules (MaxPool):
/// the worst-case unroll plus per-cycle channel gating costs slightly more.
pub const FLEX_POOL_CYCLE_OVERHEAD: f64 = 0.02;

impl ModuleSpec {
    /// Steady-state cycles this module needs per frame.
    ///
    /// The flexible variants carry their calibrated cycle overhead.
    #[must_use]
    pub fn cycles_per_frame(&self) -> u64 {
        let base = match &self.kind {
            ModuleKind::Swu {
                in_channels,
                kernel,
                out_pixels,
                simd,
                ..
            } => {
                // The SWU emits one `SIMD`-wide slice of each k²·ch_in window
                // per cycle, matching the consumer MVTU's intake rate.
                let window = kernel * kernel * in_channels;
                (*out_pixels as u64) * (window as u64).div_ceil(*simd as u64)
            }
            ModuleKind::Mvtu {
                rows,
                cols,
                pe,
                simd,
                out_pixels,
                ..
            } => {
                let fold =
                    (*rows as u64).div_ceil(*pe as u64) * (*cols as u64).div_ceil(*simd as u64);
                fold * (*out_pixels as u64)
            }
            ModuleKind::MaxPool { in_pixels, .. } => {
                // Channel-unrolled: consumes one input pixel vector per cycle.
                *in_pixels as u64
            }
            ModuleKind::LabelSelect { classes } => *classes as u64,
        };
        if self.flexible {
            let overhead = match &self.kind {
                ModuleKind::MaxPool { .. } => FLEX_POOL_CYCLE_OVERHEAD,
                _ => FLEX_MVTU_CYCLE_OVERHEAD,
            };
            ((base as f64) * (1.0 + overhead)).ceil() as u64
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mvtu(rows: usize, cols: usize, pe: usize, simd: usize, pixels: usize) -> ModuleSpec {
        ModuleSpec {
            name: "m".into(),
            kind: ModuleKind::Mvtu {
                rows,
                cols,
                pe,
                simd,
                out_pixels: pixels,
                weight_bits: 2,
                act_bits: 2,
                threshold_levels: 3,
            },
            flexible: false,
        }
    }

    #[test]
    fn mvtu_fold_arithmetic() {
        // CNV conv2: 64x(9·64) folded on 16x8 over 784 pixels.
        let m = mvtu(64, 576, 16, 8, 784);
        assert_eq!(m.cycles_per_frame(), 4 * 72 * 784);
    }

    #[test]
    fn mvtu_dense_single_pixel() {
        let m = mvtu(512, 256, 4, 8, 1);
        assert_eq!(m.cycles_per_frame(), 128 * 32);
    }

    #[test]
    fn mvtu_non_divisible_rounds_up() {
        // 10 rows on 4 PEs -> 3 row groups.
        let m = mvtu(10, 8, 4, 8, 1);
        assert_eq!(m.cycles_per_frame(), 3);
    }

    #[test]
    fn swu_matches_consumer_rate() {
        let m = ModuleSpec {
            name: "swu".into(),
            kind: ModuleKind::Swu {
                in_channels: 64,
                kernel: 3,
                out_pixels: 784,
                simd: 8,
                act_bits: 2,
            },
            flexible: false,
        };
        assert_eq!(m.cycles_per_frame(), 784 * 72);
    }

    #[test]
    fn pool_consumes_at_line_rate() {
        let m = ModuleSpec {
            name: "pool".into(),
            kind: ModuleKind::MaxPool {
                channels: 64,
                kernel: 2,
                in_pixels: 784,
                act_bits: 2,
            },
            flexible: false,
        };
        assert_eq!(m.cycles_per_frame(), 784);
    }

    #[test]
    fn flexible_overhead_is_small_and_positive() {
        let fixed = mvtu(64, 576, 16, 8, 784);
        let mut flex = fixed.clone();
        flex.flexible = true;
        let (cf, cx) = (fixed.cycles_per_frame(), flex.cycles_per_frame());
        assert!(cx > cf);
        let rel = (cx - cf) as f64 / cf as f64;
        assert!(
            rel < 0.037,
            "flexible overhead {rel} exceeds the paper's 3.7% bound"
        );
    }

    #[test]
    fn template_names() {
        assert_eq!(mvtu(1, 1, 1, 1, 1).kind.template(), "mvtu");
        assert_eq!(
            ModuleKind::LabelSelect { classes: 10 }.template(),
            "labelselect"
        );
    }
}
