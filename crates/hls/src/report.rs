//! Utilization reports.
//!
//! Renders synthesized-accelerator resource usage against a device the way
//! Vivado's utilization report does: absolute counts and percentages per
//! resource class, with the dominant resource called out — the data behind
//! Fig. 5(a).

use crate::device::FpgaDevice;
use crate::resources::ResourceEstimate;
use crate::synth::SynthesizedAccelerator;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One resource row of a utilization report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UtilizationRow {
    /// Resource class (`LUT`, `FF`, `BRAM36`, `DSP`).
    pub resource: String,
    /// Amount used.
    pub used: u64,
    /// Device capacity.
    pub available: u64,
    /// Utilization percentage.
    pub percent: f64,
}

/// A per-device utilization report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UtilizationReport {
    /// Accelerator name.
    pub accelerator: String,
    /// Device name.
    pub device: String,
    /// Rows in LUT/FF/BRAM/DSP order.
    pub rows: Vec<UtilizationRow>,
}

impl UtilizationReport {
    /// Builds a report from raw resources and a device.
    #[must_use]
    pub fn new(
        accelerator: impl Into<String>,
        resources: ResourceEstimate,
        device: &FpgaDevice,
    ) -> Self {
        let row = |name: &str, used: u64, available: u64| UtilizationRow {
            resource: name.to_string(),
            used,
            available,
            percent: if available == 0 {
                0.0
            } else {
                used as f64 / available as f64 * 100.0
            },
        };
        Self {
            accelerator: accelerator.into(),
            device: device.name.clone(),
            rows: vec![
                row("LUT", resources.lut, device.lut),
                row("FF", resources.ff, device.ff),
                row("BRAM36", resources.bram36, device.bram36),
                row("DSP", resources.dsp, device.dsp),
            ],
        }
    }

    /// Builds a report from a synthesized accelerator.
    #[must_use]
    pub fn of(synth: &SynthesizedAccelerator, device: &FpgaDevice) -> Self {
        Self::new(synth.name.clone(), synth.resources, device)
    }
}

impl fmt::Display for UtilizationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} on {}", self.accelerator, self.device)?;
        writeln!(
            f,
            "{:<8} {:>10} {:>10} {:>7}",
            "resource", "used", "available", "util%"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<8} {:>10} {:>10} {:>6.1}%",
                r.resource, r.used, r.available, r.percent
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::synthesize;
    use adaflow_dataflow::{AcceleratorKind, DataflowAccelerator};
    use adaflow_model::prelude::*;
    use adaflow_pruning::FinnConfig;

    fn cnv_report() -> UtilizationReport {
        let g = topology::cnv_w2a2_cifar10().expect("builds");
        let cfg = FinnConfig::cnv_reference(&g).expect("valid");
        let accel =
            DataflowAccelerator::compile(&g, &cfg, AcceleratorKind::Finn).expect("compiles");
        let device = FpgaDevice::zcu104();
        let synth = synthesize(&accel, &device).expect("synthesizes");
        UtilizationReport::of(&synth, &device)
    }

    #[test]
    fn report_has_four_rows_with_consistent_percentages() {
        let report = cnv_report();
        assert_eq!(report.rows.len(), 4);
        for row in &report.rows {
            let expect = row.used as f64 / row.available as f64 * 100.0;
            assert!((row.percent - expect).abs() < 1e-9);
            assert!(row.percent <= 100.0, "{} over capacity", row.resource);
        }
    }

    #[test]
    fn bram_is_the_limiting_resource_for_cnv() {
        let report = cnv_report();
        // The paper's "limiting factor": the most utilized resource class.
        let limiting = report
            .rows
            .iter()
            .max_by(|a, b| a.percent.total_cmp(&b.percent))
            .expect("reports have rows");
        assert_eq!(limiting.resource, "BRAM36");
    }

    #[test]
    fn display_renders_table() {
        let text = cnv_report().to_string();
        assert!(text.contains("BRAM36"));
        assert!(text.contains("zcu104"));
        assert!(text.contains('%'));
    }

    #[test]
    fn zero_capacity_handled() {
        let device = FpgaDevice {
            name: "weird".into(),
            lut: 100,
            ff: 100,
            bram36: 10,
            dsp: 0,
            bitstream_bytes: 1,
        };
        let report = UtilizationReport::new(
            "a",
            ResourceEstimate {
                lut: 10,
                ff: 10,
                bram36: 1,
                dsp: 0,
            },
            &device,
        );
        assert_eq!(report.rows[3].percent, 0.0);
    }
}
