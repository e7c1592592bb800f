//! Synthesis: resources + timing + power + bitstream in one artifact.

use crate::device::FpgaDevice;
use crate::error::HlsError;
use crate::power::PowerModel;
use crate::reconfig::Bitstream;
use crate::resources::{estimate_accelerator, ResourceEstimate};
use adaflow_dataflow::DataflowAccelerator;
use adaflow_telemetry::{EventKind, SinkHandle};
use serde::{Deserialize, Serialize};

/// Unloaded fabric Fmax in MHz (sparse design, short routes).
const BASE_FMAX_MHZ: f64 = 250.0;
/// Fmax degradation per unit of LUT utilization (routing congestion).
const FMAX_CONGESTION_SLOPE: f64 = 0.45;

/// The result of "synthesizing" an accelerator for a device.
///
/// Bundles everything the AdaFlow library needs per accelerator: fit-checked
/// resources, an Fmax estimate, a power model and the configuration
/// bitstream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthesizedAccelerator {
    /// Accelerator instance name.
    pub name: String,
    /// Target device name.
    pub device: String,
    /// Estimated resources.
    pub resources: ResourceEstimate,
    /// Estimated maximum clock frequency.
    pub fmax_mhz: f64,
    /// Achieved clock in MHz (the compile-time target, 100 MHz).
    pub clock_mhz: f64,
    /// Steady-state throughput at the achieved clock.
    pub throughput_fps: f64,
    /// Single-frame latency in seconds at the achieved clock.
    pub latency_s: f64,
    /// Power model derived from the resources.
    pub power: PowerModel,
    /// Full-device configuration image.
    pub bitstream: Bitstream,
}

/// Synthesizes `accel` for `device`: estimates resources, checks fit and
/// timing at the accelerator's clock, and derives the power model and
/// bitstream.
///
/// # Errors
///
/// Returns [`HlsError::DoesNotFit`] when any resource exceeds the device,
/// or [`HlsError::TimingFailure`] when the congestion-degraded Fmax falls
/// below the requested clock.
pub fn synthesize(
    accel: &DataflowAccelerator,
    device: &FpgaDevice,
) -> Result<SynthesizedAccelerator, HlsError> {
    synthesize_traced(accel, device, &SinkHandle::default())
}

/// [`synthesize`] with telemetry: one [`EventKind::SynthReport`] event is
/// emitted per attempt, successful or not (`fits: false` when the design is
/// rejected for resources or timing). Synthesis happens at design time, so
/// events are stamped at `t = 0`.
///
/// # Errors
///
/// Same contract as [`synthesize`].
pub fn synthesize_traced(
    accel: &DataflowAccelerator,
    device: &FpgaDevice,
    sink: &SinkHandle,
) -> Result<SynthesizedAccelerator, HlsError> {
    // Debug builds verify the module pipeline before estimating anything:
    // a malformed pipeline here is a compiler bug, not a user error.
    #[cfg(debug_assertions)]
    adaflow_dataflow::verify::debug_assert_accelerator(accel, "synthesize");
    // And cross-check the DF004 rate analysis against the performance
    // model: at the sized FIFO depth the max-plus steady state must equal
    // the analytic initiation interval the throughput figures below use.
    #[cfg(debug_assertions)]
    assert_eq!(
        adaflow_dataflow::size_fifos(accel).achieved_ii,
        accel.initiation_interval(),
        "rate analysis and performance model disagree at synthesize for {}",
        accel.name(),
    );
    let report = |fmax_mhz: f64, res: Option<&ResourceEstimate>, fits: bool| {
        if sink.enabled() {
            sink.emit(
                0.0,
                EventKind::SynthReport {
                    accelerator: accel.name().to_string(),
                    fmax_mhz,
                    lut: res.map_or(0, |r| r.lut),
                    bram36: res.map_or(0, |r| r.bram36),
                    fits,
                },
            );
        }
    };
    let resources = estimate_accelerator(accel)?;
    if let Err(e) = check_fit(&resources, device) {
        report(0.0, Some(&resources), false);
        return Err(e);
    }

    let lut_util = resources.lut as f64 / device.lut as f64;
    let fmax_mhz = BASE_FMAX_MHZ * (1.0 - FMAX_CONGESTION_SLOPE * lut_util);
    let clock_mhz = accel.clock_hz() as f64 / 1e6;
    if fmax_mhz < clock_mhz {
        report(fmax_mhz, Some(&resources), false);
        return Err(HlsError::TimingFailure {
            fmax_mhz,
            target_mhz: clock_mhz,
        });
    }
    report(fmax_mhz, Some(&resources), true);

    Ok(SynthesizedAccelerator {
        name: accel.name().to_string(),
        device: device.name.clone(),
        resources,
        fmax_mhz,
        clock_mhz,
        throughput_fps: accel.throughput_fps(),
        latency_s: accel.latency_cycles() as f64 / accel.clock_hz() as f64,
        power: PowerModel::new(resources),
        bitstream: Bitstream::full_device(accel.name(), device),
    })
}

fn check_fit(res: &ResourceEstimate, device: &FpgaDevice) -> Result<(), HlsError> {
    let checks: [(&str, u64, u64); 4] = [
        ("lut", res.lut, device.lut),
        ("ff", res.ff, device.ff),
        ("bram36", res.bram36, device.bram36),
        ("dsp", res.dsp, device.dsp),
    ];
    for (name, needed, available) in checks {
        if needed > available {
            return Err(HlsError::DoesNotFit {
                device: device.name.clone(),
                resource: name.into(),
                needed,
                available,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaflow_dataflow::AcceleratorKind;
    use adaflow_model::prelude::*;
    use adaflow_pruning::FinnConfig;

    fn cnv_accel(kind: AcceleratorKind) -> DataflowAccelerator {
        let g = topology::cnv_w2a2_cifar10().expect("builds");
        let cfg = FinnConfig::cnv_reference(&g).expect("valid");
        DataflowAccelerator::compile(&g, &cfg, kind).expect("compiles")
    }

    #[test]
    fn cnv_synthesizes_on_zcu104_at_100mhz() {
        let s = synthesize(&cnv_accel(AcceleratorKind::Finn), &FpgaDevice::zcu104())
            .expect("synthesizes");
        assert_eq!(s.clock_mhz, 100.0);
        assert!(s.fmax_mhz >= 100.0);
        assert!(s.throughput_fps > 100.0);
        assert!(s.latency_s > 0.0);
        assert_eq!(s.device, "zcu104");
    }

    #[test]
    fn flexible_synthesizes_too() {
        let s = synthesize(
            &cnv_accel(AcceleratorKind::FlexiblePruning),
            &FpgaDevice::zcu104(),
        )
        .expect("synthesizes");
        assert!(s.fmax_mhz >= 100.0, "flexible must still close timing");
    }

    #[test]
    fn cnv_does_not_fit_z7020() {
        // The CNV dataflow needs more BRAM than a Zynq-7020 offers.
        let err = synthesize(&cnv_accel(AcceleratorKind::Finn), &FpgaDevice::z7020()).unwrap_err();
        assert!(matches!(err, HlsError::DoesNotFit { .. }));
    }

    #[test]
    fn tiny_fits_z7020() {
        let g = topology::tiny(QuantSpec::w2a2(), 4).expect("builds");
        let cfg = FinnConfig::auto(&g).expect("auto");
        let accel =
            DataflowAccelerator::compile(&g, &cfg, AcceleratorKind::Finn).expect("compiles");
        assert!(synthesize(&accel, &FpgaDevice::z7020()).is_ok());
    }

    #[test]
    fn congestion_lowers_fmax() {
        let small = synthesize(
            &cnv_accel(AcceleratorKind::FixedPruning),
            &FpgaDevice::zcu104(),
        )
        .expect("synthesizes");
        let big = synthesize(
            &cnv_accel(AcceleratorKind::FlexiblePruning),
            &FpgaDevice::zcu104(),
        )
        .expect("synthesizes");
        assert!(big.fmax_mhz < small.fmax_mhz);
    }

    #[test]
    fn excessive_clock_fails_timing() {
        let accel = cnv_accel(AcceleratorKind::Finn).with_clock(400_000_000);
        let err = synthesize(&accel, &FpgaDevice::zcu104()).unwrap_err();
        assert!(matches!(err, HlsError::TimingFailure { .. }));
    }

    #[test]
    fn fit_check_names_the_exhausted_resource() {
        // A device with plenty of LUTs but no BRAM: the error must name
        // bram36, not the first resource checked.
        let tiny_bram = FpgaDevice {
            name: "no-bram".into(),
            lut: 10_000_000,
            ff: 10_000_000,
            bram36: 1,
            dsp: 1_000,
            bitstream_bytes: 1,
        };
        let err = synthesize(&cnv_accel(AcceleratorKind::Finn), &tiny_bram).unwrap_err();
        match err {
            HlsError::DoesNotFit { resource, .. } => assert_eq!(resource, "bram36"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn bitstream_is_full_device() {
        let s = synthesize(&cnv_accel(AcceleratorKind::Finn), &FpgaDevice::zcu104())
            .expect("synthesizes");
        assert_eq!(s.bitstream.bytes, FpgaDevice::zcu104().bitstream_bytes);
        assert!(s.bitstream.accelerator.contains("finn"));
    }
}
