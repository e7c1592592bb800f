//! Bitstreams and FPGA reconfiguration timing.
//!
//! Switching between Fixed-Pruning accelerators requires writing a new
//! bitstream through the configuration port. On the ZCU104 the PCAP sustains
//! roughly 250 MB/s, which for the ~31 MB full-device bitstream plus driver
//! overhead yields ≈ 145 ms — consistent with the paper's report of five
//! reconfigurations totalling ≈ 725 ms and with the starred "original
//! CNVW2A2 FINN reconf. time" marker of Fig. 1(b).

use crate::device::FpgaDevice;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Sustained configuration-port throughput, bytes/second (ZCU104 PCAP).
pub const PCAP_BYTES_PER_SECOND: f64 = 250_000_000.0;
/// Fixed driver/handshake overhead per reconfiguration.
pub const DRIVER_OVERHEAD: Duration = Duration::from_millis(21);

/// A synthesized configuration image.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bitstream {
    /// Name of the accelerator this bitstream configures.
    pub accelerator: String,
    /// Image size in bytes (full-device images have the device's size).
    pub bytes: u64,
}

impl Bitstream {
    /// A full-device bitstream for `device` configuring `accelerator`.
    #[must_use]
    pub fn full_device(accelerator: impl Into<String>, device: &FpgaDevice) -> Self {
        Self {
            accelerator: accelerator.into(),
            bytes: device.bitstream_bytes,
        }
    }
}

/// Reconfiguration timing model.
///
/// Supports both full-device reconfiguration (the paper's setting) and
/// dynamic *partial* reconfiguration — an extension in the spirit of
/// Seyoum et al. (the paper's reference 16), where only the accelerator's
/// reconfigurable region is rewritten. A `region_fraction` of 1.0 (the
/// default) is full-device reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReconfigurationModel {
    /// Configuration-port throughput in bytes per second.
    pub bytes_per_second: f64,
    /// Fixed per-reconfiguration overhead.
    pub overhead: Duration,
    /// Fraction of the bitstream rewritten per reconfiguration, `(0, 1]`.
    pub region_fraction: f64,
}

impl Default for ReconfigurationModel {
    fn default() -> Self {
        Self {
            bytes_per_second: PCAP_BYTES_PER_SECOND,
            overhead: DRIVER_OVERHEAD,
            region_fraction: 1.0,
        }
    }
}

impl ReconfigurationModel {
    /// Creates a full-device model with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_second` is not positive.
    #[must_use]
    pub fn new(bytes_per_second: f64, overhead: Duration) -> Self {
        assert!(bytes_per_second > 0.0, "throughput must be positive");
        Self {
            bytes_per_second,
            overhead,
            region_fraction: 1.0,
        }
    }

    /// A dynamic-partial-reconfiguration model rewriting only
    /// `region_fraction` of the device per swap.
    ///
    /// # Panics
    ///
    /// Panics if `region_fraction` is outside `(0, 1]`.
    #[must_use]
    pub fn partial(region_fraction: f64) -> Self {
        assert!(
            region_fraction > 0.0 && region_fraction <= 1.0,
            "region fraction must be in (0, 1]"
        );
        Self {
            region_fraction,
            ..Self::default()
        }
    }

    /// Time to load `bitstream` (scaled by the partial region, if any).
    #[must_use]
    pub fn reconfiguration_time(&self, bitstream: &Bitstream) -> Duration {
        let transfer = bitstream.bytes as f64 * self.region_fraction / self.bytes_per_second;
        self.overhead + Duration::from_secs_f64(transfer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zcu104_full_reconfiguration_near_145ms() {
        let model = ReconfigurationModel::default();
        let bs = Bitstream::full_device("cnv-w2a2", &FpgaDevice::zcu104());
        let t = model.reconfiguration_time(&bs).as_secs_f64();
        // Paper: five reconfigurations ≈ 725 ms → ≈ 145 ms each.
        assert!((0.13..=0.16).contains(&t), "reconfiguration time {t}s");
    }

    #[test]
    fn five_reconfigurations_near_725ms() {
        let model = ReconfigurationModel::default();
        let bs = Bitstream::full_device("cnv-w2a2", &FpgaDevice::zcu104());
        let total = model.reconfiguration_time(&bs).as_secs_f64() * 5.0;
        assert!((0.65..=0.8).contains(&total), "total {total}s");
    }

    #[test]
    fn smaller_device_reconfigures_faster() {
        let model = ReconfigurationModel::default();
        let big = Bitstream::full_device("a", &FpgaDevice::zcu104());
        let small = Bitstream::full_device("a", &FpgaDevice::z7020());
        assert!(model.reconfiguration_time(&small) < model.reconfiguration_time(&big));
    }

    #[test]
    fn fixed_time_model_ignores_size() {
        // Infinite-throughput port: only the overhead term remains.
        let model = ReconfigurationModel::new(f64::INFINITY, Duration::from_millis(290));
        let big = Bitstream::full_device("a", &FpgaDevice::zcu104());
        let tiny = Bitstream {
            accelerator: "a".into(),
            bytes: 1,
        };
        assert_eq!(model.reconfiguration_time(&big), Duration::from_millis(290));
        assert_eq!(
            model.reconfiguration_time(&tiny),
            Duration::from_millis(290)
        );
    }

    #[test]
    fn partial_reconfiguration_is_proportionally_faster() {
        let full = ReconfigurationModel::default();
        let partial = ReconfigurationModel::partial(0.25);
        let bs = Bitstream::full_device("a", &FpgaDevice::zcu104());
        let tf = full.reconfiguration_time(&bs).as_secs_f64();
        let tp = partial.reconfiguration_time(&bs).as_secs_f64();
        let overhead = DRIVER_OVERHEAD.as_secs_f64();
        assert!(((tp - overhead) / (tf - overhead) - 0.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "region fraction must be in (0, 1]")]
    fn partial_rejects_zero_fraction() {
        let _ = ReconfigurationModel::partial(0.0);
    }

    #[test]
    fn zero_time_model_for_ideal_switching() {
        // The 0 ms curve of Fig. 1(b).
        let model = ReconfigurationModel::new(f64::INFINITY, Duration::ZERO);
        let bs = Bitstream::full_device("a", &FpgaDevice::zcu104());
        assert_eq!(model.reconfiguration_time(&bs), Duration::ZERO);
    }
}
