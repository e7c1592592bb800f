//! Per-device arrival generation.
//!
//! Turns the piecewise-constant aggregate workload of
//! [`adaflow_edge::WorkloadSpec`] into a timestamped request stream: each of
//! the 20 IoT devices contributes an equal share of every segment's rate as
//! a jittered quasi-periodic process (cameras emit frames on a nominal
//! period, smeared by capture and network jitter). Generation is
//! deterministic in the seed — the same seed that shapes the workload
//! segments also shapes the per-device jitter, so one `(spec, seed)` pair
//! pins the entire request trace bit-for-bit.

use crate::request::Request;
use adaflow_edge::WorkloadSpec;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Inter-arrival jitter: each gap is the nominal period scaled by
/// `U(1 − JITTER, 1 + JITTER)`.
pub const ARRIVAL_JITTER: f64 = 0.5;

/// Generates the timestamped request trace for one seeded run.
///
/// Each device walks the workload segments emitting arrivals at its share
/// of the segment rate (`segment.fps / devices`), with quasi-periodic
/// jittered gaps. Segments with zero rate silence the device until the
/// next active segment, where its phase is re-drawn uniformly inside one
/// period. The merged trace is ordered by `(arrival, device)` and ids are
/// assigned in that order.
#[must_use]
pub fn generate_requests(spec: &WorkloadSpec, seed: u64) -> Vec<Request> {
    merge(&walk(spec, seed), spec.duration_s)
}

/// Every device's arrivals as `(arrival_s, device)`, device by device, each
/// device's in ascending time.
fn walk(spec: &WorkloadSpec, seed: u64) -> Vec<(f64, u32)> {
    let segments = spec.generate(seed);
    let devices = spec.devices.max(1);
    let mut all: Vec<(f64, u32)> = Vec::new();
    for device in 0..devices as u32 {
        // A device-private stream, decorrelated from the segment-level rng
        // and from every other device by a multiplicative mix of the index.
        let mut rng = ChaCha8Rng::seed_from_u64(
            seed ^ 0x5E12_7E5C ^ u64::from(device).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let mut t = f64::NEG_INFINITY;
        for seg in &segments {
            let end = seg.start_s + seg.duration_s;
            let rate = seg.fps / devices as f64;
            if rate <= 0.0 {
                continue;
            }
            let period = 1.0 / rate;
            if t < seg.start_s {
                // Fresh phase after a silent stretch (or at the start),
                // uniform inside one period so devices don't phase-lock.
                t = seg.start_s + period * rng.gen_range(0.0..=1.0);
            }
            while t < end {
                all.push((t, device));
                t += period * rng.gen_range(1.0 - ARRIVAL_JITTER..=1.0 + ARRIVAL_JITTER);
            }
        }
    }
    all
}

/// Orders the walked arrivals by `(arrival, device)` and numbers them.
///
/// A counting sort on a monotone time bucket, `min(⌊t·B/duration⌋, B−1)`
/// with about two arrivals per bucket: a later arrival never lands in an
/// earlier bucket (multiplying by a positive constant and flooring never
/// reorders two times), so ordering each bucket on its own orders the trace.
/// One count array serves as the scatter cursors.
fn merge(walked: &[(f64, u32)], duration_s: f64) -> Vec<Request> {
    let n = u32::try_from(walked.len()).expect("a trace of at most u32::MAX arrivals");
    let buckets = (walked.len() / 2).max(1);
    let scale = buckets as f64 / duration_s;
    // The cast saturates, so an arrival past `duration_s` joins the last
    // bucket and one before 0 the first.
    let bucket = |t: f64| ((t * scale) as usize).min(buckets - 1);

    // Counts, then each bucket's first slot, then (after the scatter) the
    // slot past its last.
    let mut cursor = vec![0u32; buckets];
    for &(t, _) in walked {
        cursor[bucket(t)] += 1;
    }
    let mut start = 0;
    for slot in &mut cursor {
        (*slot, start) = (start, start + *slot);
    }
    debug_assert_eq!(start, n);
    let mut trace = vec![
        Request {
            id: 0,
            device: 0,
            arrival_s: 0.0,
        };
        walked.len()
    ];
    for &(arrival_s, device) in walked {
        let slot = &mut cursor[bucket(arrival_s)];
        trace[*slot as usize] = Request {
            id: 0,
            device,
            arrival_s,
        };
        *slot += 1;
    }

    let mut begin = 0;
    for &end in &cursor {
        let end = end as usize;
        trace[begin..end].sort_unstable_by(|a, b| {
            a.arrival_s
                .total_cmp(&b.arrival_s)
                .then(a.device.cmp(&b.device))
        });
        begin = end;
    }
    for (id, request) in trace.iter_mut().enumerate() {
        request.id = id as u64;
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaflow_edge::Scenario;
    use proptest::prelude::*;

    /// The comparison-sorted merge the bucket pass replaced: the oracle.
    fn reference_generate_requests(spec: &WorkloadSpec, seed: u64) -> Vec<Request> {
        let mut all = walk(spec, seed);
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        all.into_iter()
            .enumerate()
            .map(|(i, (arrival_s, device))| Request {
                id: i as u64,
                device,
                arrival_s,
            })
            .collect()
    }

    /// Every scenario shape, silent `Bursty` off-phases and `Custom`
    /// cadences included.
    fn scenario(pick: usize, deviation: f64, period_s: f64) -> Scenario {
        match pick {
            0 => Scenario::Stable,
            1 => Scenario::Unpredictable,
            2 => Scenario::Shifting,
            3 => Scenario::Custom {
                deviation,
                period_s,
            },
            4 => Scenario::Bursty {
                surge: 2.0 * deviation,
                idle: 0.0,
                period_s,
            },
            _ => Scenario::Bursty {
                surge: deviation,
                idle: 0.5,
                period_s,
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn bucket_merge_equals_the_sorted_reference(
            pick in 0usize..6,
            devices in 1usize..=200,
            fps_per_device in 0.5f64..40.0,
            duration_s in 0.05f64..6.5,
            deviation in 0.0f64..0.99,
            period_s in 0.07f64..3.0,
            seed in 0u64..u64::MAX,
        ) {
            let spec = WorkloadSpec {
                devices,
                fps_per_device,
                duration_s,
                scenario: scenario(pick, deviation, period_s),
            };
            prop_assert_eq!(
                generate_requests(&spec, seed),
                reference_generate_requests(&spec, seed)
            );
        }
    }

    #[test]
    fn merge_breaks_time_ties_by_device_and_keeps_stray_times() {
        // Walk order is device-major; times at 0, on a bucket edge and at
        // or past the duration (the last segment's end can round past it).
        let walked = [(0.5, 2), (1.0, 2), (0.0, 3), (0.5, 3), (1.25, 3), (0.5, 0)];
        let order: Vec<(f64, u32)> = merge(&walked, 1.0)
            .iter()
            .map(|r| (r.arrival_s, r.device))
            .collect();
        assert_eq!(
            order,
            [(0.0, 3), (0.5, 0), (0.5, 2), (0.5, 3), (1.0, 2), (1.25, 3)]
        );
    }

    #[test]
    fn bucket_merge_equals_the_reference_on_paper_shapes() {
        for scenario in [
            Scenario::Stable,
            Scenario::Unpredictable,
            Scenario::Shifting,
        ] {
            for devices in [1, 20, 160] {
                let spec = WorkloadSpec {
                    devices,
                    ..WorkloadSpec::paper_edge(scenario)
                };
                for seed in [0, 7, 11] {
                    assert_eq!(
                        generate_requests(&spec, seed),
                        reference_generate_requests(&spec, seed),
                        "{scenario:?} × {devices} devices, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn trace_is_sorted_with_sequential_ids() {
        let spec = WorkloadSpec::paper_edge(Scenario::Shifting);
        let reqs = generate_requests(&spec, 7);
        assert!(!reqs.is_empty());
        for (i, pair) in reqs.windows(2).enumerate() {
            assert!(pair[0].arrival_s <= pair[1].arrival_s, "unsorted at {i}");
        }
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert!((r.device as usize) < spec.devices);
            assert!(r.arrival_s >= 0.0 && r.arrival_s < spec.duration_s);
        }
    }

    #[test]
    fn rate_matches_workload_within_jitter() {
        let spec = WorkloadSpec::paper_edge(Scenario::Stable);
        let reqs = generate_requests(&spec, 3);
        // 600 FPS nominal over 25 s, deviation ±30 %: the request count must
        // land inside the deviation envelope with slack for edge effects.
        let n = reqs.len() as f64;
        assert!((600.0 * 25.0 * 0.6..600.0 * 25.0 * 1.4).contains(&n), "{n}");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = WorkloadSpec::paper_edge(Scenario::Unpredictable);
        assert_eq!(generate_requests(&spec, 11), generate_requests(&spec, 11));
        assert_ne!(generate_requests(&spec, 11), generate_requests(&spec, 12));
    }

    #[test]
    fn all_devices_contribute() {
        let spec = WorkloadSpec::paper_edge(Scenario::Stable);
        let reqs = generate_requests(&spec, 1);
        let mut seen = vec![false; spec.devices];
        for r in &reqs {
            seen[r.device as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "silent device in a 30 FPS trace");
    }

    #[test]
    fn zero_rate_workload_is_empty() {
        let spec = WorkloadSpec {
            devices: 4,
            fps_per_device: 0.0,
            duration_s: 10.0,
            scenario: Scenario::Stable,
        };
        assert!(generate_requests(&spec, 1).is_empty());
    }
}
