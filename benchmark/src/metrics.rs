//! The benchmark's names: workloads, end-to-end metrics, per-layer metrics.
//!
//! These tables are the contract `BENCHMARK.json` records; a unit test holds
//! the two equal, and a run fails when it cannot report every name.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// One workload and the reason it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 7] = [
    WorkloadDef {
        name: "engine_batch64",
        why: "BatchRunner (one worker) over a 64-image CNV-W2A2 batch: nn does all the work, no sockets; a kernel or layout change must show here",
    },
    WorkloadDef {
        name: "engine_single_mix",
        why: "batch-1 inference over four graphs (pruned widths off the 64-bit lane, 1-bit weights): catches kernel gains that cost irregular shapes",
    },
    WorkloadDef {
        name: "live_open_25",
        why: "open loop at 25 req/s on one connection, a seventh of capacity: every batch closes on the 20 ms timer, so batcher and poll changes show, kernel changes barely",
    },
    WorkloadDef {
        name: "live_overload_640",
        why: "open loop at 640 req/s, several times capacity: full batches, saturated engine, hot reject path; an idle-time batcher change must not move it",
    },
    WorkloadDef {
        name: "gateway_hop_tiny",
        why: "closed loop through the gateway to two unbatched tiny-model backends: the routing hop is nearly all of the round trip",
    },
    WorkloadDef {
        name: "des_fleet_wide",
        why: "fleet simulation of 32 accelerators under 160 cameras: per-event device scans dominate, where a shared event kernel must show",
    },
    WorkloadDef {
        name: "des_paper",
        why: "paper-scale edge, serve and 4-device fleet runs: per-event policy cost dominates; guards small-N speed and checks the Table-I digest",
    },
];

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these; what one "operation" and one
/// "item" is per workload is in `README.md`.
///
/// `throughput_per_s` and `latency_ms_p50` are read off the best of the
/// run's windows (`run::Primary`). The bounds sit at the contract's ceiling
/// because of the host, not the harness: over ten seeds the interquartile
/// spread reads 0.1-4 % in its quiet phases (`README.md` has the table), but
/// the same build has read a quarter slower for minutes on end, and a bound
/// should be several spreads wide.
pub const END_TO_END: [EndToEndDef; 4] = [
    EndToEndDef {
        name: "throughput_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEndDef {
        name: "latency_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.15,
    },
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

/// Nodes of `topology::cnv_w2a2_cifar10()`, in dataflow order; the traced
/// pass reports one `nn.layer_us.<node>` each.
pub const CNV_LAYERS: [&str; 20] = [
    "conv1", "thresh1", "conv2", "thresh2", "pool1", "conv3", "thresh3", "conv4", "thresh4",
    "pool2", "conv5", "thresh5", "conv6", "thresh6", "fc1", "thresh7", "fc2", "thresh8", "fc3",
    "top1",
];

/// Graphs of `engine_single_mix`, in round-robin order.
pub const MIX_MODELS: [&str; 4] = ["cnv_w2a2", "cnv_w2a2_p25", "cnv_w2a2_p50", "cnv_w1a2_c43"];

/// Per-layer metrics with a fixed name.
const PER_LAYER_FIXED: [(&str, &str, Better); 52] = [
    ("cpu_ms_per_op", "ms", Lower),
    ("nn.macs_per_image", "count", Lower),
    ("nn.scratch_bytes", "bytes", Lower),
    ("nn.batch_runner_scaling", "ratio", Higher),
    ("nn.packed_gemm_gops", "Gop/s", Higher),
    ("nn.pack_act_rows_gbps", "GB/s", Higher),
    ("nn.engine_build_ms", "ms", Lower),
    ("verify.graph_lint_ms", "ms", Lower),
    ("proto.encode_request_ns", "ns", Lower),
    ("proto.decode_request_ns", "ns", Lower),
    ("proto.reader_ns_per_frame", "ns", Lower),
    ("net.queue_ms_p50", "ms", Lower),
    ("net.service_ms_p50", "ms", Lower),
    ("net.server_latency_ms_p50", "ms", Lower),
    ("net.wire_ms_p50", "ms", Lower),
    ("net.mean_batch_size", "count", Higher),
    ("net.batches", "count", Lower),
    ("net.engine_busy_ratio", "ratio", Lower),
    ("net.shed_ratio", "ratio", Lower),
    ("net.rejects_queue_full", "count", Lower),
    ("net.ready_ms", "ms", Lower),
    ("net.shutdown_ms", "ms", Lower),
    ("gateway.hop_ms_p50", "ms", Lower),
    ("gateway.backend_rtt_ms_p50", "ms", Lower),
    ("gateway.direct_rtt_ms_p50", "ms", Lower),
    ("gateway.retries", "count", Lower),
    ("gateway.routed_share_cv", "ratio", Lower),
    ("gateway.ready_ms", "ms", Lower),
    ("gateway.shutdown_ms", "ms", Lower),
    ("client.rtt_ms_p95", "ms", Lower),
    ("client.rtt_ms_p99", "ms", Lower),
    ("client.send_lag_ms_p99", "ms", Lower),
    ("client.within_limit_ratio", "ratio", Higher),
    ("client.sent", "count", Higher),
    ("client.ok", "count", Higher),
    ("client.rejected", "count", Lower),
    ("client.missing", "count", Lower),
    ("fleet.run_ms", "ms", Lower),
    ("fleet.ns_per_request", "ns", Lower),
    ("fleet.width_scaling", "ratio", Lower),
    ("fleet.events_per_s", "1/s", Higher),
    ("serve.run_ms", "ms", Lower),
    ("serve.arrivals_gen_ms", "ms", Lower),
    ("edge.run_ms", "ms", Lower),
    ("core.decide_ns", "ns", Lower),
    ("core.library_generate_ms", "ms", Lower),
    ("core.library_json_roundtrip_ms", "ms", Lower),
    ("telemetry.recorder_ns_per_event", "ns", Lower),
    ("telemetry.trace_overhead_ratio", "ratio", Lower),
    ("host.nproc", "count", Higher),
    ("host.calib_popcount_ns", "ns", Lower),
    ("host.calib_gemm_ns", "ns", Lower),
];

/// A per-layer metric: a cost inside one crate. No bound.
pub struct PerLayerDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// Every per-layer metric, in reporting order.
pub fn per_layer() -> Vec<PerLayerDef> {
    let timed = |prefix: &str, names: &[&str]| -> Vec<PerLayerDef> {
        names
            .iter()
            .map(|n| PerLayerDef {
                name: format!("{prefix}.{n}"),
                unit: "us",
                better: Lower,
            })
            .collect()
    };
    let mut all = timed("nn.layer_us", &CNV_LAYERS);
    all.extend(timed("nn.infer_us_p50", &MIX_MODELS));
    all.extend(
        PER_LAYER_FIXED
            .iter()
            .map(|&(name, unit, better)| PerLayerDef {
                name: name.to_string(),
                unit,
                better,
            }),
    );
    all
}

/// Seconds one run measures: `run_seconds` of the contract and the default
/// of `--seconds`.
pub const RUN_SECONDS: u32 = 15;

/// The text of `BENCHMARK.json`, written from the tables above
/// (`--print-contract`), so the file and the command cannot name different
/// things.
pub fn contract_json() -> String {
    let rows = |rows: Vec<String>| rows.join(",\n");
    let workloads = rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    );
    let end_to_end = rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.label(),
                    m.bound
                )
            })
            .collect(),
    );
    let layers = rows(
        per_layer()
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.label()
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{end_to_end}\n  ],\n  \"per_layer\": [\n{layers}\n  ]\n}}\n"
    )
}

fn unit_of(name: &str) -> Option<&'static str> {
    if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
        return Some(m.unit);
    }
    if let Some(&(_, unit, _)) = PER_LAYER_FIXED.iter().find(|m| m.0 == name) {
        return Some(unit);
    }
    let timed = |prefix: &str, names: &[&str]| {
        name.strip_prefix(prefix)
            .is_some_and(|n| names.contains(&n))
    };
    (timed("nn.layer_us.", &CNV_LAYERS) || timed("nn.infer_us_p50.", &MIX_MODELS)).then_some("us")
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Measured {
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a count or a single reading).
    pub samples: usize,
    /// Free-form annotation shown beside the value (e.g. the kernel label).
    pub note: String,
}

/// The metrics one run measured, by name.
#[derive(Debug, Default)]
pub struct MetricSet(BTreeMap<String, Measured>);

impl MetricSet {
    /// Records `name`. Names outside the tables above are a harness bug.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.set_noted(name, value, samples, "");
    }

    pub fn set_noted(&mut self, name: &str, value: f64, samples: usize, note: &str) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("metric `{name}` is not in the tables"));
        self.0.insert(
            name.to_string(),
            Measured {
                value,
                unit,
                samples,
                note: note.to_string(),
            },
        );
    }

    /// Takes every metric of `other` this set has not measured itself.
    pub fn fill_from(&mut self, other: MetricSet) {
        for (name, measured) in other.0 {
            self.0.entry(name).or_insert(measured);
        }
    }

    pub fn get(&self, name: &str) -> Option<&Measured> {
        self.0.get(name)
    }

    /// Human-readable listing: name, value, unit, sample count.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, m) in &self.0 {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  [{}]", m.note)
            };
            writeln!(
                out,
                "  {name:<36} {:>16.4} {:<6} n={}{note}",
                m.value, m.unit, m.samples
            )
            .expect("writing to a String");
        }
        out
    }

    /// The `metrics` object of the result line over exactly `names`, or the
    /// names that were not measured or are not finite numbers.
    pub fn to_json<'a>(&self, names: impl Iterator<Item = &'a str>) -> Result<String, Vec<String>> {
        let mut fields = Vec::new();
        let mut missing = Vec::new();
        for name in names {
            match self.0.get(name) {
                Some(m) if m.value.is_finite() => fields.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.value, m.unit
                )),
                _ => missing.push(name.to_string()),
            }
        }
        if missing.is_empty() {
            Ok(format!("{{{}}}", fields.join(", ")))
        } else {
            Err(missing)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_charset() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name.to_string()), "{} repeats", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name.to_string()), "{} repeats", m.name);
        }
        let layers = per_layer();
        assert!(layers.len() <= 128);
        for m in &layers {
            assert!(name_ok(&m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "{} repeats", m.name);
        }
        assert!(!name_ok("conv2[packed]") && !name_ok(".x") && !name_ok("a b"));
    }

    /// `BENCHMARK.json` is exactly what the tables (and so the command)
    /// name, and parses to the keys the contract asks for.
    #[test]
    fn benchmark_json_equals_the_tables() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(
            on_disk,
            contract_json(),
            "regenerate with: cargo run --manifest-path benchmark/Cargo.toml -- --print-contract > BENCHMARK.json"
        );
        let doc = serde_json::from_str_value(on_disk).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let count = |key: &str| match doc.get(key) {
            Some(Value::Array(items)) => items.len(),
            other => panic!("`{key}` is not an array: {other:?}"),
        };
        assert_eq!(count("workloads"), WORKLOADS.len());
        assert_eq!(count("end_to_end"), END_TO_END.len());
        assert_eq!(count("per_layer"), per_layer().len());
        assert!(on_disk.len() <= 64 * 1024);
    }

    #[test]
    fn result_json_demands_every_name() {
        let mut set = MetricSet::default();
        set.set("setup_s", 0.25, 5);
        set.set("latency_ms_p50", f64::NAN, 1);
        let json = set.to_json(["setup_s"].into_iter()).expect("complete");
        assert_eq!(json, "{\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}");
        let missing = set
            .to_json(["setup_s", "latency_ms_p50", "peak_rss_mb"].into_iter())
            .expect_err("two names lack a finite value");
        assert_eq!(missing, ["latency_ms_p50", "peak_rss_mb"]);
    }
}
