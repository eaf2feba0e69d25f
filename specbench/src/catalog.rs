//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark prints, with its unit and direction. `BENCHMARK.json`
//! lists the same names; a self-test keeps the two in step.

/// One metric's name, unit and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// Metric name, `[A-Za-z0-9_.-]`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["gen_city", "serve_districts", "train_accum"];

/// End-to-end metrics, printed by every workload's untraced run. What
/// each means on each workload is in `METRICS.md`.
pub const END_TO_END: [Def; 5] = [
    def("setup_s", "s", "lower"),
    def("peak_rss_mib", "MiB", "lower"),
    def("mpx_steps_per_s", "Mpx.steps/s", "higher"),
    def("ops_per_s", "1/s", "higher"),
    def("latency_ms", "ms", "lower"),
];

/// The tensor-backend kernels timed under both backends.
pub const BACKEND_OPS: [&str; 5] = [
    "matmul",
    "matmul_q8",
    "conv2d",
    "sigmoid_slice",
    "tanh_slice",
];

/// `tensor::stats` op kinds reported per training step, the ones that
/// take nearly all of a `default_hourly` step.
pub const TRAIN_OP_KINDS: [&str; 10] = [
    "matmul",
    "matmul_bias_act",
    "conv2d_bias",
    "sigmoid",
    "tanh",
    "mul",
    "add",
    "narrow",
    "concat",
    "add_rowvec",
];

/// Per-layer metrics, printed by every workload's traced run (0 where
/// the workload never enters the layer).
pub fn per_layer() -> Vec<Def> {
    let mut v = vec![
        def("nn.lstm.infer_step_us", "us", "lower"),
        def("nn.lstm.rollout_share", "share", "lower"),
        def("nn.lstm.taped_step_us", "us", "lower"),
        def("nn.conv.encoder_us", "us", "lower"),
        def("nn.param.infer_matmul_f32_us", "us", "lower"),
        def("nn.param.infer_matmul_int8_us", "us", "lower"),
        def("nn.param.resident_weight_bytes_f32", "bytes", "lower"),
        def("nn.param.resident_weight_bytes_int8", "bytes", "lower"),
    ];
    for op in BACKEND_OPS {
        for kind in ["scalar", "simd"] {
            v.push(def(
                leak(format!("tensor.backend.{op}.{kind}.us")),
                "us",
                "lower",
            ));
            v.push(def(
                leak(format!("tensor.backend.{op}.{kind}.gops_computed")),
                "Gop/s",
                "higher",
            ));
            v.push(def(
                leak(format!("tensor.backend.{op}.{kind}.bytes_computed")),
                "bytes",
                "lower",
            ));
        }
    }
    v.extend([
        def("tensor.arena.reuse_ratio", "share", "higher"),
        def("tensor.arena.peak_mib", "MiB", "lower"),
        def("core.generate.worker_busy_share", "share", "higher"),
        def("core.generate.sew_fold_ms", "ms", "lower"),
        def("core.fourier.expand_k1_us", "us", "lower"),
        def("core.fourier.expand_k2_us", "us", "lower"),
        def("core.fourier.basis_cache_bytes", "bytes", "lower"),
        def("geo.patch.extract_us", "us", "lower"),
        def("geo.patch.sew_push_us", "us", "lower"),
        def("geo.io.encode_band_us", "us", "lower"),
        def("core.weights.open_ms", "ms", "lower"),
        def("core.weights.validate_ms", "ms", "lower"),
        def("core.weights.load_ms", "ms", "lower"),
        def("serve.head_ms", "ms", "lower"),
        def("serve.head_to_first_band_ms", "ms", "lower"),
        def("serve.stream_ms", "ms", "lower"),
        def("serve.request_span_ms", "ms", "lower"),
        def("serve.admission_rejects", "count", "lower"),
        def("serve.queue_rejects", "count", "lower"),
        def("obs.retained_span_events_per_request", "count", "lower"),
        def("obs.trace_overhead_ratio", "ratio", "lower"),
        def("core.train.minibatch_ms", "ms", "lower"),
        def("core.train.forward_ms", "ms", "lower"),
        def("core.train.backward_ms", "ms", "lower"),
        def("core.train.optimizer_ms", "ms", "lower"),
    ]);
    for kind in TRAIN_OP_KINDS {
        v.push(def(leak(format!("core.train.op.{kind}_ms")), "ms", "lower"));
    }
    v
}

/// Names built from parts live for the whole (short) process.
fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;
    use std::collections::HashSet;

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let all: Vec<Def> = END_TO_END.iter().copied().chain(per_layer()).collect();
        let mut seen = HashSet::new();
        for d in &all {
            assert!(valid_metric_name(d.name), "{}", d.name);
            assert!(unit_ok(d.unit), "{}: {}", d.name, d.unit);
            assert!(matches!(d.better, "lower" | "higher"), "{}", d.name);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
        }
        assert!(per_layer().len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    /// `BENCHMARK.json` must list exactly this catalogue, in order.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let listed = |section: &str| -> Vec<String> {
            let start = json.find(&format!("\"{section}\"")).expect(section);
            let body = &json[start..];
            let end = body.find(']').expect("section ends");
            body[..end]
                .split("{\"name\": ")
                .skip(1)
                .map(|e| {
                    e.split(", \"bound\"")
                        .next()
                        .unwrap()
                        .trim_end_matches(['}', ',', ' ', '\n'])
                        .to_string()
                })
                .collect()
        };
        let render = |d: &Def| {
            format!(
                "\"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            )
        };
        let e2e: Vec<String> = END_TO_END.iter().map(render).collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<String> = per_layer().iter().map(render).collect();
        assert_eq!(listed("per_layer"), layers);
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
                "{w}"
            );
        }
    }
}
