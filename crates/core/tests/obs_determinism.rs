//! The observability layer's zero-interference contract, end to end:
//! turning spans/metrics/trace export on must not change a single bit
//! of training weights or generated traffic, at any thread count —
//! instrumentation reads the computation, never participates in it.
//!
//! Obs state and `pool::set_threads` are process-global, so every test
//! here holds `LOCK` (other integration-test binaries are separate
//! processes and cannot interfere).

use spectragan_core::{checkpoint, SpectraGan, SpectraGanConfig, TrainConfig, TrainOptions};
use spectragan_geo::City;
use spectragan_obs as obs;
use spectragan_synthdata::{generate_city, CityConfig, DatasetConfig};
use spectragan_tensor::pool;
use std::path::PathBuf;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn tiny_city(seed: u64) -> City {
    let ds = DatasetConfig {
        weeks: 1,
        steps_per_hour: 1,
        size_scale: 0.36,
    };
    generate_city(
        &CityConfig {
            name: format!("OBS{seed}"),
            height: 17,
            width: 17,
            seed,
        },
        &ds,
    )
}

fn tc() -> TrainConfig {
    TrainConfig {
        steps: 4,
        batch_patches: 2,
        lr: 3e-3,
        seed: 11,
    }
}

fn weight_bits(model: &SpectraGan) -> Vec<u32> {
    model
        .store()
        .iter()
        .flat_map(|(_, _, t)| t.data().iter().map(|v| v.to_bits()))
        .collect()
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("spectragan_obs_determinism")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Training with the full export pipeline on (spans → train_log.jsonl,
/// trace file, metrics.prom) yields weights byte-identical to an
/// uninstrumented run, at 1 and 4 threads — and the exports themselves
/// are complete and well-formed.
#[test]
fn train_weights_are_bit_identical_with_obs_on() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cities = [tiny_city(3)];

    for threads in [1usize, 4] {
        pool::set_threads(Some(threads));

        let mut reference = SpectraGan::new(SpectraGanConfig::tiny(), 0);
        reference
            .train_with(&cities, &tc(), &TrainOptions::default())
            .unwrap();
        let reference = weight_bits(&reference);

        let dir = tmp_dir(&format!("train_t{threads}"));
        let trace_path = dir.join("trace.json");
        let prom_path = dir.join("snapshot.prom");
        let mut instrumented = SpectraGan::new(SpectraGanConfig::tiny(), 0);
        instrumented
            .train_with(
                &cities,
                &tc(),
                &TrainOptions {
                    run_dir: Some(&dir),
                    checkpoint_every: 2,
                    trace: Some(trace_path.as_path()),
                    metrics_snapshot: Some(prom_path.as_path()),
                    ..TrainOptions::default()
                },
            )
            .unwrap();
        pool::set_threads(None);
        assert_eq!(
            weight_bits(&instrumented),
            reference,
            "obs-on training diverged from obs-off at {threads} threads"
        );
        assert!(
            !obs::enabled(),
            "ObsGuard must restore the disabled state after training"
        );

        // Trace file parses and holds the step span tree.
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        let doc: serde::Value = serde_json::from_str(&trace).expect("trace must parse");
        let events = match doc.get("traceEvents") {
            Some(serde::Value::Arr(items)) => items,
            other => panic!("traceEvents missing: {other:?}"),
        };
        assert!(!events.is_empty(), "trace carries no events");
        for name in ["train_step", "forward", "backward", "optimizer"] {
            assert!(
                events
                    .iter()
                    .any(|e| e.get("name") == Some(&serde::Value::Str(name.into()))),
                "trace is missing {name} spans"
            );
        }

        // Both Prometheus snapshots exist; the run-dir copy is the
        // same content as the --metrics-snapshot copy.
        let prom = std::fs::read_to_string(&prom_path).unwrap();
        let run_dir_prom = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
        assert_eq!(prom, run_dir_prom);
        assert!(prom.contains("spectragan_optim_steps_total"));

        // Every per-step log record carries its aggregated span tree.
        let log = checkpoint::read_log(&dir).unwrap();
        assert_eq!(log.len(), tc().steps);
        for r in &log {
            let spans = r.spans.as_ref().expect("obs-on records must have spans");
            assert!(
                spans.iter().any(|s| s.path == "train_step/forward"),
                "step {} spans lack train_step/forward: {spans:?}",
                r.step
            );
            assert!(spans.iter().all(|s| s.calls > 0));
        }
    }
}

/// A `grad_accum` 4 run with op stats and spans on: at 2 threads half
/// the rounds run on a spawned thread, yet every step's per-kind op
/// call counts and span tree match the 1-thread run, and the rounds'
/// phases stay under the step span.
#[test]
fn grad_accum_op_stats_and_spans_are_whole_at_any_thread_count() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cities = [tiny_city(3)];
    let run = |threads: usize| {
        pool::set_threads(Some(threads));
        let dir = tmp_dir(&format!("accum_t{threads}"));
        let mut model = SpectraGan::new(SpectraGanConfig::tiny(), 0);
        model
            .train_with(
                &cities,
                &tc(),
                &TrainOptions {
                    run_dir: Some(&dir),
                    op_stats: true,
                    obs: true,
                    grad_accum: 4,
                    ..TrainOptions::default()
                },
            )
            .unwrap();
        pool::set_threads(None);
        (weight_bits(&model), checkpoint::read_log(&dir).unwrap())
    };
    let (bits_1, log_1) = run(1);
    let (bits_2, log_2) = run(2);
    assert_eq!(
        bits_1, bits_2,
        "grad_accum=4 differs between 1 and 2 threads"
    );
    assert_eq!(log_1.len(), tc().steps);
    assert_eq!(log_2.len(), tc().steps);
    for (a, b) in log_1.iter().zip(&log_2) {
        // Rows without calls only carry arena traffic, which does
        // differ: a spawned thread starts with an empty arena.
        let calls = |r: &checkpoint::LogRecord| -> Vec<(String, u64, u64)> {
            r.op_stats
                .as_ref()
                .expect("op-stats records must have a table")
                .iter()
                .filter(|e| e.fwd_calls + e.bwd_calls > 0)
                .map(|e| (e.op.clone(), e.fwd_calls, e.bwd_calls))
                .collect()
        };
        assert_eq!(calls(a), calls(b), "step {} op call counts", a.step);
        let tree = |r: &checkpoint::LogRecord| -> Vec<(String, u64)> {
            r.spans
                .as_ref()
                .expect("obs-on records must have spans")
                .iter()
                .map(|s| (s.path.clone(), s.calls))
                .collect()
        };
        assert_eq!(tree(a), tree(b), "step {} span tree", a.step);
        for phase in ["minibatch", "forward", "backward"] {
            let path = format!("train_step/{phase}");
            let calls = tree(b)
                .iter()
                .find(|(p, _)| *p == path)
                .map(|(_, c)| *c)
                .unwrap_or(0);
            assert!(calls >= 4, "step {}: {path} ran {calls} times", b.step);
        }
    }
}

/// An uninstrumented run writes log records without span data — the
/// field stays absent rather than empty, so the log schema is
/// backward-compatible.
#[test]
fn obs_off_log_records_have_no_spans() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cities = [tiny_city(3)];
    let dir = tmp_dir("plain");
    pool::set_threads(Some(1));
    let mut model = SpectraGan::new(SpectraGanConfig::tiny(), 0);
    model
        .train_with(
            &cities,
            &tc(),
            &TrainOptions {
                run_dir: Some(&dir),
                ..TrainOptions::default()
            },
        )
        .unwrap();
    pool::set_threads(None);
    let log = checkpoint::read_log(&dir).unwrap();
    assert_eq!(log.len(), tc().steps);
    assert!(log.iter().all(|r| r.spans.is_none()));
    assert!(
        !dir.join("metrics.prom").exists(),
        "obs-off runs must not write metrics.prom"
    );
}

/// Generation under a live [`obs::ObsGuard`] emits a full span tree
/// yet produces traffic byte-identical to the unobserved run, at 1
/// and 4 threads.
#[test]
fn generation_is_bit_identical_with_obs_on() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let model = SpectraGan::new(SpectraGanConfig::tiny(), 2);
    let c = tiny_city(5);

    for threads in [1usize, 4] {
        pool::set_threads(Some(threads));
        let reference = model.generate(&c.context, 30, 9);

        let guard = obs::ObsGuard::new(true);
        obs::drain_events();
        let observed = model.generate(&c.context, 30, 9);
        let events = obs::drain_events();
        drop(guard);
        pool::set_threads(None);

        assert_eq!(
            observed.data(),
            reference.data(),
            "obs-on generation diverged at {threads} threads"
        );
        for name in ["generate", "patch_chunk", "sew_fold", "sew_finish"] {
            assert!(
                events.iter().any(|e| e.name == name),
                "generation span tree lacks {name} at {threads} threads"
            );
        }
        // Chunk spans land on worker threads yet all arrive: one per
        // patch chunk, linked under the run root.
        let root = events.iter().find(|e| e.name == "generate").unwrap();
        assert!(events
            .iter()
            .filter(|e| e.name == "patch_chunk")
            .all(|e| e.parent == root.id || e.parent == 0));
    }
}
