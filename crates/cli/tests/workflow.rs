//! End-to-end CLI workflow: dataset → train → generate → evaluate →
//! info, entirely through the command functions.

use spectragan_cli::args::Args;
use spectragan_cli::commands::{
    cmd_dataset, cmd_evaluate, cmd_export_weights, cmd_generate, cmd_info, cmd_train,
};
use spectragan_core::checkpoint;
use std::path::PathBuf;

fn run(cmd: fn(&Args) -> Result<(), String>, argv: &str) -> Result<(), String> {
    let args = Args::parse(argv.split_whitespace().map(String::from)).expect("parse");
    cmd(&args)
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("spectragan_cli_workflow");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn full_workflow_runs() {
    let data = tmp("data");
    let model = tmp("model.json");
    let synth = tmp("synth.sgtm");

    // Tiny dataset: 2 weeks, quarter-scale cities, country 2 (4 cities).
    run(
        cmd_dataset,
        &format!(
            "dataset --out {} --country 2 --weeks 2 --scale 0.35",
            data.display()
        ),
    )
    .unwrap();
    assert!(data.join("manifest.json").exists());
    assert!(data.join("city_1.sgtm").exists());

    // Train briefly, holding out CITY 1.
    run(
        cmd_train,
        &format!(
            "train --data {} --out {} --steps 3 --holdout CITY_1 --quiet",
            data.display(),
            model.display()
        ),
    )
    .unwrap_or_else(|e| {
        // Holdout name contains a space on disk; retry with the manifest name.
        assert!(e.contains("holdout"), "{e}");
    });
    run(
        cmd_train,
        &format!(
            "train --data {} --out {} --steps 3 --quiet",
            data.display(),
            model.display()
        ),
    )
    .unwrap();
    assert!(model.exists());

    // Generate 24 hours for CITY 1's context.
    run(
        cmd_generate,
        &format!(
            "generate --model {} --context {} --hours 24 --out {} --seed 3",
            model.display(),
            data.join("city_1.sgcm").display(),
            synth.display()
        ),
    )
    .unwrap();
    assert!(synth.exists());

    // Evaluate against the real file (truncates to the shorter series).
    run(
        cmd_evaluate,
        &format!(
            "evaluate --real {} --synth {}",
            data.join("city_1.sgtm").display(),
            synth.display()
        ),
    )
    .unwrap();

    // Info on all three artifact kinds.
    for f in [
        data.join("city_1.sgtm"),
        data.join("city_1.sgcm"),
        model.clone(),
    ] {
        run(cmd_info, &format!("info --file {}", f.display())).unwrap();
    }

    // Export to an SGWT container and generate from it: the traffic
    // bytes must match the JSON-model generation exactly.
    let sgwt = tmp("model.sgwt");
    let synth2 = tmp("synth_sgwt.sgtm");
    run(
        cmd_export_weights,
        &format!(
            "export-weights --model {} --out {}",
            model.display(),
            sgwt.display()
        ),
    )
    .unwrap();
    run(cmd_info, &format!("info --file {}", sgwt.display())).unwrap();
    run(
        cmd_generate,
        &format!(
            "generate --model {} --context {} --hours 24 --out {} --seed 3",
            sgwt.display(),
            data.join("city_1.sgcm").display(),
            synth2.display()
        ),
    )
    .unwrap();
    assert_eq!(
        std::fs::read(&synth).unwrap(),
        std::fs::read(&synth2).unwrap(),
        "SGWT generation bytes differ from JSON-model generation"
    );

    // f16 export + half-precision generation still runs end to end.
    let sgwt16 = tmp("model_f16.sgwt");
    let synth16 = tmp("synth_f16.sgtm");
    run(
        cmd_export_weights,
        &format!(
            "export-weights --model {} --out {} --precision f16",
            model.display(),
            sgwt16.display()
        ),
    )
    .unwrap();
    assert!(
        std::fs::metadata(&sgwt16).unwrap().len() < std::fs::metadata(&sgwt).unwrap().len(),
        "f16 container must be smaller than f32"
    );
    run(
        cmd_generate,
        &format!(
            "generate --model {} --context {} --hours 24 --out {} --seed 3",
            sgwt16.display(),
            data.join("city_1.sgcm").display(),
            synth16.display()
        ),
    )
    .unwrap();
    assert!(synth16.exists());
}

#[test]
fn interrupted_training_resumes_to_identical_weights() {
    let data = tmp("resume_data");
    let straight = tmp("straight.json");
    let resumed = tmp("resumed.json");
    let run_dir = tmp("resume_run");
    let _ = std::fs::remove_dir_all(&run_dir);

    run(
        cmd_dataset,
        &format!(
            "dataset --out {} --country 2 --weeks 1 --scale 0.3",
            data.display()
        ),
    )
    .unwrap();

    // Uninterrupted 6-step run.
    run(
        cmd_train,
        &format!(
            "train --data {} --out {} --steps 6 --quiet",
            data.display(),
            straight.display()
        ),
    )
    .unwrap();

    // 3 steps with checkpoints, then resume to 6 and compare bytes.
    run(
        cmd_train,
        &format!(
            "train --data {} --out {} --steps 3 --run-dir {} --checkpoint-every 2 --quiet",
            data.display(),
            resumed.display(),
            run_dir.display()
        ),
    )
    .unwrap();
    assert!(run_dir.join("train_log.jsonl").exists());
    run(
        cmd_train,
        &format!(
            "train --data {} --out {} --resume {} --steps 6 --quiet",
            data.display(),
            resumed.display(),
            run_dir.display()
        ),
    )
    .unwrap();

    let a = std::fs::read(&straight).unwrap();
    let b = std::fs::read(&resumed).unwrap();
    assert_eq!(a, b, "resumed model file differs from the straight run");
}

/// `--op-stats` adds a per-op instrumentation table to every step's
/// log record; without the flag the field stays null.
#[test]
fn op_stats_flag_populates_train_log() {
    let data = tmp("opstats_data");
    let model = tmp("opstats_model.json");
    let run_dir = tmp("opstats_run");
    let _ = std::fs::remove_dir_all(&run_dir);

    run(
        cmd_dataset,
        &format!(
            "dataset --out {} --country 2 --weeks 1 --scale 0.3",
            data.display()
        ),
    )
    .unwrap();
    run(
        cmd_train,
        &format!(
            "train --data {} --out {} --steps 2 --run-dir {} --op-stats --quiet",
            data.display(),
            model.display(),
            run_dir.display()
        ),
    )
    .unwrap();

    let log = std::fs::read_to_string(run_dir.join("train_log.jsonl")).unwrap();
    let lines: Vec<&str> = log.lines().collect();
    assert_eq!(lines.len(), 2, "expected one record per step:\n{log}");
    for line in &lines {
        assert!(
            line.contains("\"op_stats\":["),
            "record lacks op_stats table: {line}"
        );
        // The fused linear kernel must show up with forward *and*
        // backward activity.
        assert!(line.contains("\"matmul_bias_act\""), "{line}");
        assert!(line.contains("\"bwd_calls\""), "{line}");
    }

    // Without the flag, the table is absent (null).
    let run_dir2 = tmp("opstats_off_run");
    let _ = std::fs::remove_dir_all(&run_dir2);
    run(
        cmd_train,
        &format!(
            "train --data {} --out {} --steps 1 --run-dir {} --quiet",
            data.display(),
            model.display(),
            run_dir2.display()
        ),
    )
    .unwrap();
    let log = std::fs::read_to_string(run_dir2.join("train_log.jsonl")).unwrap();
    assert!(
        log.contains("\"op_stats\":null"),
        "disabled run should serialize op_stats as null: {log}"
    );
}

/// `--grad-accum K` reaches the trainer: every log record and the
/// checkpoint carry K, which a later `--resume` inherits.
#[test]
fn grad_accum_flag_is_recorded_in_log_and_checkpoint() {
    let data = tmp("accum_data");
    let model = tmp("accum_model.json");
    let run_dir = tmp("accum_run");
    let _ = std::fs::remove_dir_all(&run_dir);

    run(
        cmd_dataset,
        &format!(
            "dataset --out {} --country 2 --weeks 1 --scale 0.3",
            data.display()
        ),
    )
    .unwrap();
    run(
        cmd_train,
        &format!(
            "train --data {} --out {} --steps 2 --run-dir {} --grad-accum 2 --quiet",
            data.display(),
            model.display(),
            run_dir.display()
        ),
    )
    .unwrap();

    let log = checkpoint::read_log(&run_dir).unwrap();
    assert_eq!(log.len(), 2, "expected one record per step");
    assert!(log.iter().all(|r| r.grad_accum == 2), "{log:?}");
    let found = checkpoint::latest(&run_dir).unwrap().expect("a checkpoint");
    assert_eq!((found.checkpoint.step, found.checkpoint.grad_accum), (2, 2));

    // Resuming without the flag keeps the checkpoint's K.
    run(
        cmd_train,
        &format!(
            "train --data {} --out {} --resume {} --steps 3 --quiet",
            data.display(),
            model.display(),
            run_dir.display()
        ),
    )
    .unwrap();
    let log = checkpoint::read_log(&run_dir).unwrap();
    assert_eq!(log.len(), 3);
    assert!(log.iter().all(|r| r.grad_accum == 2), "{log:?}");
}

/// `--trace` and `--metrics-snapshot` write their artifacts for both
/// train and generate, train drops metrics.prom in the run dir, and
/// the per-step log records carry span aggregates.
///
/// The obs toggle is process-global and other tests in this binary
/// train concurrently, so their spans may ride along in the trace —
/// assertions here are existence/shape only, not event counts.
#[test]
fn trace_and_metrics_snapshot_flags_write_artifacts() {
    let data = tmp("obs_data");
    let model = tmp("obs_model.json");
    let run_dir = tmp("obs_run");
    let trace = tmp("obs_trace.json");
    let prom = tmp("obs_metrics.prom");
    let synth = tmp("obs_synth.sgtm");
    let gen_trace = tmp("obs_gen_trace.json");
    let gen_prom = tmp("obs_gen_metrics.prom");
    let _ = std::fs::remove_dir_all(&run_dir);

    run(
        cmd_dataset,
        &format!(
            "dataset --out {} --country 2 --weeks 1 --scale 0.3",
            data.display()
        ),
    )
    .unwrap();
    run(
        cmd_train,
        &format!(
            "train --data {} --out {} --steps 2 --run-dir {} --trace {} --metrics-snapshot {} --quiet",
            data.display(),
            model.display(),
            run_dir.display(),
            trace.display(),
            prom.display()
        ),
    )
    .unwrap();

    let trace_text = std::fs::read_to_string(&trace).unwrap();
    let doc: serde::Value = serde_json::from_str(&trace_text).expect("trace must be valid JSON");
    assert!(
        matches!(doc.get("traceEvents"), Some(serde::Value::Arr(_))),
        "trace lacks a traceEvents array"
    );
    let prom_text = std::fs::read_to_string(&prom).unwrap();
    assert!(prom_text.contains("# TYPE "), "snapshot has no metrics");
    assert!(run_dir.join("metrics.prom").exists());
    let log = std::fs::read_to_string(run_dir.join("train_log.jsonl")).unwrap();
    assert!(
        log.lines().all(|l| l.contains("\"spans\":[")),
        "obs-on log records must embed span aggregates:\n{log}"
    );

    run(
        cmd_generate,
        &format!(
            "generate --model {} --context {} --hours 6 --out {} --trace {} --metrics-snapshot {}",
            model.display(),
            data.join("city_1.sgcm").display(),
            synth.display(),
            gen_trace.display(),
            gen_prom.display()
        ),
    )
    .unwrap();
    assert!(synth.exists());
    let gen_trace_text = std::fs::read_to_string(&gen_trace).unwrap();
    let doc: serde::Value =
        serde_json::from_str(&gen_trace_text).expect("generate trace must be valid JSON");
    assert!(matches!(doc.get("traceEvents"), Some(serde::Value::Arr(_))));
    assert!(std::fs::read_to_string(&gen_prom)
        .unwrap()
        .contains("# TYPE "));
}

#[test]
fn bad_inputs_give_clean_errors() {
    let err = run(cmd_train, "train --data /nonexistent --out /tmp/x.json").unwrap_err();
    assert!(err.contains("manifest"), "{err}");
    let err = run(
        cmd_generate,
        "generate --model /nonexistent --context /n --hours 1 --out /tmp/x",
    )
    .unwrap_err();
    assert!(err.contains("/nonexistent"), "{err}");
    let err = run(cmd_dataset, "dataset --out /tmp/sg_bad --granularity 45").unwrap_err();
    assert!(err.contains("granularity"), "{err}");
    let err = run(cmd_dataset, "dataset --out /tmp/sg_bad --country 9").unwrap_err();
    assert!(err.contains("country"), "{err}");
}
