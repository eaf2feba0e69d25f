//! The crash-safe training contract, end to end at the library level:
//!
//! * **Bit-identical restarts** — training N steps uninterrupted and
//!   training k < N steps, "dying", and resuming from the run directory
//!   produce byte-for-byte identical weights, for every kill point and
//!   across thread counts and gradient-accumulation factors (the
//!   per-step `(seed, step, lane)` RNG plus the deterministic pool make
//!   this exact, not approximate).
//! * **Gradient accumulation** — `grad_accum` micro-rounds fold
//!   deterministically at any thread count, really change the update,
//!   are checkpointed, and must match on resume.
//! * **Corruption fallback** — a damaged newest snapshot is skipped
//!   with a reason and the previous one resumes, still bit-identically.
//! * **Divergence guard** — NaN weights or a tiny gradient-norm budget
//!   trip the guard, log events, and fail with a typed error after the
//!   RNG re-rolls are exhausted; healthy runs log zero events.

use spectragan_core::{
    checkpoint, CoreError, SpectraGan, SpectraGanConfig, TrainConfig, TrainOptions,
};
use spectragan_geo::City;
use spectragan_synthdata::{generate_city, CityConfig, DatasetConfig};
use spectragan_tensor::pool;
use std::path::PathBuf;

/// `pool::set_threads` is process-global; serialize tests that sweep it.
static POOL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

const STEPS: usize = 6;

fn tiny_city(seed: u64) -> City {
    let ds = DatasetConfig {
        weeks: 1,
        steps_per_hour: 1,
        size_scale: 0.36,
    };
    generate_city(
        &CityConfig {
            name: format!("CK{seed}"),
            height: 17,
            width: 17,
            seed,
        },
        &ds,
    )
}

fn tc() -> TrainConfig {
    TrainConfig {
        steps: STEPS,
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
        .join("spectragan_ckpt_resume")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Trains a fresh model for [`STEPS`] steps with `grad_accum`
/// micro-rounds and no run directory; returns the final weight bits.
fn train_straight(cities: &[City], grad_accum: usize) -> Vec<u32> {
    let mut model = SpectraGan::new(SpectraGanConfig::tiny(), 0);
    let opts = TrainOptions {
        grad_accum,
        ..TrainOptions::default()
    };
    let stats = model.train_with(cities, &tc(), &opts).unwrap();
    assert_eq!(stats.d_loss.len(), STEPS);
    weight_bits(&model)
}

/// Trains `steps` steps into `run_dir` (checkpoint every 2) with
/// `grad_accum` micro-rounds, starting fresh, and returns nothing — the
/// state lives in the directory.
fn run_until(cities: &[City], run_dir: &std::path::Path, steps: usize, grad_accum: usize) {
    let mut model = SpectraGan::new(SpectraGanConfig::tiny(), 0);
    let mut t = tc();
    t.steps = steps;
    model
        .train_with(
            cities,
            &t,
            &TrainOptions {
                run_dir: Some(run_dir),
                checkpoint_every: 2,
                grad_accum,
                ..TrainOptions::default()
            },
        )
        .unwrap();
}

/// Resumes from `run_dir`'s newest checkpoint with `grad_accum`
/// micro-rounds and trains to [`STEPS`]; returns the final weight bits.
fn resume_to_end(cities: &[City], run_dir: &std::path::Path, grad_accum: usize) -> Vec<u32> {
    let found = checkpoint::latest(run_dir).unwrap().expect("a checkpoint");
    assert_eq!(found.checkpoint.grad_accum, grad_accum, "K is checkpointed");
    let mut model = SpectraGan::from_checkpoint(&found.checkpoint).unwrap();
    model
        .train_with(
            cities,
            &tc(),
            &TrainOptions {
                run_dir: Some(run_dir),
                checkpoint_every: 2,
                resume_from: Some(&found.checkpoint),
                grad_accum,
                ..TrainOptions::default()
            },
        )
        .unwrap();
    weight_bits(&model)
}

#[test]
fn resume_is_bit_identical_for_every_kill_point_and_thread_count() {
    let cities = [tiny_city(3)];
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    for grad_accum in [1, 2] {
        pool::set_threads(Some(1));
        let reference = train_straight(&cities, grad_accum);

        // Kill after k steps (k = 1 lands before the first periodic
        // checkpoint would be due; odd k resumes from an earlier
        // snapshot).
        for k in [1, 2, 3, 5] {
            for threads in [1, 4] {
                pool::set_threads(Some(threads));
                let dir = tmp_dir(&format!("kill{k}_t{threads}_k{grad_accum}"));
                run_until(&cities, &dir, k, grad_accum);
                let resumed = resume_to_end(&cities, &dir, grad_accum);
                pool::set_threads(None);
                assert_eq!(
                    resumed, reference,
                    "resume after k={k} at {threads} threads with grad_accum={grad_accum} is \
                     not bit-identical"
                );
            }
        }
    }
}

#[test]
fn grad_accum_is_thread_invariant_and_changes_the_update() {
    let cities = [tiny_city(3), tiny_city(8)];
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pool::set_threads(Some(1));
    let k2_t1 = train_straight(&cities, 2);
    let k1 = train_straight(&cities, 1);
    pool::set_threads(Some(4));
    let k2_t4 = train_straight(&cities, 2);
    pool::set_threads(None);
    assert_eq!(k2_t1, k2_t4, "grad_accum=2 differs between 1 and 4 threads");
    assert_ne!(
        k2_t1, k1,
        "grad_accum=2 must actually change the update (different minibatch average)"
    );
}

#[test]
fn resume_with_different_grad_accum_is_refused() {
    let cities = [tiny_city(3)];
    let dir = tmp_dir("accum_refuse");
    run_until(&cities, &dir, 2, 2);
    let found = checkpoint::latest(&dir).unwrap().unwrap();
    assert_eq!(found.checkpoint.grad_accum, 2);
    let mut model = SpectraGan::from_checkpoint(&found.checkpoint).unwrap();
    let err = model
        .train_with(
            &cities,
            &tc(),
            &TrainOptions {
                resume_from: Some(&found.checkpoint),
                grad_accum: 1,
                ..TrainOptions::default()
            },
        )
        .expect_err("must refuse");
    assert!(matches!(err, CoreError::Checkpoint(_)), "{err}");
    assert!(err.to_string().contains("grad_accum"), "{err}");
}

#[test]
fn zero_grad_accum_is_a_typed_error() {
    let cities = [tiny_city(3)];
    let mut model = SpectraGan::new(SpectraGanConfig::tiny(), 0);
    let before = weight_bits(&model);
    let err = model
        .train_with(
            &cities,
            &tc(),
            &TrainOptions {
                grad_accum: 0,
                ..TrainOptions::default()
            },
        )
        .expect_err("grad_accum 0 must be refused");
    assert!(matches!(err, CoreError::InvalidOptions(_)), "{err}");
    assert_eq!(weight_bits(&model), before, "no step may run");
}

#[test]
fn corrupt_newest_snapshot_falls_back_and_stays_bit_identical() {
    let cities = [tiny_city(3)];
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pool::set_threads(Some(1));
    let reference = train_straight(&cities, 1);

    // 5 steps with checkpoint_every = 2 leaves snapshots {4, 5}
    // (RETAIN = 2). Damage the newest; resume must use step 4.
    let dir = tmp_dir("corrupt");
    run_until(&cities, &dir, 5, 1);
    let newest = dir.join(checkpoint::checkpoint_file(5));
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&newest, &bytes).unwrap();

    let found = checkpoint::latest(&dir).unwrap().unwrap();
    assert_eq!(
        found.checkpoint.step, 4,
        "must fall back past the corrupt file"
    );
    assert_eq!(found.skipped.len(), 1);
    assert!(found.skipped[0].0.ends_with("ckpt_00000005.ckpt"));

    let resumed = resume_to_end(&cities, &dir, 1);
    pool::set_threads(None);
    assert_eq!(resumed, reference, "fallback resume is not bit-identical");
}

#[test]
fn nan_weights_trip_the_divergence_guard() {
    let cities = [tiny_city(3)];
    let dir = tmp_dir("nan");
    run_until(&cities, &dir, 2, 1);

    let mut found = checkpoint::latest(&dir).unwrap().unwrap();
    let poison_id = found.checkpoint.store.iter().next().unwrap().0;
    found.checkpoint.store.get_mut(poison_id).data_mut()[0] = f32::NAN;

    let mut model = SpectraGan::from_checkpoint(&found.checkpoint).unwrap();
    let err = model
        .train_with(
            &cities,
            &tc(),
            &TrainOptions {
                resume_from: Some(&found.checkpoint),
                ..TrainOptions::default()
            },
        )
        .expect_err("NaN weights must diverge");
    match err {
        CoreError::Diverged { step, retries, .. } => {
            assert_eq!(step, 2, "diverges at the first resumed step");
            assert_eq!(retries, TrainOptions::default().guard_max_retries);
        }
        other => panic!("expected Diverged, got: {other}"),
    }
}

#[test]
fn tiny_gradient_budget_diverges_and_logs_events() {
    let cities = [tiny_city(3)];
    let dir = tmp_dir("guard");
    let mut model = SpectraGan::new(SpectraGanConfig::tiny(), 0);
    let opts = TrainOptions {
        run_dir: Some(&dir),
        guard_grad_norm: 1e-12,
        guard_max_retries: 2,
        ..TrainOptions::default()
    };
    let err = model.train_with(&cities, &tc(), &opts).unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Diverged {
                step: 0,
                retries: 2,
                ..
            }
        ),
        "{err}"
    );

    // One log line per attempted lane, each carrying the guard reason.
    let log = checkpoint::read_log(&dir).unwrap();
    assert_eq!(log.len(), 3, "one event per lane");
    assert!(log.iter().all(|r| r.step == 0));
    assert!(log
        .iter()
        .all(|r| r.event.as_deref().unwrap_or("").contains("grad norm")));
}

#[test]
fn healthy_run_logs_every_step_without_events() {
    let cities = [tiny_city(3)];
    let dir = tmp_dir("healthy");
    run_until(&cities, &dir, 3, 1);
    let log = checkpoint::read_log(&dir).unwrap();
    assert_eq!(log.len(), 3);
    assert!(log.iter().all(|r| r.event.is_none()));
    assert_eq!(
        log.iter().map(|r| r.step).collect::<Vec<_>>(),
        vec![0, 1, 2]
    );
    assert!(log.iter().all(|r| r.d_loss.is_finite() && r.wall_ms >= 0.0));
    // Resuming truncates the log past the resume point and replays —
    // no duplicate step records afterwards.
    resume_to_end(&cities, &dir, 1);
    let log = checkpoint::read_log(&dir).unwrap();
    assert_eq!(log.iter().filter(|r| r.step == 2).count(), 1);
    assert_eq!(log.len(), STEPS);
}

#[test]
fn bad_training_inputs_are_typed_errors() {
    let mut model = SpectraGan::new(SpectraGanConfig::tiny(), 0);
    let err = model.train(&[], &tc()).expect_err("empty cities");
    assert!(matches!(err, CoreError::NoTrainingData(_)), "{err}");

    let mut short = tiny_city(3);
    short.traffic = short.traffic.slice_time(0, 5);
    let err = model
        .train(std::slice::from_ref(&short), &tc())
        .expect_err("short series");
    match err {
        CoreError::SeriesTooShort { have, need, .. } => {
            assert_eq!(have, 5);
            assert_eq!(need, 24);
        }
        other => panic!("expected SeriesTooShort, got: {other}"),
    }
}

#[test]
fn resume_rejects_mismatched_configuration() {
    let cities = [tiny_city(3)];
    let dir = tmp_dir("mismatch");
    run_until(&cities, &dir, 2, 1);
    let found = checkpoint::latest(&dir).unwrap().unwrap();
    let mut model = SpectraGan::from_checkpoint(&found.checkpoint).unwrap();
    let mut other_seed = tc();
    other_seed.seed += 1;
    let err = model
        .train_with(
            &cities,
            &other_seed,
            &TrainOptions {
                resume_from: Some(&found.checkpoint),
                ..TrainOptions::default()
            },
        )
        .expect_err("seed mismatch must be rejected");
    assert!(matches!(err, CoreError::Checkpoint(_)), "{err}");
}
