//! Buffer-pool regression test for gradient accumulation through
//! `train_with`: at one thread every micro-round runs on the calling
//! thread, so once the first steps have warmed the arena, a
//! `grad_accum` 4 step must be served from it entirely — the folded
//! rounds' gradients are recycled, not freed to the allocator.

use spectragan_core::{checkpoint, SpectraGan, SpectraGanConfig, TrainConfig, TrainOptions};
use spectragan_synthdata::{generate_city, CityConfig, DatasetConfig};
use spectragan_tensor::pool;

#[test]
fn serial_grad_accum_steps_allocate_nothing_fresh_after_warm_up() {
    let city = generate_city(
        &CityConfig {
            name: "ALLOC".into(),
            height: 17,
            width: 17,
            seed: 3,
        },
        &DatasetConfig {
            weeks: 1,
            steps_per_hour: 1,
            size_scale: 0.36,
        },
    );
    let tc = TrainConfig {
        steps: 6,
        batch_patches: 2,
        lr: 3e-3,
        seed: 11,
    };
    let dir = std::env::temp_dir()
        .join("spectragan_train_alloc")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&dir);
    pool::set_threads(Some(1));
    let mut model = SpectraGan::new(SpectraGanConfig::tiny(), 0);
    model
        .train_with(
            &[city],
            &tc,
            &TrainOptions {
                run_dir: Some(&dir),
                op_stats: true,
                grad_accum: 4,
                ..TrainOptions::default()
            },
        )
        .unwrap();
    pool::set_threads(None);
    let log = checkpoint::read_log(&dir).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(log.len(), tc.steps);
    let fresh: Vec<u64> = log
        .iter()
        .map(|r| {
            r.op_stats
                .as_ref()
                .expect("op-stats records must have a table")
                .iter()
                .map(|e| e.fresh_bytes)
                .sum()
        })
        .collect();
    let reused: u64 = log[2..]
        .iter()
        .flat_map(|r| r.op_stats.as_ref().unwrap())
        .map(|e| e.reused_bytes)
        .sum();
    assert!(reused > 0, "expected pool traffic, got none");
    assert!(
        fresh[2..].iter().all(|&b| b == 0),
        "steady-state grad_accum steps allocated fresh bytes: {fresh:?}"
    );
}
