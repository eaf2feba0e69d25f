//! Acceptance tests for streaming bounded-memory city generation.
//!
//! Two contracts: (1) the streamed chunk→fold pipeline is bit-identical
//! to the serial path at every thread count and batch size, including
//! non-multiple `t_out`; (2) peak patch memory is O(in-flight window) —
//! a large city stays under a bound the old all-patches path provably
//! exceeds.
//!
//! The memory assertion reads process-global arena counters, so the
//! tests in this binary are serialized with a mutex (other integration
//! test files run as separate processes and cannot interfere).

use spectragan_core::{PreparedContext, SpectraGan, SpectraGanConfig, Variant};
use spectragan_synthdata::{generate_city, CityConfig, DatasetConfig};
use spectragan_tensor::{arena, pool};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn city(side: usize, seed: u64) -> spectragan_geo::City {
    let ds = DatasetConfig {
        weeks: 1,
        steps_per_hour: 1,
        // Unit scale so `side` is the real extent.
        size_scale: 1.0,
    };
    generate_city(
        &CityConfig {
            name: format!("S{side}"),
            height: side,
            width: side,
            seed,
        },
        &ds,
    )
}

/// Streamed generation is bit-identical across thread counts {1,2,4,8}
/// and gen-batch sizes, at a `t_out` that is a multiple of neither the
/// training length nor the batch size.
#[test]
fn streaming_is_bit_identical_across_threads_and_batches() {
    let _g = LOCK.lock().unwrap();
    let model = SpectraGan::new(SpectraGanConfig::tiny(), 2);
    let c = city(24, 5);
    pool::set_threads(Some(1));
    let reference = model.generate(&c.context, 30, 9);
    assert_eq!(reference.len_t(), 30);
    for threads in [2usize, 4, 8] {
        pool::set_threads(Some(threads));
        let got = model.generate(&c.context, 30, 9);
        assert_eq!(got.data(), reference.data(), "threads={threads}");
    }
    pool::set_threads(Some(4));
    for gen_batch in [1usize, 5, 16, 64] {
        let got = model.generate_batched(&c.context, 30, 9, true, gen_batch);
        assert_eq!(got.data(), reference.data(), "gen_batch={gen_batch}");
    }
    pool::set_threads(None);
}

/// Large-city smoke (128×128, t_out = 336): peak arena bytes during
/// generation stay under a fixed bound that the old materialize-all-
/// patches path provably exceeds — its patch tensors alone held
/// `positions × t_out × pixels × 4` bytes before `sew` even ran.
#[test]
fn large_city_peak_memory_is_window_bounded() {
    let _g = LOCK.lock().unwrap();
    // SpecOnly skips the per-step LSTM rollout so the smoke stays fast
    // in debug builds; the memory shape (patch chunks + running sums)
    // is the same one the full variant streams through.
    let cfg = SpectraGanConfig::tiny().with_variant(Variant::SpecOnly);
    let model = SpectraGan::new(cfg, 3);
    let c = city(128, 7);
    let t_out = 336usize;

    let positions = {
        let per_axis = (128 - cfg.patch_traffic) / cfg.patch_stride + 1;
        per_axis * per_axis
    };
    let old_floor_bytes = positions * t_out * cfg.pixels_per_patch() * 4;
    let bound_bytes: usize = 48 << 20;
    assert!(
        old_floor_bytes > bound_bytes,
        "bound {bound_bytes} B must sit below the all-patches floor {old_floor_bytes} B \
         for this test to mean anything"
    );

    pool::set_threads(Some(4));
    let (map, report) = model.generate_batched_report(&c.context, t_out, 11, true, 16);
    let peak = report.peak_arena_bytes as usize;
    assert_eq!((map.len_t(), map.height(), map.width()), (t_out, 128, 128));
    assert!(
        peak < bound_bytes,
        "peak arena {peak} B exceeds the streaming bound {bound_bytes} B \
         (old path floor: {old_floor_bytes} B)"
    );

    // And the streamed large-city output is still thread-invariant.
    pool::set_threads(Some(1));
    let serial = model.generate(&c.context, t_out, 11);
    pool::set_threads(None);
    assert_eq!(
        serial.data(),
        map.data(),
        "large-city output depends on threads"
    );
}

/// Regression (peak-report pollution): the peak-buffer figure is scoped
/// to each run. A small generation right after a much larger one must
/// report its own small peak — before [`GenReport`] scoped the
/// measurement, the second in-process report inherited the first run's
/// process-global high-water mark.
#[test]
fn back_to_back_generation_peaks_are_independent() {
    let _g = LOCK.lock().unwrap();
    let cfg = SpectraGanConfig::tiny().with_variant(Variant::SpecOnly);
    let model = SpectraGan::new(cfg, 3);
    let c = city(48, 7);

    // Peak memory is O(window × gen_batch × t_out) by design (city size
    // cancels out), so a heavy first run followed by a light one is the
    // discriminating pair: a leaked mark would make the light run
    // report the heavy run's peak.
    pool::set_threads(Some(2));
    let (_, heavy) = model.generate_batched_report(&c.context, 336, 11, true, 64);
    let (_, light) = model.generate_batched_report(&c.context, 24, 11, true, 1);
    pool::set_threads(None);

    assert!(heavy.peak_arena_bytes > 0, "heavy run saw no arena traffic");
    assert!(light.peak_arena_bytes > 0, "light run saw no arena traffic");
    assert!(
        light.peak_arena_bytes < heavy.peak_arena_bytes / 2,
        "light-run peak {} B is not well under the heavy-run peak {} B — \
         the report is leaking the previous run's high-water mark",
        light.peak_arena_bytes,
        heavy.peak_arena_bytes
    );
    assert!(heavy.wall_s > 0.0 && light.wall_s > 0.0);
}

/// Regression (arena drift): chunks made on a pool helper thread are
/// freed to the allocator once folded, not parked in the caller's
/// arena. Before, every generation at two threads left its chunk
/// outputs in the calling thread's pool, which grew by that much per
/// run (up to the pool's 256 MiB cap) — in a server, per request. The
/// streamed path is what serve workers run, so both entry points are
/// checked.
#[test]
fn repeated_generation_keeps_the_caller_arena_flat() {
    let _g = LOCK.lock().unwrap();
    let model = SpectraGan::new(SpectraGanConfig::tiny(), 2);
    let c = city(24, 5);
    let prepared = PreparedContext::new(&c.context);
    pool::set_threads(Some(2));
    let run = || {
        model
            .try_generate_prepared_report(&prepared, 30, 9, true, 4)
            .unwrap();
        let mut bands = 0;
        model
            .try_generate_stream(&prepared, 30, 9, true, 4, &mut |_| {
                bands += 1;
                true
            })
            .unwrap();
        assert!(bands > 0);
    };
    run();
    let warm = arena::pooled_bytes();
    for i in 0..3 {
        run();
        assert_eq!(
            arena::pooled_bytes(),
            warm,
            "caller arena grew over generation {i} after warm-up"
        );
    }
    pool::set_threads(None);
}
