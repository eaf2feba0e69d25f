//! `train_accum`: `train_with` at `default_hourly` on two synthetic
//! 40×40 cities, `batch_patches` 4, `grad_accum` 4, one shard, no run
//! directory. The taped use of the LSTM and conv layers (forward,
//! backward, Adam).

use crate::common::{list_ms, peak_rss_mib, span_ms, span_sums, RunArgs};
use crate::fixture::{derive, synth_city};
use crate::proto;
use crate::stats::{median, Tally, Verdict};
use spectragan_core::{SpectraGan, SpectraGanConfig, TrainConfig, TrainOptions, TrainStats};
use spectragan_obs as obs;
use spectragan_tensor::{arena, stats};
use std::time::Instant;

/// City side in pixels.
pub const SIDE: usize = 40;
/// Patches per minibatch.
pub const BATCH_PATCHES: usize = 4;
/// Gradient-accumulation micro-rounds per step.
pub const GRAD_ACCUM: usize = 4;
/// Optimizer steps per `train_with` call.
const STEPS_PER_CALL: usize = 2;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// A timed phase makes at least this many calls.
const MIN_CALLS: usize = 2;

fn train_config(steps: usize, seed: u64) -> TrainConfig {
    TrainConfig {
        steps,
        batch_patches: BATCH_PATCHES,
        lr: 2e-3,
        seed,
    }
}

fn all_finite(s: &TrainStats) -> bool {
    s.d_loss
        .iter()
        .chain(&s.g_adv)
        .chain(&s.l1)
        .all(|v| v.is_finite())
}

/// Runs the workload and prints its records.
pub fn run(args: &RunArgs) -> Result<Tally, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let cfg = SpectraGanConfig::default_hourly();
    let cities: Vec<_> = (0..2u64)
        .map(|i| synth_city(&format!("train_{i}"), SIDE, SIDE, derive(args.seed, 30 + i)))
        .collect();
    let opts = TrainOptions {
        grad_accum: GRAD_ACCUM,
        ..Default::default()
    };

    // Set-up: model build plus data preparation (a zero-step
    // `train_with` runs exactly the preparation).
    let mut setup = Vec::new();
    let mut prep = Vec::new();
    let mut model = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let mut m = SpectraGan::new(cfg, derive(args.seed, 40));
        let t_prep = Instant::now();
        m.train_with(&cities, &train_config(0, 0), &opts)
            .map_err(|e| err(&e))?;
        prep.push(t_prep.elapsed().as_secs_f64());
        setup.push(t.elapsed().as_secs_f64());
        model = Some(m);
    }
    let mut model = model.expect("at least one set-up repetition");
    // Every call re-runs the preparation; a step's time is the call's
    // wall time less that, split over the call's steps.
    let prep_s = median(&prep).expect("set-up ran");

    // The timed phase. A traced run alternates untraced and traced
    // calls, so both halves see the same phases of the host and their
    // ratio is the tracing overhead rather than host drift.
    let mut tally = Tally::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let min_calls = if args.trace { 2 * MIN_CALLS } else { MIN_CALLS };
    let mut arena_stats = arena::ArenaStats::default();
    obs::drain_events();
    stats::take_table();
    let region = arena::PeakRegion::begin();
    let start = Instant::now();
    for call in 0u64.. {
        if untraced.len() + traced.len() >= min_calls
            && start.elapsed().as_secs_f64() >= args.seconds
        {
            break;
        }
        let trace_this = args.trace && call % 2 == 1;
        obs::set_enabled(trace_this);
        stats::set_enabled(trace_this);
        arena::stats_take();
        let tc = train_config(STEPS_PER_CALL, derive(args.seed, 50 + call));
        let t = Instant::now();
        let out = model.train_with(&cities, &tc, &opts);
        let wall = t.elapsed().as_secs_f64();
        stats::set_enabled(false);
        obs::set_enabled(false);
        if trace_this {
            let a = arena::stats_take();
            arena_stats.reused += a.reused;
            arena_stats.fresh_allocs += a.fresh_allocs;
        }
        let verdict = match out {
            Ok(s) if s.l1.len() == STEPS_PER_CALL && all_finite(&s) => Verdict::Ok,
            Ok(_) => Verdict::Mismatch("non-finite or missing losses".into()),
            Err(e) => Verdict::Error(e.to_string()),
        };
        tally.record(&verdict);
        if verdict != Verdict::Ok {
            eprintln!("train_accum: {verdict:?}");
            break;
        }
        let step_s = (wall - prep_s) / STEPS_PER_CALL as f64;
        if trace_this {
            &mut traced
        } else {
            &mut untraced
        }
        .push(step_s);
    }
    let peak = region.end();

    let step = median(&untraced).ok_or("no successful training call")?;
    let px_steps =
        (GRAD_ACCUM * BATCH_PATCHES * cfg.pixels_per_patch() * cfg.train_len) as f64 / 1e6;
    proto::metric("setup_s", "s", median(&setup).expect("set-up ran"));
    proto::metric("mpx_steps_per_s", "Mpx.steps/s", px_steps / step);
    proto::metric("ops_per_s", "1/s", 1.0 / step);
    proto::metric("latency_ms", "ms", step * 1e3);
    proto::info(
        "samples",
        format!(
            "{} calls of {STEPS_PER_CALL} steps, data preparation {:.1} ms per call, step ms: {}",
            untraced.len(),
            prep_s * 1e3,
            list_ms(&untraced)
        ),
    );

    if args.trace {
        let table = stats::take_table();
        let events = obs::drain_events();
        let sums = span_sums(&events);
        let steps = (traced.len() * STEPS_PER_CALL).max(1) as f64;
        for phase in ["minibatch", "forward", "backward", "optimizer"] {
            proto::metric(
                &format!("core.train.{phase}_ms"),
                "ms",
                span_ms(&sums, phase) / steps,
            );
        }
        let mut by_time: Vec<(String, f64)> = table
            .iter()
            .map(|e| {
                (
                    e.op.clone(),
                    (e.fwd_nanos + e.bwd_nanos) as f64 / 1e6 / steps,
                )
            })
            .collect();
        by_time.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (op, op_ms) in &by_time {
            proto::metric(&format!("core.train.op.{op}_ms"), "ms", *op_ms);
        }
        let top: Vec<String> = by_time
            .iter()
            .take(6)
            .map(|(op, t)| format!("{op} {t:.1}"))
            .collect();
        proto::info("op_stats_top_ms_per_step", top.join(", "));
        proto::metric(
            "tensor.arena.reuse_ratio",
            "share",
            arena_stats.reused as f64
                / (arena_stats.reused + arena_stats.fresh_allocs).max(1) as f64,
        );
        proto::metric(
            "tensor.arena.peak_mib",
            "MiB",
            peak as f64 / (1 << 20) as f64,
        );
        proto::metric(
            "obs.retained_span_events_per_request",
            "count",
            events.len() as f64 / steps,
        );
        let traced_step = median(&traced).ok_or("no traced training call")?;
        proto::metric("obs.trace_overhead_ratio", "ratio", traced_step / step);
        // The generator's taped LSTM steps of one optimizer step, timed
        // right after the pass, against the forward phase containing
        // them.
        let rows = BATCH_PATCHES * cfg.pixels_per_patch();
        let taped_us = crate::layers::lstm_step_us(rows, derive(args.seed, 60), true);
        proto::metric(
            "nn.lstm.rollout_share",
            "share",
            (GRAD_ACCUM * cfg.train_len) as f64 * taped_us
                / (span_ms(&sums, "forward") / steps * 1e3),
        );
        proto::info(
            "traced",
            format!("{} calls, step ms: {}", traced.len(), list_ms(&traced)),
        );
    }
    if let Some(rss) = peak_rss_mib() {
        proto::metric("peak_rss_mib", "MiB", rss);
    }
    Ok(tally)
}
