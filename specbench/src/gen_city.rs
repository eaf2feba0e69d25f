//! `gen_city`: offline generation of one synthetic 64×64 city at
//! `t_out = 336` (k = 2) from an f32 SGWT container, `gen_batch` 16,
//! `default_hourly`. The compute-bound path: it bypasses serve, int8
//! slots and the tape.

use crate::common::{list_ms, peak_rss_mib, span_ms, span_sums, RunArgs};
use crate::fixture::{derive, synth_city, WorkDir};
use crate::proto;
use crate::stats::{bits_equal, median, Tally, Verdict};
use spectragan_core::{
    fourier, weights, Precision, PreparedContext, SpectraGan, SpectraGanConfig, WeightStore,
};
use spectragan_obs as obs;
use spectragan_tensor::pool;
use std::time::Instant;

/// City side in pixels.
pub const SIDE: usize = 64;
/// Generated steps: two weeks, so the spectrum expands by k = 2.
pub const T_OUT: usize = 336;
/// Patches per generator chunk.
pub const GEN_BATCH: usize = 16;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// A timed phase runs at least this many generations.
const MIN_REPS: usize = 2;

/// Wall seconds and peak arena bytes of one kind of repetition.
#[derive(Default)]
struct Pass {
    walls: Vec<f64>,
    peak_arena: u64,
}

fn fastest(walls: &[f64]) -> Option<f64> {
    walls.iter().copied().reduce(f64::min)
}

/// Runs the workload and prints its records.
pub fn run(args: &RunArgs) -> Result<Tally, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let work = WorkDir::new("gen_city").map_err(|e| err(&e))?;
    let cfg = SpectraGanConfig::default_hourly();
    let city = synth_city("gen_city", SIDE, SIDE, derive(args.seed, 1));
    let container = work.path().join("model.sgwt");
    weights::save_weights(
        &SpectraGan::new(cfg, derive(args.seed, 2)),
        &container,
        Precision::F32,
    )
    .map_err(|e| err(&e))?;
    let gen_seed = derive(args.seed, 3) % 1_000_000;

    // Set-up: what a front-end pays before its first generation.
    let mut setup = Vec::new();
    let mut loaded = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let store = WeightStore::open(&container).map_err(|e| err(&e))?;
        store.validate_all().map_err(|e| err(&e))?;
        let model = store.load_model().map_err(|e| err(&e))?;
        let prepared = PreparedContext::new(&city.context);
        setup.push(t.elapsed().as_secs_f64());
        loaded = Some((model, prepared));
    }
    let (model, prepared) = loaded.expect("at least one set-up repetition");

    // Warm-up: the first generation is the reference every timed one
    // must reproduce bit for bit.
    let (reference, _) = model
        .try_generate_prepared_report(&prepared, T_OUT, gen_seed, true, GEN_BATCH)
        .map_err(|e| err(&e))?;
    let mut tally = Tally::default();
    tally.record(&Verdict::Ok);

    // The timed phase. A traced run alternates untraced and traced
    // repetitions, so both halves see the same phases of the host and
    // their ratio is the tracing overhead rather than host drift.
    let (mut untraced, mut traced) = (Pass::default(), Pass::default());
    let min_reps = if args.trace { 2 * MIN_REPS } else { MIN_REPS };
    obs::drain_events();
    let start = Instant::now();
    for rep in 0.. {
        let done = untraced.walls.len() + traced.walls.len();
        let typical = median(&untraced.walls).unwrap_or(0.0);
        // Stop before a generation that would overrun the budget.
        if done >= min_reps && start.elapsed().as_secs_f64() + typical > args.seconds {
            break;
        }
        let p = if args.trace && rep % 2 == 1 {
            &mut traced
        } else {
            &mut untraced
        };
        obs::set_enabled(args.trace && rep % 2 == 1);
        let t = Instant::now();
        let out = model.try_generate_prepared_report(&prepared, T_OUT, gen_seed, true, GEN_BATCH);
        let wall = t.elapsed().as_secs_f64();
        obs::set_enabled(false);
        let verdict = match out {
            Ok((map, report)) => {
                p.peak_arena = p.peak_arena.max(report.peak_arena_bytes);
                if bits_equal(map.data(), reference.data()) {
                    Verdict::Ok
                } else {
                    Verdict::Mismatch("generation differs from the first repetition".into())
                }
            }
            Err(e) => Verdict::Error(e.to_string()),
        };
        tally.record(&verdict);
        if verdict != Verdict::Ok {
            eprintln!("gen_city: {verdict:?}");
            break;
        }
        p.walls.push(wall);
    }

    // The fastest repetition, not the median: this host has slow phases
    // lasting tens of seconds in which the same generation takes up to
    // 40% longer, so a median of a few 5-second repetitions moves with
    // the phase a run happens to land in, while the fastest one repeats.
    let wall = fastest(&untraced.walls).ok_or("no successful generation")?;
    let mpx_steps = (SIDE * SIDE * T_OUT) as f64 / 1e6;
    proto::metric("setup_s", "s", median(&setup).expect("set-up ran"));
    proto::metric("mpx_steps_per_s", "Mpx.steps/s", mpx_steps / wall);
    proto::metric("ops_per_s", "1/s", 1.0 / wall);
    proto::metric("latency_ms", "ms", wall * 1e3);
    proto::info(
        "samples",
        format!(
            "{} generations of {SIDE}x{SIDE}x{T_OUT}, ms: {}",
            untraced.walls.len(),
            list_ms(&untraced.walls)
        ),
    );

    if args.trace {
        let events = obs::drain_events();
        let sums = span_sums(&events);
        let ops = traced.walls.len().max(1) as f64;
        let wall_sum: f64 = traced.walls.iter().sum();
        let traced_wall = fastest(&traced.walls).ok_or("no traced generation")?;
        proto::metric(
            "core.generate.worker_busy_share",
            "share",
            span_ms(&sums, "patch_chunk") / 1e3 / (wall_sum * pool::threads() as f64),
        );
        proto::metric(
            "core.generate.sew_fold_ms",
            "ms",
            span_ms(&sums, "sew_fold") / ops,
        );
        proto::metric(
            "tensor.arena.peak_mib",
            "MiB",
            traced.peak_arena as f64 / (1 << 20) as f64,
        );
        proto::metric(
            "core.fourier.basis_cache_bytes",
            "bytes",
            fourier::basis_cache_bytes() as f64,
        );
        proto::metric(
            "obs.retained_span_events_per_request",
            "count",
            events.len() as f64 / ops,
        );
        proto::metric("obs.trace_overhead_ratio", "ratio", traced_wall / wall);
        proto::info(
            "traced",
            format!(
                "{} generations, ms: {}",
                traced.walls.len(),
                list_ms(&traced.walls)
            ),
        );
    }
    if let Some(rss) = peak_rss_mib() {
        proto::metric("peak_rss_mib", "MiB", rss);
    }
    Ok(tally)
}
