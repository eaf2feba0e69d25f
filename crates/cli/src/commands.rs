//! The CLI subcommands. Each takes parsed [`Args`] and returns a
//! human-readable error on failure; `main` maps that to exit codes.

use crate::args::Args;
use crate::dataset_dir::{read_dataset, write_dataset};
use spectragan_core::{
    checkpoint, weights, SpectraGan, SpectraGanConfig, TrainConfig, TrainOptions, Variant,
};
use spectragan_geo::io::{atomic_write, load_context, load_traffic, save_traffic, traffic_to_csv};
use spectragan_metrics::{ac_l1, fvd, m_emd, m_tv, ssim_mean_maps, tstr_r2};
use spectragan_obs as obs;
use spectragan_synthdata::{country1, country2, DatasetConfig};
use std::fs;
use std::path::Path;

/// `spectragan dataset --out DIR [--country 1|2|all] [--weeks N]
/// [--granularity 60|30|15] [--scale F]` — materialize the synthetic
/// corpus as a dataset directory.
pub fn cmd_dataset(args: &Args) -> Result<(), String> {
    let out = Path::new(args.require("out").map_err(|e| e.to_string())?);
    let weeks = args
        .get_parsed("weeks", 4usize, "integer")
        .map_err(|e| e.to_string())?;
    let scale = args
        .get_parsed("scale", 0.5f64, "float")
        .map_err(|e| e.to_string())?;
    let granularity = args
        .get_parsed("granularity", 60usize, "minutes (60, 30 or 15)")
        .map_err(|e| e.to_string())?;
    let steps_per_hour = match granularity {
        60 => 1,
        30 => 2,
        15 => 4,
        other => {
            return Err(format!(
                "unsupported granularity {other} (use 60, 30 or 15)"
            ))
        }
    };
    let ds = DatasetConfig {
        weeks,
        steps_per_hour,
        size_scale: scale,
    };
    let cities = match args.get("country").unwrap_or("all") {
        "1" => country1(&ds),
        "2" => country2(&ds),
        "all" => {
            let mut c = country1(&ds);
            c.extend(country2(&ds));
            c
        }
        other => return Err(format!("unknown country '{other}' (use 1, 2 or all)")),
    };
    write_dataset(out, &cities, steps_per_hour)?;
    println!(
        "wrote {} cities ({} weeks at {}-min steps) to {}",
        cities.len(),
        weeks,
        granularity,
        out.display()
    );
    Ok(())
}

fn parse_variant(name: &str) -> Result<Variant, String> {
    Ok(match name {
        "full" => Variant::Full,
        "spec-only" => Variant::SpecOnly,
        "time-only" => Variant::TimeOnly,
        "time-only-plus" => Variant::TimeOnlyPlus,
        "pixel-context" => Variant::PixelContext,
        other => return Err(format!("unknown variant '{other}'")),
    })
}

/// `spectragan train --data DIR --out MODEL [--steps N] [--lr F]
/// [--variant V] [--holdout CITY] [--seed N] [--run-dir DIR]
/// [--checkpoint-every N] [--resume RUN_DIR]` — train on a dataset
/// directory (first week of each city), optionally writing crash-safe
/// checkpoints, or resume a killed run from its last checkpoint
/// (bit-identical to an uninterrupted run).
pub fn cmd_train(args: &Args) -> Result<(), String> {
    let data = Path::new(args.require("data").map_err(|e| e.to_string())?);
    let out = args.require("out").map_err(|e| e.to_string())?;

    // Resume restores every hyper-parameter from the checkpoint; a
    // fresh run takes them from flags. `--steps` may extend a resumed
    // run; other conflicting flags are rejected by validate_against.
    let resume = match args.get("resume") {
        None => None,
        Some(dir) => {
            let run_dir = Path::new(dir);
            let found = checkpoint::latest(run_dir)
                .map_err(|e| e.to_string())?
                .ok_or_else(|| format!("no checkpoint to resume in {dir}"))?;
            for (path, why) in &found.skipped {
                // One structured line per fallback, machine-parseable
                // by log shippers; the matching fleet counter
                // (spectragan_checkpoint_fallbacks_total) is bumped
                // inside checkpoint::latest.
                let event = serde_json::json!({
                    "event": "checkpoint_fallback",
                    "path": path.display().to_string(),
                    "reason": why,
                    "resumed_from": found.path.display().to_string(),
                });
                eprintln!(
                    "{}",
                    serde_json::to_string(&event).unwrap_or_else(|_| format!(
                        "warning: skipped corrupt checkpoint {} ({why})",
                        path.display()
                    ))
                );
            }
            Some((run_dir, found))
        }
    };

    let (manifest, mut cities) = read_dataset(data)?;
    let (cfg, mut tc) = match &resume {
        Some((_, found)) => (found.checkpoint.config, found.checkpoint.train),
        None => {
            let variant = parse_variant(args.get("variant").unwrap_or("full"))?;
            let train_len = 7 * 24 * manifest.steps_per_hour;
            let cfg = SpectraGanConfig {
                train_len,
                ..SpectraGanConfig::default_hourly()
            }
            .with_variant(variant);
            let tc = TrainConfig {
                steps: args
                    .get_parsed("steps", 200usize, "integer")
                    .map_err(|e| e.to_string())?,
                batch_patches: 3,
                lr: args
                    .get_parsed("lr", 2e-3f32, "float")
                    .map_err(|e| e.to_string())?,
                seed: args
                    .get_parsed("seed", 0u64, "integer")
                    .map_err(|e| e.to_string())?,
            };
            (cfg, tc)
        }
    };
    if resume.is_some() {
        // Only an explicit --steps overrides the checkpointed target
        // (extension or early finish); defaults must not.
        if let Some(steps) = args.get("steps") {
            tc.steps = steps
                .parse()
                .map_err(|_| format!("--steps got '{steps}', expected integer"))?;
        }
    }

    if let Some(holdout) = args.get("holdout") {
        let before = cities.len();
        cities.retain(|c| c.name != holdout);
        if cities.len() == before {
            return Err(format!("holdout city '{holdout}' not in dataset"));
        }
    }
    let train_len = cfg.train_len;
    let training: Vec<_> = cities
        .iter()
        .map(|c| spectragan_geo::City {
            name: c.name.clone(),
            traffic: c.traffic.slice_time(0, train_len.min(c.traffic.len_t())),
            context: c.context.clone(),
        })
        .collect();

    let mut model = match &resume {
        Some((_, found)) => {
            SpectraGan::from_checkpoint(&found.checkpoint).map_err(|e| e.to_string())?
        }
        None => SpectraGan::new(cfg, tc.seed),
    };

    let run_dir = match (&resume, args.get("run-dir")) {
        (Some((dir, _)), _) => Some(*dir),
        (None, Some(dir)) => Some(Path::new(dir)),
        (None, None) => None,
    };
    let opts = TrainOptions {
        run_dir,
        checkpoint_every: args
            .get_parsed("checkpoint-every", 25usize, "integer")
            .map_err(|e| e.to_string())?,
        resume_from: resume.as_ref().map(|(_, found)| &found.checkpoint),
        guard_grad_norm: args
            .get_parsed("guard-grad-norm", 1e4f32, "float")
            .map_err(|e| e.to_string())?,
        guard_max_retries: args
            .get_parsed("guard-max-retries", 3u32, "integer")
            .map_err(|e| e.to_string())?,
        // Crash injection for the kill/resume end-to-end test.
        abort_at_step: args
            .get_parsed("abort-at-step", 0usize, "integer")
            .map(|s| if s == 0 { None } else { Some(s) })
            .map_err(|e| e.to_string())?,
        op_stats: args.switch("op-stats"),
        obs: false,
        trace: args.get("trace").map(Path::new),
        metrics_snapshot: args.get("metrics-snapshot").map(Path::new),
        // Accumulation is part of the step arithmetic: a resumed run
        // inherits the checkpoint's value unless overridden (train_with
        // rejects a mismatch).
        grad_accum: match (args.get("grad-accum"), &resume) {
            (Some(s), _) => {
                let k: usize = s
                    .parse()
                    .map_err(|_| format!("--grad-accum got '{s}', expected integer"))?;
                if k == 0 {
                    return Err("--grad-accum must be at least 1".into());
                }
                k
            }
            (None, Some((_, found))) => found.checkpoint.grad_accum,
            (None, None) => 1,
        },
    };
    if !args.switch("quiet") {
        match &resume {
            Some((dir, found)) => println!(
                "resuming from {} at step {} ({} steps total)…",
                dir.display(),
                found.checkpoint.step,
                tc.steps
            ),
            None => println!(
                "training {:?} on {} cities, {} steps (T = {train_len})…",
                cfg.variant,
                training.len(),
                tc.steps
            ),
        }
    }
    let stats = model
        .train_with(&training, &tc, &opts)
        .map_err(|e| e.to_string())?;
    atomic_write(Path::new(out), model.to_model_json().as_bytes())
        .map_err(|e| format!("write {out}: {e}"))?;
    println!(
        "saved {out} (final L1 {:.4})",
        stats.l1.last().copied().unwrap_or(f32::NAN)
    );
    Ok(())
}

/// Parses `--weights-precision` into an optional override.
fn weights_precision_arg(args: &Args) -> Result<Option<weights::Precision>, String> {
    args.get("weights-precision")
        .map(|s| weights::Precision::parse(s).map_err(|e| e.to_string()))
        .transpose()
}

/// `spectragan generate --model MODEL --context FILE.sgcm --hours N
/// --out FILE.sgtm [--seed N] [--gen-batch N] [--csv]
/// [--weights-precision f32|f16|int8]` — generate traffic for a
/// region, reporting throughput and peak buffer memory. MODEL may be
/// a JSON model file or an `SGWT` weight container (detected by
/// magic); `--weights-precision f16` narrows the weights in memory,
/// halving their resident bytes for the run, and `int8` quantizes
/// them (~4× smaller, streamed through the dequantizing GEMM).
pub fn cmd_generate(args: &Args) -> Result<(), String> {
    let model_path = args.require("model").map_err(|e| e.to_string())?;
    let ctx_path = args.require("context").map_err(|e| e.to_string())?;
    let out = args.require("out").map_err(|e| e.to_string())?;
    let hours = args
        .get_parsed("hours", 168usize, "integer")
        .map_err(|e| e.to_string())?;
    let seed = args
        .get_parsed("seed", 0u64, "integer")
        .map_err(|e| e.to_string())?;
    let gen_batch = args
        .get_parsed("gen-batch", 16usize, "integer")
        .map_err(|e| e.to_string())?;
    if gen_batch == 0 {
        return Err("--gen-batch must be at least 1".into());
    }

    let mut model =
        weights::load_model_auto(model_path).map_err(|e| format!("{model_path}: {e}"))?;
    match weights_precision_arg(args)? {
        Some(weights::Precision::F16) if !model.store().has_half_storage() => {
            weights::narrow_to_f16(&mut model);
        }
        Some(weights::Precision::Int8) if !model.store().has_int8_storage() => {
            weights::narrow_to_int8(&mut model);
        }
        _ => {}
    }
    let model = model;
    let context = load_context(ctx_path).map_err(|e| format!("{ctx_path}: {e}"))?;
    let steps_per_hour = {
        // Model train_len is a week; derive granularity from it.
        model.config().train_len / 168
    };
    let t_out = hours * steps_per_hour.max(1);
    let trace = args.get("trace").map(Path::new);
    let metrics_snapshot = args.get("metrics-snapshot").map(Path::new);
    let obs_on = trace.is_some() || metrics_snapshot.is_some();
    let _obs_guard = obs::ObsGuard::new(obs_on);
    let (map, report) = model.generate_batched_report(&context, t_out, seed, true, gen_batch);
    if obs_on {
        let events = obs::drain_events();
        if let Some(path) = trace {
            atomic_write(path, obs::chrome_trace(&events).as_bytes())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        if let Some(path) = metrics_snapshot {
            atomic_write(path, obs::prometheus_snapshot().as_bytes())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
    }
    let wall = report.wall_s;
    let peak_mib = report.peak_arena_bytes as f64 / (1024.0 * 1024.0);
    let px_steps = (map.len_t() * map.height() * map.width()) as f64;
    if args.switch("csv") {
        atomic_write(Path::new(out), traffic_to_csv(&map).as_bytes())
            .map_err(|e| format!("write {out}: {e}"))?;
    } else {
        save_traffic(&map, out).map_err(|e| format!("write {out}: {e}"))?;
    }
    println!(
        "generated {}×{}×{} traffic → {out}",
        map.len_t(),
        map.height(),
        map.width()
    );
    println!(
        "  {:.2} s, {:.2} Mpx·steps/s, peak buffers {:.1} MiB (gen-batch {gen_batch})",
        wall,
        px_steps / wall / 1e6,
        peak_mib
    );
    Ok(())
}

/// `spectragan serve --models DIR [--addr HOST:PORT] [--workers N]
/// [--queue-depth N] [--budget-mib N] [--max-hours N]` — long-running
/// multi-city generation server. Blocks until SIGTERM/SIGINT, then
/// drains in-flight requests before exiting.
pub fn cmd_serve(args: &Args) -> Result<(), String> {
    let models = args.require("models").map_err(|e| e.to_string())?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:7077");
    let mut cfg = spectragan_serve::ServeConfig::new(addr, models);
    cfg.workers = args
        .get_parsed("workers", cfg.workers, "integer")
        .map_err(|e| e.to_string())?;
    cfg.queue_depth = args
        .get_parsed("queue-depth", cfg.queue_depth, "integer")
        .map_err(|e| e.to_string())?;
    let budget_mib: usize = args
        .get_parsed("budget-mib", 2048usize, "integer")
        .map_err(|e| e.to_string())?;
    cfg.arena_budget_bytes = budget_mib << 20;
    let max_hours: usize = args
        .get_parsed("max-hours", 24 * 366, "integer")
        .map_err(|e| e.to_string())?;
    cfg.max_t_out = max_hours; // hourly models; sub-hourly caps are stricter
    cfg.weights_precision = weights_precision_arg(args)?;

    let workers = cfg.workers;
    let server = spectragan_serve::Server::bind(cfg).map_err(|e| e.to_string())?;
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.handle();
    println!(
        "serving models from {models} on http://{bound} (workers {workers}, budget {budget_mib} MiB)"
    );
    println!("endpoints: POST /generate · GET /healthz /metrics /cities");

    // SIGTERM/SIGINT → graceful drain. The handler only sets a flag;
    // this monitor thread turns it into a shutdown request.
    spectragan_serve::signal::install_handlers();
    std::thread::spawn(move || loop {
        if spectragan_serve::signal::terminated() {
            handle.shutdown();
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    });
    server.run().map_err(|e| e.to_string())?;
    println!("drained in-flight requests, shut down cleanly");
    Ok(())
}

/// `spectragan export-weights --model MODEL --out FILE.sgwt
/// [--precision f32|f16|int8]` — convert a model (JSON or SGWT) into
/// an `SGWT` weight container: checksummed, 64-byte-aligned raw
/// tensor sections that `generate` and `serve` open zero-copy via
/// mmap. `--precision f16` stores half-precision sections, halving
/// both the file and the resident serving footprint; `--precision
/// int8` stores symmetric-absmax-quantized sections with per-row
/// scales in the directory (~4× smaller than f32, biases stay f32).
pub fn cmd_export_weights(args: &Args) -> Result<(), String> {
    let model_path = args.require("model").map_err(|e| e.to_string())?;
    let out = args.require("out").map_err(|e| e.to_string())?;
    let precision = args
        .get("precision")
        .map(weights::Precision::parse)
        .transpose()
        .map_err(|e| e.to_string())?
        .unwrap_or(weights::Precision::F32);
    let model = weights::load_model_auto(model_path).map_err(|e| format!("{model_path}: {e}"))?;
    weights::save_weights(&model, out, precision).map_err(|e| e.to_string())?;
    let store = weights::WeightStore::open(out).map_err(|e| e.to_string())?;
    println!(
        "exported {} layers ({} weights, {} section bytes, {}) → {out}",
        store.len(),
        model.store().num_weights(),
        store.section_bytes(),
        precision.name()
    );
    Ok(())
}

/// `spectragan evaluate --real FILE --synth FILE [--steps-per-hour N]`
/// — all five fidelity metrics (plus EMD) between two traffic files.
pub fn cmd_evaluate(args: &Args) -> Result<(), String> {
    let real_path = args.require("real").map_err(|e| e.to_string())?;
    let synth_path = args.require("synth").map_err(|e| e.to_string())?;
    let sph = args
        .get_parsed("steps-per-hour", 1usize, "integer")
        .map_err(|e| e.to_string())?;
    let real = load_traffic(real_path).map_err(|e| format!("{real_path}: {e}"))?;
    let synth = load_traffic(synth_path).map_err(|e| format!("{synth_path}: {e}"))?;
    if (real.height(), real.width()) != (synth.height(), synth.width()) {
        return Err("maps cover different grids".into());
    }
    let t = real.len_t().min(synth.len_t());
    let real = real.slice_time(0, t);
    let synth = synth.slice_time(0, t);
    println!("M-TV   {:.4}  (lower better)", m_tv(&real, &synth));
    println!("M-EMD  {:.4}  (lower better)", m_emd(&real, &synth));
    println!(
        "SSIM   {:.4}  (higher better)",
        ssim_mean_maps(&real, &synth)
    );
    println!("AC-L1  {:.2}  (lower better)", ac_l1(&real, &synth, t));
    println!("TSTR   {:.4}  (higher better)", tstr_r2(&real, &synth, sph));
    println!("FVD    {:.4}  (lower better)", fvd(&real, &synth, sph));
    Ok(())
}

/// `spectragan info --file PATH` — describe a map or model file.
pub fn cmd_info(args: &Args) -> Result<(), String> {
    let path = args.require("file").map_err(|e| e.to_string())?;
    if path.ends_with(".sgtm") {
        let m = load_traffic(path).map_err(|e| format!("{path}: {e}"))?;
        let series = m.city_series();
        println!(
            "traffic map: {} steps × {}×{} pixels",
            m.len_t(),
            m.height(),
            m.width()
        );
        println!(
            "  city-mean traffic: min {:.4}, max {:.4}",
            series.iter().cloned().fold(f64::INFINITY, f64::min),
            series.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        );
    } else if path.ends_with(".sgcm") {
        let m = load_context(path).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "context map: {} attributes × {}×{} pixels",
            m.channels(),
            m.height(),
            m.width()
        );
    } else if path.ends_with(".sgwt") {
        let store = weights::WeightStore::open(path).map_err(|e| format!("{path}: {e}"))?;
        store.validate_all().map_err(|e| format!("{path}: {e}"))?;
        let cfg = store.config();
        println!(
            "SGWT weight container: variant {:?}, {} precision",
            cfg.variant,
            store.precision().name()
        );
        println!(
            "  T = {}, {} layers, {} section bytes{}",
            cfg.train_len,
            store.len(),
            store.section_bytes(),
            if store.is_mapped() {
                ", memory-mapped"
            } else {
                ""
            }
        );
    } else {
        let json = fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let model = SpectraGan::from_model_json(&json).map_err(|e| e.to_string())?;
        let cfg = model.config();
        println!("SpectraGAN model: variant {:?}", cfg.variant);
        println!(
            "  T = {}, patch {}/{} (traffic/context), {} weights",
            cfg.train_len,
            cfg.patch_traffic,
            cfg.patch_context(),
            model.store().num_weights()
        );
    }
    Ok(())
}

/// Usage text.
pub const USAGE: &str = "\
spectragan — spectrum-based generation of city-scale mobile traffic

USAGE:
  spectragan dataset  --out DIR [--country 1|2|all] [--weeks N] [--granularity 60|30|15] [--scale F]
  spectragan train    --data DIR --out MODEL.json [--steps N] [--lr F] [--variant V] [--holdout CITY] [--seed N] [--quiet]
                      [--run-dir DIR] [--checkpoint-every N] [--guard-grad-norm F] [--guard-max-retries N] [--op-stats]
                      [--grad-accum K] [--trace TRACE.json] [--metrics-snapshot FILE.prom]
  spectragan train    --data DIR --out MODEL.json --resume RUN_DIR [--steps N] [--holdout CITY] [--quiet]
  spectragan generate --model MODEL --context FILE.sgcm --hours N --out FILE.sgtm [--seed N] [--gen-batch N] [--csv]
                      [--weights-precision f32|f16|int8] [--trace TRACE.json] [--metrics-snapshot FILE.prom]
  spectragan export-weights --model MODEL --out FILE.sgwt [--precision f32|f16|int8]
  spectragan serve    --models DIR [--addr HOST:PORT] [--workers N] [--queue-depth N] [--budget-mib N] [--max-hours N]
                      [--weights-precision f32|f16|int8]
  spectragan evaluate --real FILE.sgtm --synth FILE.sgtm [--steps-per-hour N]
  spectragan info     --file PATH

Variants: full, spec-only, time-only, time-only-plus, pixel-context.

Checkpointing: with --run-dir, training writes a checksummed snapshot of
the full state (weights, optimizer moments, loss traces) every
--checkpoint-every steps (default 25) plus a per-step train_log.jsonl;
--resume picks up the newest valid snapshot and yields final weights
bit-identical to an uninterrupted run. Steps whose loss goes NaN/inf or
whose gradient norm exceeds --guard-grad-norm are skipped, logged, and
retried with a re-rolled RNG lane (at most --guard-max-retries times).
--op-stats adds a per-op instrumentation table (call counts, wall time,
buffer-pool traffic) to every train_log.jsonl record. --grad-accum K
averages K minibatch gradients per optimizer step (K is checkpointed
and must match on resume).

Generation streams patch chunks through a bounded in-flight window, so
peak memory is independent of city size and patch overlap; --gen-batch
sets the patches per generator chunk (default 16) and the summary line
reports wall time, Mpx·steps/s and peak buffer MiB.

Weight containers: `export-weights` converts a model into an SGWT
container — checksummed, 64-byte-aligned raw tensor sections behind a
CRC-verified directory. `generate` and `serve` detect SGWT files by
magic, open them zero-copy via mmap (layers are read on first touch)
and fall back to buffered reads where mmap is unavailable. f16
containers (and --weights-precision f16) halve resident weight bytes;
int8 containers (and --weights-precision int8) quantize matrices with
per-row absmax scales for ~4x smaller residency, streamed through a
dequantizing GEMM (generation-only: training always runs f32); f32
containers generate bit-identically to the JSON model file.

Serving: `serve` runs a long-lived multi-city generation server over
HTTP/1.1. The models directory holds one `<city>.sgcm` context per city
plus shared `model.sgwt` / `model.json` weights (or per-city
`<city>.sgwt` / `<city>.json`; SGWT wins at each tier). GET /cities
reports each city's load state and resident weight bytes. POST
/generate with {\"city\", \"t_out\", \"seed\", \"gen_batch\", \"format\"}
streams SGBD band frames over chunked transfer-encoding (format
\"bands\", the default) or returns one SGTM body byte-identical to the
offline `generate` output (format \"sgtm\"). Requests beyond the
--budget-mib admission budget are shed with 503 + Retry-After; /metrics
exposes Prometheus counters; SIGTERM drains in-flight requests.

Observability: --trace writes a Chrome trace-event JSON (load it in
Perfetto or chrome://tracing) covering the span tree of the run; and
--metrics-snapshot writes a Prometheus text snapshot of all counters,
gauges and histograms. For train, spans are also aggregated per step
into train_log.jsonl and a metrics.prom is dropped in the run dir.
Instrumentation never changes numerics: outputs stay bit-identical.
";
