//! Per-layer timings taken from outside: each layer's public functions
//! called at the workload's shapes, one at a time, on the calling
//! thread.

use crate::catalog::BACKEND_OPS;
use crate::common::RunArgs;
use crate::fixture::{derive, synth_city, WorkDir};
use crate::proto;
use crate::stats::median;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spectragan_core::{
    fourier, weights, Precision, PreparedContext, SpectraGan, SpectraGanConfig, WeightStore,
};
use spectragan_geo::io::encode_band;
use spectragan_geo::{GridSpec, PatchLayout, PatchSpec, TrafficBand};
use spectragan_nn::{
    Binding, Conv2d, Linear, Lstm, LstmState, ParamId, ParamStore, Q8Buf, Tape, Tensor,
};
use spectragan_tensor::backend::{self, BackendKind};
use spectragan_tensor::{arena, pool, q8};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Seconds spent timing one layer call.
const BUDGET_S: f64 = 0.15;

/// The shapes a workload drives its layers at.
#[derive(Debug, Clone, Copy)]
pub struct Shapes {
    /// Patches per generator chunk or minibatch.
    pub patches: usize,
    /// Side of the city patches are cut from and sewn into.
    pub city_side: usize,
    /// Generated or trained steps.
    pub t_out: usize,
    /// Weight precision the workload serves.
    pub precision: Precision,
}

impl Shapes {
    /// The shapes of `workload`.
    pub fn of(workload: &str) -> Shapes {
        match workload {
            "gen_city" => Shapes {
                patches: crate::gen_city::GEN_BATCH,
                city_side: crate::gen_city::SIDE,
                t_out: crate::gen_city::T_OUT,
                precision: Precision::F32,
            },
            "serve_districts" => Shapes {
                patches: crate::serve_districts::GEN_BATCH,
                city_side: crate::fixture::DISTRICTS[2].1,
                t_out: 168,
                precision: Precision::Int8,
            },
            _ => Shapes {
                patches: crate::train_accum::BATCH_PATCHES,
                city_side: crate::train_accum::SIDE,
                t_out: 168,
                precision: Precision::F32,
            },
        }
    }
}

/// Median microseconds per call of `f`: calls are grouped into batches
/// of at least 2 ms, and batches repeat for [`BUDGET_S`].
pub fn bench_us(mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    f();
    let one = t.elapsed().as_secs_f64().max(1e-8);
    let batch = ((0.002 / one).ceil() as usize).clamp(1, 1 << 20);
    let mut per_call = Vec::new();
    let start = Instant::now();
    while per_call.len() < 5 || (start.elapsed().as_secs_f64() < BUDGET_S && per_call.len() < 500) {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    median(&per_call).expect("batches ran") * 1e6
}

/// A tensor of `shape` filled from a seeded stream, values in [-1, 1).
fn filled(shape: &[usize], seed: u64) -> Tensor {
    let n: usize = shape.iter().product();
    let data = (0..n as u64)
        .map(|i| (derive(seed, i) >> 40) as f32 / (1u64 << 23) as f32 - 1.0)
        .collect();
    Tensor::from_vec(data, shape.to_vec())
}

fn param_named(store: &ParamStore, prefix: &str) -> ParamId {
    store
        .ids()
        .find(|&id| store.name(id).starts_with(prefix))
        .unwrap_or_else(|| panic!("no parameter named {prefix}*"))
}

/// Demotes every matrix of `store` to int8, the way a quantized
/// container installs it.
fn to_int8(store: &mut ParamStore) {
    let ids: Vec<ParamId> = store.ids().collect();
    for id in ids {
        let shape = store.shape(id).clone();
        if shape.ndim() < 2 {
            continue;
        }
        let q = q8::quantize_tensor(store.get(id).data(), &shape);
        store.demote_to_int8(
            id,
            Arc::new(Q8Buf {
                data: q.data,
                scales: q.scales,
            }),
        );
    }
}

/// The generator's residual LSTM (`gen_channels` → `lstm_hidden`) and
/// its one-wide time head, in a store of their own.
fn lstm_store(seed: u64) -> (ParamStore, Lstm, Linear) {
    let cfg = SpectraGanConfig::default_hourly();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    let lstm = Lstm::new(&mut store, cfg.gen_channels, cfg.lstm_hidden, &mut rng);
    let head = Linear::new_scaled(&mut store, cfg.lstm_hidden, 1, 0.1, &mut rng);
    (store, lstm, head)
}

/// Microseconds of one LSTM step over `rows` rows: the inference step
/// plus the time head, or (`taped`) the taped `step_projected`.
pub fn lstm_step_us(rows: usize, seed: u64, taped: bool) -> f64 {
    let hidden = SpectraGanConfig::default_hourly().lstm_hidden;
    let (store, lstm, head) = lstm_store(seed);
    let xw = filled(&[rows, 4 * hidden], seed + 2);
    let h = filled(&[rows, hidden], seed + 3);
    let c = filled(&[rows, hidden], seed + 4);
    if !taped {
        return bench_us(|| {
            let (h2, _c2) = lstm.step_infer_projected(&store, &xw, &h, &c);
            black_box(head.forward_infer(&store, &h2));
        });
    }
    let tape = Tape::new();
    bench_us(|| {
        tape.reset_keep_capacity();
        let bind = Binding::new(&tape, &store);
        let state = LstmState {
            h: tape.leaf(h.clone()),
            c: tape.leaf(c.clone()),
        };
        black_box(lstm.step_projected(&bind, &tape.leaf(xw.clone()), &state));
    })
}

/// Times every layer at `workload`'s shapes and prints the records.
pub fn run(workload: &str, args: &RunArgs) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let sh = Shapes::of(workload);
    let cfg = SpectraGanConfig::default_hourly();
    let side = cfg.patch_traffic;
    let rows = sh.patches * cfg.pixels_per_patch();
    let (hidden, feat) = (cfg.lstm_hidden, cfg.gen_channels);
    let s = derive(args.seed, 60);
    let mut rng = StdRng::seed_from_u64(s + 100);

    // nn.lstm and nn.param: the generator's residual LSTM and time head.
    let infer_step_us = lstm_step_us(rows, s, false);
    proto::metric("nn.lstm.infer_step_us", "us", infer_step_us);
    proto::metric("nn.lstm.taped_step_us", "us", lstm_step_us(rows, s, true));
    let (store, _, _) = lstm_store(s);
    let x = filled(&[rows, feat], s + 1);
    let h = filled(&[rows, hidden], s + 3);
    let (wx, wh) = (
        param_named(&store, "lstm.wx"),
        param_named(&store, "lstm.wh"),
    );
    let projections = |store: &ParamStore| {
        bench_us(|| {
            black_box(store.infer_matmul(&x, wx));
            black_box(store.infer_matmul(&h, wh));
        })
    };
    proto::metric("nn.param.infer_matmul_f32_us", "us", projections(&store));
    let mut q_store = store.clone();
    to_int8(&mut q_store);
    proto::metric("nn.param.infer_matmul_int8_us", "us", projections(&q_store));

    // nn.conv: the generator's encoder and feature convolutions on one
    // chunk.
    let (cc, ch, zc) = (cfg.context_channels, cfg.encoder_channels, cfg.noise_dim);
    let ctx_side = cfg.patch_context();
    let mut conv_store = ParamStore::new();
    let enc1 = Conv2d::new(&mut conv_store, cc, ch, 3, 1, &mut rng);
    let enc2 = Conv2d::new(&mut conv_store, ch, ch, 3, 1, &mut rng);
    let spec_feat = Conv2d::new(&mut conv_store, ch + zc, feat, 3, 1, &mut rng);
    let time_feat = Conv2d::new(&mut conv_store, ch + zc, feat, 3, 1, &mut rng);
    let ctx = filled(&[sh.patches, cc, ctx_side, ctx_side], s + 5);
    let pooled = filled(&[sh.patches, ch, side, side], s + 6);
    let hz = filled(&[sh.patches, ch + zc, side, side], s + 7);
    proto::metric(
        "nn.conv.encoder_us",
        "us",
        bench_us(|| {
            black_box(enc1.forward_infer(&conv_store, &ctx));
            black_box(enc2.forward_infer(&conv_store, &pooled));
            black_box(spec_feat.forward_infer(&conv_store, &hz));
            black_box(time_feat.forward_infer(&conv_store, &hz));
        }),
    );

    // tensor.backend: the kernels under each backend, at the LSTM
    // hidden projection, the first encoder conv and the gate width.
    let a = h.clone();
    let b = filled(&[hidden, 4 * hidden], s + 8);
    let bq = q8::quantize_tensor(b.data(), b.shape());
    let conv_w = filled(&[ch, cc, 3, 3], s + 9);
    let gates = filled(&[rows, 4 * hidden], s + 10);
    let n_gates = gates.numel() as f64;
    let (m, k, n) = (rows as f64, hidden as f64, (4 * hidden) as f64);
    let conv_out = (sh.patches * ch * ctx_side * ctx_side) as f64;
    let conv_macs = conv_out * (cc * 9) as f64;
    let mut buf = gates.data().to_vec();
    let refill_us = bench_us(|| {
        buf.copy_from_slice(gates.data());
        black_box(&buf);
    });
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        backend::set_backend(Some(kind));
        let be = backend::active();
        for op in BACKEND_OPS {
            let (us, ops, bytes) = match op {
                "matmul" => (
                    bench_us(|| drop(black_box(be.matmul(&a, &b)))),
                    2.0 * m * k * n,
                    4.0 * (m * k + k * n + m * n),
                ),
                "matmul_q8" => (
                    bench_us(|| {
                        drop(black_box(be.matmul_q8(
                            &a,
                            &bq.data,
                            &bq.scales,
                            4 * hidden,
                        )))
                    }),
                    2.0 * m * k * n,
                    4.0 * m * k + k * n + 4.0 * k + 4.0 * m * n,
                ),
                "conv2d" => (
                    bench_us(|| drop(black_box(be.conv2d(&ctx, &conv_w, 1)))),
                    2.0 * conv_macs,
                    4.0 * (ctx.numel() as f64 + conv_w.numel() as f64 + conv_out),
                ),
                // The refill copy that keeps the inputs fixed is
                // timed alone and taken off.
                "sigmoid_slice" => (
                    bench_us(|| {
                        buf.copy_from_slice(gates.data());
                        be.sigmoid_slice(black_box(&mut buf));
                    }) - refill_us,
                    n_gates,
                    8.0 * n_gates,
                ),
                _ => (
                    bench_us(|| {
                        buf.copy_from_slice(gates.data());
                        be.tanh_slice(black_box(&mut buf));
                    }) - refill_us,
                    n_gates,
                    8.0 * n_gates,
                ),
            };
            let us = us.max(1e-3);
            let prefix = format!("tensor.backend.{op}.{}", kind.name());
            proto::metric(&format!("{prefix}.us"), "us", us);
            proto::metric(&format!("{prefix}.gops_computed"), "Gop/s", ops / us / 1e3);
            proto::metric(&format!("{prefix}.bytes_computed"), "bytes", bytes);
        }
    }
    backend::set_backend(None);

    // core.fourier: spectrum rows to series through the expanded basis.
    let spec = filled(&[rows, 2 * cfg.f_bins()], s + 11);
    for k in [1usize, 2] {
        proto::metric(
            &format!("core.fourier.expand_k{k}_us"),
            "us",
            bench_us(|| {
                drop(black_box(fourier::expand_rows_to_series(
                    &spec,
                    cfg.train_len,
                    k,
                )))
            }),
        );
    }

    // geo.patch and geo.io: cutting context patches, sewing traffic
    // patches, encoding one streamed band.
    let city = synth_city("layers", sh.city_side, sh.city_side, derive(args.seed, 61));
    let ctx_std = city.context.standardized();
    let layout = PatchLayout::new(
        GridSpec::new(sh.city_side, sh.city_side),
        PatchSpec::new(side, ctx_side, cfg.patch_stride),
    );
    let positions = layout.positions().to_vec();
    let per_patch = |us: f64| us / positions.len() as f64;
    proto::metric(
        "geo.patch.extract_us",
        "us",
        per_patch(bench_us(|| {
            for &pos in &positions {
                black_box(layout.extract_context(&ctx_std, pos));
            }
        })),
    );
    let patch = filled(&[sh.t_out, side, side], s + 12);
    let mut push_us = Vec::new();
    let start = Instant::now();
    while push_us.len() < 5 || start.elapsed().as_secs_f64() < BUDGET_S {
        let mut acc = layout.sew_accumulator(sh.t_out);
        let t = Instant::now();
        for _ in &positions {
            acc.push(&patch);
        }
        push_us.push(per_patch(t.elapsed().as_secs_f64() * 1e6));
        black_box(&acc);
    }
    proto::metric(
        "geo.patch.sew_push_us",
        "us",
        median(&push_us).expect("pushes ran"),
    );
    let band_rows = cfg.patch_stride;
    let band = TrafficBand {
        y0: 0,
        rows: band_rows,
        t: sh.t_out,
        w: sh.city_side,
        data: filled(&[sh.t_out, band_rows, sh.city_side], s + 13).into_vec(),
    };
    proto::metric(
        "geo.io.encode_band_us",
        "us",
        bench_us(|| drop(black_box(encode_band(&band)))),
    );

    // core.weights: opening, checking and loading the workload's
    // container; nn.param residency after a generation touched it.
    let work = WorkDir::new(&format!("layers-{workload}")).map_err(|e| err(&e))?;
    let model = SpectraGan::new(cfg, derive(args.seed, 62));
    let small = synth_city("small", 12, 12, derive(args.seed, 63));
    let prepared = PreparedContext::new(&small.context);
    for precision in [Precision::F32, Precision::Int8] {
        let path = work.path().join(format!("{}.sgwt", precision.name()));
        weights::save_weights(&model, &path, precision).map_err(|e| err(&e))?;
        if precision == sh.precision {
            let (mut open, mut validate, mut load) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..20 {
                let t = Instant::now();
                let store = WeightStore::open(&path).map_err(|e| err(&e))?;
                open.push(t.elapsed().as_secs_f64() * 1e3);
                let t = Instant::now();
                store.validate_all().map_err(|e| err(&e))?;
                validate.push(t.elapsed().as_secs_f64() * 1e3);
                let t = Instant::now();
                black_box(store.load_model().map_err(|e| err(&e))?);
                load.push(t.elapsed().as_secs_f64() * 1e3);
            }
            proto::metric(
                "core.weights.open_ms",
                "ms",
                median(&open).expect("reps ran"),
            );
            proto::metric(
                "core.weights.validate_ms",
                "ms",
                median(&validate).expect("reps ran"),
            );
            proto::metric(
                "core.weights.load_ms",
                "ms",
                median(&load).expect("reps ran"),
            );
        }
        let loaded = WeightStore::open(&path)
            .and_then(|st| st.load_model())
            .map_err(|e| err(&e))?;
        loaded
            .try_generate_prepared_report(&prepared, 24, 1, true, sh.patches)
            .map_err(|e| err(&e))?;
        proto::metric(
            &format!("nn.param.resident_weight_bytes_{}", precision.name()),
            "bytes",
            loaded.store().resident_weight_bytes() as f64,
        );
        if precision == sh.precision && workload != "train_accum" {
            // Generation runs its chunks on scoped pool threads whose
            // arenas the benchmark cannot see, so reuse is measured on
            // one thread: repeat generations of one full chunk.
            let one_chunk = synth_city("chunk", 20, 20, derive(args.seed, 64));
            let chunk_ctx = PreparedContext::new(&one_chunk.context);
            pool::set_threads(Some(1));
            let generate =
                || loaded.try_generate_prepared_report(&chunk_ctx, sh.t_out, 1, true, sh.patches);
            generate().map_err(|e| err(&e))?;
            arena::stats_take();
            let mut chunk_s = Vec::new();
            for _ in 0..3 {
                let t = Instant::now();
                generate().map_err(|e| err(&e))?;
                chunk_s.push(t.elapsed().as_secs_f64());
            }
            let a = arena::stats_take();
            pool::set_threads(None);
            proto::metric(
                "tensor.arena.reuse_ratio",
                "share",
                a.reused as f64 / (a.reused + a.fresh_allocs).max(1) as f64,
            );
            // The same chunk's rollout, step by step, against the whole
            // chunk: both timed here, moments apart.
            let steps = sh.t_out.div_ceil(cfg.train_len) * cfg.train_len;
            proto::metric(
                "nn.lstm.rollout_share",
                "share",
                steps as f64 * infer_step_us / (median(&chunk_s).expect("chunks ran") * 1e6),
            );
        }
    }
    Ok(())
}
