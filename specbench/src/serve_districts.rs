//! `serve_districts`: an in-process `Server` with two workers under a
//! closed loop of two clients with zero think time, streaming `bands`
//! responses for three district cities, each with its own
//! `default_hourly` int8 container. The served path: `nn::param` int8
//! slots and `matmul_q8`, plus queueing, admission, band encoding and
//! socket writes.

use crate::client::{timed_request, Timed};
use crate::common::{peak_rss_mib, prom_counter, span_ms, span_sums, RunArgs};
use crate::fixture::{derive, distinct_jobs, request_mix, synth_city, Job, WorkDir, DISTRICTS};
use crate::proto;
use crate::stats::{bits_equal, median, tail_percentile, Tally, Verdict};
use spectragan_core::{
    fourier, weights, Precision, PreparedContext, SpectraGan, SpectraGanConfig, WeightStore,
};
use spectragan_geo::io::save_context;
use spectragan_obs as obs;
use spectragan_serve::client::assemble_bands;
use spectragan_serve::{ServeConfig, Server, ServerHandle};
use spectragan_tensor::{arena, pool};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Instant;

/// Server worker threads.
pub const WORKERS: usize = 2;
/// Closed-loop clients.
pub const CLIENTS: usize = 2;
/// Patches per generator chunk, sent with every request.
pub const GEN_BATCH: usize = 16;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Length of the precomputed request mix; longer runs wrap around.
const MIX_LEN: usize = 4096;
/// The untraced window runs on past its budget until this many
/// requests succeeded, so its p90 has ten samples beyond it.
const MIN_SAMPLES: usize = 100;

/// A running in-process server, shut down and joined on drop.
struct Running {
    addr: String,
    handle: ServerHandle,
    thread: Option<JoinHandle<()>>,
}

impl Running {
    fn start(dir: &Path) -> Result<Running, String> {
        let mut cfg = ServeConfig::new("127.0.0.1:0", dir);
        cfg.workers = WORKERS;
        let server = Server::bind(cfg).map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let handle = server.handle();
        let thread = std::thread::spawn(move || {
            if let Err(e) = server.run() {
                eprintln!("serve_districts: server stopped: {e}");
            }
        });
        Ok(Running {
            addr,
            handle,
            thread: Some(thread),
        })
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Client-side times of one successful request, in seconds from send.
struct Sample {
    end: f64,
    head: f64,
    first_band: f64,
    px_steps: f64,
}

/// One request: send, read, reassemble, compare with the reference.
fn issue(addr: &str, job: &Job, refs: &HashMap<Job, Vec<f32>>) -> (Verdict, Option<Sample>) {
    let (name, side) = DISTRICTS[job.district];
    let body = format!(
        "{{\"city\":\"{name}\",\"t_out\":{},\"seed\":{},\"gen_batch\":{GEN_BATCH}}}",
        job.t_out, job.gen_seed
    );
    let Timed {
        response,
        head_s,
        first_chunk_s,
        end_s,
    } = match timed_request(addr, "POST", "/generate", body.as_bytes()) {
        Ok(t) => t,
        Err(e) => return (Verdict::Error(e), None),
    };
    if response.status != 200 {
        return (Verdict::Status(response.status), None);
    }
    let got = match assemble_bands(&response) {
        Ok(map) => map,
        Err(e) => return (Verdict::Error(e.to_string()), None),
    };
    if !bits_equal(got.data(), &refs[job]) {
        return (
            Verdict::Mismatch(format!(
                "{name} t_out {} seed {}: served bytes differ from offline",
                job.t_out, job.gen_seed
            )),
            None,
        );
    }
    let sample = Sample {
        end: end_s,
        head: head_s,
        first_band: first_chunk_s.unwrap_or(end_s),
        px_steps: (side * side * job.t_out) as f64,
    };
    (Verdict::Ok, Some(sample))
}

/// The closed loop: `CLIENTS` clients each send their next request the
/// moment the previous one completes, until `budget` seconds passed.
/// Returns the successful samples and the window's wall seconds.
fn closed_loop(
    addr: &str,
    mix: &[Job],
    next: &AtomicUsize,
    budget: f64,
    min_samples: usize,
    refs: &HashMap<Job, Vec<f32>>,
    tally: &Mutex<Tally>,
) -> (Vec<Sample>, f64) {
    let samples = Mutex::new(Vec::new());
    let done = AtomicUsize::new(0);
    let start = Instant::now();
    // A hard stop at three budgets keeps a slow host inside the
    // command's time limit.
    let more = || {
        let t = start.elapsed().as_secs_f64();
        t < 3.0 * budget && (t < budget || done.load(Ordering::Relaxed) < min_samples)
    };
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                while more() {
                    let job = mix[next.fetch_add(1, Ordering::Relaxed) % mix.len()];
                    let (verdict, sample) = issue(addr, &job, refs);
                    if verdict != Verdict::Ok {
                        eprintln!("serve_districts: {verdict:?}");
                    }
                    tally.lock().expect("tally lock").record(&verdict);
                    if let Some(sample) = sample {
                        done.fetch_add(1, Ordering::Relaxed);
                        samples.lock().expect("samples lock").push(sample);
                    }
                }
            });
        }
    });
    let window = start.elapsed().as_secs_f64();
    (samples.into_inner().expect("samples lock"), window)
}

fn ms(xs: impl Iterator<Item = f64>) -> Vec<f64> {
    xs.map(|x| x * 1e3).collect()
}

/// Runs the workload and prints its records.
pub fn run(args: &RunArgs) -> Result<Tally, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let work = WorkDir::new("serve_districts").map_err(|e| err(&e))?;
    let dir = work.path();
    let cfg = SpectraGanConfig::default_hourly();
    for (i, (name, side)) in DISTRICTS.iter().enumerate() {
        let city = synth_city(name, *side, *side, derive(args.seed, 10 + i as u64));
        save_context(&city.context, dir.join(format!("{name}.sgcm"))).map_err(|e| err(&e))?;
        let model = SpectraGan::new(cfg, derive(args.seed, 20 + i as u64));
        weights::save_weights(&model, dir.join(format!("{name}.sgwt")), Precision::Int8)
            .map_err(|e| err(&e))?;
    }

    // Offline references from the same containers, computed before
    // anything is timed (and before `Server::bind` turns spans on).
    let mut refs: HashMap<Job, Vec<f32>> = HashMap::new();
    for (district, (name, side)) in DISTRICTS.iter().enumerate() {
        let store = WeightStore::open(dir.join(format!("{name}.sgwt"))).map_err(|e| err(&e))?;
        store.validate_all().map_err(|e| err(&e))?;
        let model = store.load_model().map_err(|e| err(&e))?;
        let city = synth_city(name, *side, *side, derive(args.seed, 10 + district as u64));
        let prepared = PreparedContext::new(&city.context);
        for job in distinct_jobs(args.seed)
            .into_iter()
            .filter(|j| j.district == district)
        {
            let (map, _) = model
                .try_generate_prepared_report(&prepared, job.t_out, job.gen_seed, true, GEN_BATCH)
                .map_err(|e| err(&e))?;
            refs.insert(job, map.data().to_vec());
        }
    }

    // Set-up: bind until one warm request per district completed (the
    // registry loads and the basis cache fills), from a cold cache
    // every repetition.
    let tally = Mutex::new(Tally::default());
    let warm_jobs: Vec<Job> = (0..DISTRICTS.len())
        .map(|d| {
            *distinct_jobs(args.seed)
                .iter()
                .find(|j| j.district == d)
                .expect("job per district")
        })
        .collect();
    let mut setup = Vec::new();
    let mut server = None;
    let mut requests = 0usize;
    for _ in 0..SETUP_REPS {
        drop(server.take());
        let capacity = fourier::set_basis_cache_capacity(0);
        fourier::set_basis_cache_capacity(capacity);
        let t = Instant::now();
        let running = Running::start(dir)?;
        for job in &warm_jobs {
            let (verdict, _) = issue(&running.addr, job, &refs);
            tally.lock().expect("tally lock").record(&verdict);
            if verdict != Verdict::Ok {
                return Err(format!("warm request failed: {verdict:?}"));
            }
            requests += 1;
        }
        setup.push(t.elapsed().as_secs_f64());
        server = Some(running);
    }
    let server = server.expect("at least one set-up repetition");

    // A traced run spends half its time on an untraced window, the
    // reference for the overhead ratio, and half on a traced one.
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mix = request_mix(args.seed, MIX_LEN);
    let next = AtomicUsize::new(0);
    let (samples, window) = closed_loop(
        &server.addr,
        &mix,
        &next,
        untraced_s,
        MIN_SAMPLES,
        &refs,
        &tally,
    );
    requests += samples.len();
    let latency = ms(samples.iter().map(|s| s.end));
    let first_band = ms(samples.iter().map(|s| s.first_band));
    let p50 = median(&latency).ok_or("no successful request")?;
    proto::metric("setup_s", "s", median(&setup).expect("set-up ran"));
    proto::metric(
        "mpx_steps_per_s",
        "Mpx.steps/s",
        samples.iter().map(|s| s.px_steps).sum::<f64>() / 1e6 / window,
    );
    proto::metric("ops_per_s", "1/s", samples.len() as f64 / window);
    proto::metric("latency_ms", "ms", p50);
    let show = |x: Option<f64>| {
        x.map_or_else(
            || "n/a (needs 10 samples beyond)".to_string(),
            |v| format!("{v:.3} ms"),
        )
    };
    proto::info(
        "samples",
        format!("{} requests in {window:.2} s", samples.len()),
    );
    proto::info("serve_latency_p90_ms", show(tail_percentile(&latency, 0.9)));
    proto::info("serve_first_band_p50_ms", show(median(&first_band)));
    proto::info(
        "serve_first_band_p90_ms",
        show(tail_percentile(&first_band, 0.9)),
    );

    if args.trace {
        // Spans the server kept since it was bound, per request served.
        let retained = obs::drain_events().len();
        proto::metric(
            "obs.retained_span_events_per_request",
            "count",
            retained as f64 / requests.max(1) as f64,
        );
        let region = arena::PeakRegion::begin();
        let (traced, t_window) = closed_loop(
            &server.addr,
            &mix,
            &next,
            args.seconds / 2.0,
            0,
            &refs,
            &tally,
        );
        let peak = region.end();
        let events = obs::drain_events();
        let sums = span_sums(&events);
        let n = traced.len().max(1) as f64;
        let head = ms(traced.iter().map(|s| s.head));
        let to_band = ms(traced.iter().map(|s| s.first_band - s.head));
        let stream = ms(traced.iter().map(|s| s.end - s.first_band));
        let traced_p50 = median(&ms(traced.iter().map(|s| s.end))).unwrap_or(f64::NAN);
        proto::metric("serve.head_ms", "ms", median(&head).unwrap_or(f64::NAN));
        proto::metric(
            "serve.head_to_first_band_ms",
            "ms",
            median(&to_band).unwrap_or(f64::NAN),
        );
        proto::metric("serve.stream_ms", "ms", median(&stream).unwrap_or(f64::NAN));
        proto::metric(
            "serve.request_span_ms",
            "ms",
            span_ms(&sums, "serve_request") / sums.get("serve_request").map_or(1.0, |s| s.0 as f64),
        );
        let metrics = timed_request(&server.addr, "GET", "/metrics", b"")
            .map_err(|e| format!("/metrics: {e}"))?;
        let prom = String::from_utf8_lossy(&metrics.response.body).into_owned();
        proto::metric(
            "serve.admission_rejects",
            "count",
            prom_counter(&prom, "spectragan_serve_503_total"),
        );
        proto::metric(
            "serve.queue_rejects",
            "count",
            prom_counter(&prom, "spectragan_serve_queue_rejects_total"),
        );
        proto::metric(
            "core.generate.worker_busy_share",
            "share",
            span_ms(&sums, "patch_chunk") / 1e3 / (t_window * pool::threads() as f64),
        );
        proto::metric(
            "core.generate.sew_fold_ms",
            "ms",
            span_ms(&sums, "sew_fold") / n,
        );
        proto::metric(
            "tensor.arena.peak_mib",
            "MiB",
            peak as f64 / (1 << 20) as f64,
        );
        proto::metric(
            "core.fourier.basis_cache_bytes",
            "bytes",
            fourier::basis_cache_bytes() as f64,
        );
        proto::metric("obs.trace_overhead_ratio", "ratio", traced_p50 / p50);
        proto::info(
            "traced",
            format!("{} requests in {t_window:.2} s", traced.len()),
        );
    }
    drop(server);
    if let Some(rss) = peak_rss_mib() {
        proto::metric("peak_rss_mib", "MiB", rss);
    }
    Ok(tally.into_inner().expect("tally lock"))
}
