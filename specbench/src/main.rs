//! `specbench` — the repository's seeded benchmark of SpectraGAN
//! generation, serving and training.
//!
//! ```text
//! cargo run --release --offline --manifest-path specbench/Cargo.toml -- \
//!     --workload gen_city|serve_districts|train_accum --seed N --seconds S --trace 0|1
//! ```
//!
//! The command launches the workload in a child process of its own
//! (with `SPECTRAGAN_BACKEND`, `SPECTRAGAN_THREADS` and
//! `SPECTRAGAN_SHARDS` cleared), checks its outputs, and prints every
//! metric with its unit, then one JSON line: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A traced
//! run measures untraced and traced repetitions in turn, then times
//! each layer in a second child. It exits non-zero when any output
//! was wrong. `METRICS.md` says what every metric means and which
//! end-to-end metric each layer metric should move.

mod catalog;
mod client;
mod common;
mod fixture;
mod gen_city;
mod layers;
mod proto;
mod serve_districts;
mod stats;
mod train_accum;

use common::RunArgs;
use proto::ChildReport;
use std::collections::BTreeMap;
use std::io::Read;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Environment knobs of the program that must not leak into a
/// measurement.
const CLEARED_ENV: [&str; 3] = [
    "SPECTRAGAN_BACKEND",
    "SPECTRAGAN_THREADS",
    "SPECTRAGAN_SHARDS",
];

/// Every child must be done by then, so the command ends within its
/// three-minute limit even when a child hangs.
const DEADLINE: Duration = Duration::from_secs(170);

const USAGE: &str =
    "usage: specbench --workload gen_city|serve_districts|train_accum --seed N --seconds S --trace 0|1";

/// Parsed command line.
#[derive(Debug)]
struct Cli {
    workload: &'static str,
    run: RunArgs,
    /// Set in a child: which part of the run it measures.
    child: Option<String>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let known = ["--workload", "--seed", "--seconds", "--trace", "--child"];
        let key = known
            .iter()
            .find(|k| **k == flag)
            .ok_or(format!("unknown argument {flag}"))?;
        flags.insert(key, value);
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let workload = catalog::WORKLOADS
        .into_iter()
        .find(|w| Ok(*w) == get("--workload"))
        .ok_or(format!("unknown workload {:?}", get("--workload")?))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Cli {
        workload,
        run: RunArgs {
            seed,
            seconds,
            trace,
        },
        child: flags.get("--child").map(|s| s.to_string()),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("specbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cli.child.as_deref() {
        Some(role) => child(role, &cli),
        None => parent(&cli),
    }
}

/// A measuring child: prints protocol records on stdout.
fn child(role: &str, cli: &Cli) -> ExitCode {
    proto::info("backend", spectragan_tensor::backend::kind().name());
    proto::info("pool_threads", spectragan_tensor::pool::threads());
    let result = match (role, cli.workload) {
        ("layers", w) => layers::run(w, &cli.run).map(|()| stats::Tally::default()),
        ("run", "gen_city") => gen_city::run(&cli.run),
        ("run", "serve_districts") => serve_districts::run(&cli.run),
        ("run", _) => train_accum::run(&cli.run),
        (other, _) => Err(format!("unknown child role {other}")),
    };
    match result {
        Ok(tally) => {
            proto::tally(tally);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("specbench {role} {}: {e}", cli.workload);
            ExitCode::FAILURE
        }
    }
}

/// Runs one child to completion (or kills it at the deadline) and
/// parses what it printed.
fn run_child(role: &str, cli: &Cli, deadline: Instant) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", role, "--workload", cli.workload])
        .args(["--seed", &cli.run.seed.to_string()])
        .args(["--seconds", &cli.run.seconds.to_string()])
        .args(["--trace", if cli.run.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for var in CLEARED_ENV {
        cmd.env_remove(var);
    }
    let mut proc = cmd
        .spawn()
        .map_err(|e| format!("starting the {role} child: {e}"))?;
    let mut stdout = proc.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stdout.read_to_string(&mut s);
        s
    });
    let status = loop {
        if let Some(status) = proc.try_wait().map_err(|e| e.to_string())? {
            break Some(status);
        }
        if Instant::now() >= deadline {
            let _ = proc.kill();
            let _ = proc.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let out = reader.join().map_err(|_| "child output reader panicked")?;
    match status {
        Some(s) if s.success() => Ok(ChildReport::parse(&out)),
        Some(s) => Err(format!("the {role} child failed ({s})")),
        None => Err(format!(
            "the {role} child passed the deadline and was stopped"
        )),
    }
}

/// Names the measured source: the git commit when the tree is a git
/// checkout, otherwise an FNV-1a hash of the crates' files.
fn source_identity(root: &Path) -> String {
    if root.join(".git").exists() {
        let out = Command::new("git")
            .args(["-C", &root.to_string_lossy(), "rev-parse", "HEAD"])
            .stderr(Stdio::null())
            .output();
        if let Some(out) = out.ok().filter(|o| o.status.success()) {
            return String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    let mut files = Vec::new();
    let mut dirs = vec![root.join("crates")];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let name = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        for b in name.bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!(
        "source-fnv64-{h:016x} ({} files, not a git checkout)",
        files.len()
    )
}

/// Renders the result line.
fn result_json(correct: bool, tally: stats::Tally, metrics: &[(catalog::Def, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(d, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn parent(cli: &Cli) -> ExitCode {
    let started = Instant::now();
    let deadline = started + DEADLINE;
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "specbench: workload {} seed {} seconds {} trace {} nproc {nproc} source {}",
        cli.workload,
        cli.run.seed,
        cli.run.seconds,
        u8::from(cli.run.trace),
        source_identity(&root)
    );
    let mut children = Vec::new();
    let roles: &[&str] = if cli.run.trace {
        &["run", "layers"]
    } else {
        &["run"]
    };
    for role in roles {
        match run_child(role, cli, deadline) {
            Ok(report) if report.finished => children.push(report),
            Ok(_) => {
                eprintln!("specbench: the {role} child ended without a result");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("specbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let run = &children[0];
    for line in &run.text {
        println!("{line}");
    }
    for (k, v) in &run.info {
        println!("  {k}: {v}");
    }
    let tally = run.tally;
    println!(
        "  failed_share: {} share ({} of {} operations failed)",
        tally.failed_share(),
        tally.failed,
        tally.attempted
    );
    let mut merged: BTreeMap<String, f64> = BTreeMap::new();
    for c in &children {
        merged.extend(c.metrics.iter().map(|(k, (_, v))| (k.clone(), *v)));
    }
    let e2e: Vec<(catalog::Def, f64)> = catalog::END_TO_END
        .iter()
        .map(|d| (*d, merged.get(d.name).copied().unwrap_or(f64::NAN)))
        .collect();
    let heading = if cli.run.trace {
        "end-to-end (untraced part)"
    } else {
        "end-to-end"
    };
    println!("{heading}:");
    for (d, v) in &e2e {
        println!("  {} = {v} {}", d.name, d.unit);
    }
    let result: Vec<(catalog::Def, f64)> = if cli.run.trace {
        // Layers a workload never enters read 0.
        let layer: Vec<(catalog::Def, f64)> = catalog::per_layer()
            .into_iter()
            .map(|d| (d, merged.get(d.name).copied().unwrap_or(0.0)))
            .collect();
        println!("per-layer:");
        for (d, v) in &layer {
            println!("  {} = {v} {}", d.name, d.unit);
        }
        layer
    } else {
        e2e
    };
    if let Some((d, _)) = result
        .iter()
        .find(|(d, v)| !v.is_finite() || !stats::valid_metric_name(d.name))
    {
        eprintln!("specbench: metric {} could not be measured", d.name);
        return ExitCode::FAILURE;
    }
    let correct = tally.failed == 0 && tally.attempted > 0;
    println!("  wall: {:.1} s", started.elapsed().as_secs_f64());
    println!("{}", result_json(correct, tally, &result));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn command_line_is_checked() {
        let cli = parse(&args("--workload gen_city --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(cli.workload, "gen_city");
        assert_eq!(
            (cli.run.seed, cli.run.seconds, cli.run.trace),
            (7, 20.0, true)
        );
        assert!(cli.child.is_none());
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload gen_city --seed x --seconds 1 --trace 0",
            "--workload gen_city --seed 1 --seconds 0 --trace 0",
            "--workload gen_city --seed 1 --seconds 1 --trace 2",
            "--workload gen_city --seed 1 --seconds 1",
            "--workload gen_city --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut t = stats::Tally::default();
        t.record(&stats::Verdict::Ok);
        let line = result_json(true, t, &[(catalog::END_TO_END[0], 1.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
