//! Seeded inputs: every city, model and request of a run is a pure
//! function of the `--seed` argument.

use spectragan_geo::City;
use spectragan_synthdata::{generate_city, CityConfig, DatasetConfig};
use std::path::{Path, PathBuf};

/// Derives the seed of one input stream from the run seed (SplitMix64
/// finalizer), so cities, models and request mixes draw independent
/// streams and adding a stream never shifts the others.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator over [`derive`] for drawing request
/// mixes.
pub struct Stream {
    seed: u64,
    next: u64,
}

impl Stream {
    /// The stream `stream` of run seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Stream {
            seed: derive(seed, stream),
            next: 0,
        }
    }

    /// The next value in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        self.next += 1;
        (derive(self.seed, self.next) % n as u64) as usize
    }
}

/// Synthesizes one week of hourly traffic for an `h × w` city (the
/// training length of `default_hourly`).
pub fn synth_city(name: &str, h: usize, w: usize, seed: u64) -> City {
    let ds = DatasetConfig {
        weeks: 1,
        steps_per_hour: 1,
        size_scale: 1.0,
    };
    let cfg = CityConfig {
        name: name.to_string(),
        height: h,
        width: w,
        seed,
    };
    generate_city(&cfg, &ds)
}

/// The district cities the serve workload registers: name and side.
pub const DISTRICTS: [(&str, usize); 3] =
    [("district_s", 12), ("district_m", 16), ("district_l", 24)];

/// Durations a served request asks for: one day and one week.
pub const SERVE_T_OUT: [usize; 2] = [24, 168];

/// Generation seeds per (district, duration) pair; bounds how many
/// offline references a run computes before its timed phase.
pub const SEEDS_PER_SHAPE: usize = 2;

/// One `/generate` request of the serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Job {
    /// Index into [`DISTRICTS`].
    pub district: usize,
    /// Requested duration.
    pub t_out: usize,
    /// Generation seed sent with the request.
    pub gen_seed: u64,
}

/// The generation seed of slot `slot` of a (district, duration) pair.
fn job_seed(seed: u64, district: usize, t_out: usize, slot: usize) -> u64 {
    derive(
        seed,
        1000 + (district * 1000 + t_out) as u64 * 8 + slot as u64,
    ) % 1_000_000
}

/// Every distinct job a run can issue, in a fixed order.
pub fn distinct_jobs(seed: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for district in 0..DISTRICTS.len() {
        for t_out in SERVE_T_OUT {
            for slot in 0..SEEDS_PER_SHAPE {
                jobs.push(Job {
                    district,
                    t_out,
                    gen_seed: job_seed(seed, district, t_out, slot),
                });
            }
        }
    }
    jobs
}

/// The first `n` requests of the run's mix, in issue order: blocks of
/// every distinct job once, each block shuffled. Any run-sized window
/// then asks for nearly the same work whatever the seed, so the seed
/// moves the order and the generated values, not the load.
pub fn request_mix(seed: u64, n: usize) -> Vec<Job> {
    let mut s = Stream::new(seed, 7);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut block = distinct_jobs(seed);
        for i in (1..block.len()).rev() {
            block.swap(i, s.below(i + 1));
        }
        out.extend(block);
    }
    out.truncate(n);
    out
}

/// A scratch directory for one run's containers, inside the
/// benchmark's own directory; removed again on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates a fresh directory named after the workload and process.
    pub fn new(workload: &str) -> std::io::Result<WorkDir> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn request_mix_is_a_function_of_the_seed() {
        assert_eq!(request_mix(5, 300), request_mix(5, 300));
        assert_ne!(request_mix(5, 300), request_mix(6, 300));
        // A longer mix extends a shorter one.
        assert_eq!(request_mix(5, 300)[..100], request_mix(5, 100)[..]);
    }

    #[test]
    fn every_block_of_the_mix_asks_for_each_job_once() {
        let distinct: HashSet<Job> = distinct_jobs(9).into_iter().collect();
        let mix = request_mix(9, 10 * distinct.len());
        for block in mix.chunks(distinct.len()) {
            assert_eq!(block.iter().copied().collect::<HashSet<Job>>(), distinct);
        }
        // Blocks are shuffled independently.
        assert_ne!(
            mix[..distinct.len()],
            mix[distinct.len()..2 * distinct.len()]
        );
    }

    #[test]
    fn request_mix_stays_inside_the_referenced_jobs() {
        let distinct: HashSet<Job> = distinct_jobs(9).into_iter().collect();
        assert_eq!(
            distinct.len(),
            DISTRICTS.len() * SERVE_T_OUT.len() * SEEDS_PER_SHAPE
        );
        let mix = request_mix(9, 600);
        assert!(mix.iter().all(|j| distinct.contains(j)));
        // Every district and duration shows up in a run-sized mix.
        for d in 0..DISTRICTS.len() {
            for t in SERVE_T_OUT {
                assert!(mix.iter().any(|j| j.district == d && j.t_out == t));
            }
        }
    }

    #[test]
    fn city_synthesis_is_a_function_of_the_seed() {
        let a = synth_city("a", 12, 16, 3);
        let b = synth_city("a", 12, 16, 3);
        let c = synth_city("a", 12, 16, 4);
        assert_eq!((a.context.height(), a.context.width()), (12, 16));
        assert_eq!(a.traffic.len_t(), 168);
        assert!(crate::stats::bits_equal(a.context.data(), b.context.data()));
        assert!(crate::stats::bits_equal(a.traffic.data(), b.traffic.data()));
        assert!(!crate::stats::bits_equal(
            a.traffic.data(),
            c.traffic.data()
        ));
    }

    #[test]
    fn derived_streams_differ() {
        assert_ne!(derive(1, 1), derive(1, 2));
        assert_ne!(derive(1, 1), derive(2, 1));
        assert_eq!(derive(1, 1), derive(1, 1));
    }
}
