//! Exact, vectorizable `tanh` for the scalar reference backend.
//!
//! A transcription of fdlibm's `tanhf` on top of its `expm1f` — the
//! algorithm glibc ships as `s_tanhf.c` / `s_expm1f.c` (2.36 and
//! earlier) — in plain f32 arithmetic with no fused multiply-adds. It
//! returns the bits libm's `tanhf` returns, without a call per element
//! and without depending on the host's libm.
//!
//! * [`tanhf`] is the straight-line port, branch for branch.
//! * [`tanh_slice`] is the same arithmetic made branch-free: every lane
//!   evaluates every path the reference can take for a `tanh` argument
//!   with the reference's own operations, and a select picks each
//!   lane's result, so blocks of lanes autovectorize. NaN, ±inf and ±0
//!   lanes are recomputed with [`tanhf`].
//!
//! Both are checked against each other over all 2^32 inputs
//! (`branch_free_matches_straight_line_everywhere`, ignored by default
//! and run in release by CI), and against the host's `f32::tanh` on a
//! strided sweep plus every branch boundary.

/// Lanes per branch-free block of [`tanh_slice`]; what is left of a
/// slice after its full blocks goes in blocks of [`LANES`].
const BLOCK: usize = 64;

/// The smallest branch-free block.
const LANES: usize = 8;

const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
// Scaled coefficients of the expm1 rational approximation.
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// `fdlibm` `tanhf`, straight-line.
pub fn tanhf(x: f32) -> f32 {
    let jx = x.to_bits() as i32;
    let ix = jx & 0x7fff_ffff;
    if ix >= 0x7f80_0000 {
        // tanh(±inf) = ±1, tanh(NaN) = NaN.
        return if jx >= 0 {
            1.0 / x + 1.0
        } else {
            1.0 / x - 1.0
        };
    }
    let z = if ix < 0x41b0_0000 {
        if ix == 0 {
            return x;
        }
        if ix < 0x2400_0000 {
            // |x| < 2^-55
            return x * (1.0 + x);
        }
        if ix >= 0x3f80_0000 {
            let t = expm1f(2.0 * x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1f(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        // |x| >= 22: 1 - tiny rounds to 1.
        1.0
    };
    if jx >= 0 {
        z
    } else {
        -z
    }
}

/// `fdlibm` `expm1f`, straight-line, for the arguments [`tanhf`]
/// passes it: `(-2, 0)` and `[2, 44)`. The reference's branches for
/// larger or non-finite arguments, and for `k = 1`, are left out: no
/// such argument reaches them.
fn expm1f(x: f32) -> f32 {
    let bits = x.to_bits();
    let neg = bits >> 31 != 0;
    let hx = (bits & 0x7fff_ffff) as i32;
    let (r, c, k) = if hx > 0x3eb1_7218 {
        // |x| > 0.5·ln2
        let (hi, lo, k) = if hx < 0x3f85_1592 {
            // and |x| < 1.5·ln2, which only negative arguments are.
            (x + LN2_HI, -LN2_LO, -1)
        } else {
            let k = (INVLN2 * x + if neg { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            (x - t * LN2_HI, t * LN2_LO, k)
        };
        let r = hi - lo;
        (r, (hi - r) - lo, k)
    } else if hx < 0x3300_0000 {
        // |x| < 2^-25
        return x;
    } else {
        (x, 0.0, 0)
    };
    let x = r;
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = (x * (e - c) - c) - hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k <= -2 || k > 56 {
        return add_exponent(1.0 - (e - x), k) - 1.0;
    }
    if k < 23 {
        let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k));
        add_exponent(t - (e - x), k)
    } else {
        let t = f32::from_bits(((0x7f - k) << 23) as u32);
        add_exponent((x - (e + t)) + 1.0, k)
    }
}

/// Adds `k` to the biased exponent of `y` (fdlibm's
/// `SET_FLOAT_WORD(y, i + (k << 23))`).
#[inline(always)]
fn add_exponent(y: f32, k: i32) -> f32 {
    f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32)
}

/// `tanh` of every element of `y`, in place, bit-equal to [`tanhf`].
pub fn tanh_slice(y: &mut [f32]) {
    let mut blocks = y.chunks_exact_mut(BLOCK);
    for block in &mut blocks {
        tanh_block::<BLOCK>(block.try_into().expect("exact chunk"));
    }
    for rest in blocks.into_remainder().chunks_mut(LANES) {
        // Pad with an ordinary argument so a short block takes the
        // fast path.
        let mut buf = [1.0; LANES];
        buf[..rest.len()].copy_from_slice(rest);
        tanh_block(&mut buf);
        rest.copy_from_slice(&buf[..rest.len()]);
    }
}

/// Branch-free [`tanhf`] over `N` lanes, in three passes (argument
/// reduction, expm1's rational kernel, reconstruction) so that each
/// pass is a short loop whose iterations overlap. One pass over the
/// whole chain per lane is latency-bound, and no faster than libm.
///
/// `tanh` passes `expm1` the arguments `(-2, 0)` (for |x| < 1) and
/// `[2, 44)` (for 1 ≤ |x| < 22). Every lane evaluates each of the
/// reference's paths for those arguments and a select picks its
/// result; a lane whose path is not taken computes garbage without
/// trapping (the integer ops wrap). NaN, ±inf and ±0 lanes are then
/// recomputed with [`tanhf`].
#[inline(always)]
fn tanh_block<const N: usize>(v: &mut [f32; N]) {
    let x = *v;
    // Pass 1: u = ±2|x|, reduced as u = k·ln2 + (r + c). The
    // reference's k = ±1 case is the general one with k = ±1, and its
    // k = 0 case, which skips the reduction, equals the general one
    // with k = 0.
    let mut rs = [0.0f32; N];
    let mut cs = [0.0f32; N];
    let mut ks = [0.0f32; N];
    for l in 0..N {
        let ix = x[l].to_bits() & 0x7fff_ffff;
        let small = ix < 0x3f80_0000;
        let a = x[l].abs();
        let u = if small { -2.0 * a } else { 2.0 * a };
        let hu = u.to_bits() & 0x7fff_ffff;
        let k = if hu <= 0x3eb1_7218 {
            0.0
        } else if hu < 0x3f85_1592 {
            if small {
                -1.0
            } else {
                1.0
            }
        } else {
            trunc(INVLN2 * u + if small { -0.5 } else { 0.5 })
        };
        let hi = u - k * LN2_HI;
        let lo = k * LN2_LO;
        let r = hi - lo;
        rs[l] = r;
        cs[l] = (hi - r) - lo;
        ks[l] = k;
    }
    // Pass 2: expm1's rational correction term.
    let mut es = [0.0f32; N];
    for l in 0..N {
        let r = rs[l];
        let hfx = 0.5 * r;
        let hxs = r * hfx;
        let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
        let t = 3.0 - r1 * hfx;
        es[l] = hxs * ((r1 - t) / (6.0 - r * t));
    }
    // Pass 3: expm1 per k, then tanh.
    let mut special = false;
    for l in 0..N {
        let ix = x[l].to_bits() & 0x7fff_ffff;
        special |= ix == 0 || ix >= 0x7f80_0000;
        let small = ix < 0x3f80_0000;
        let (r, c) = (rs[l], cs[l]);
        let k = (ks[l] + ROUND).to_bits().wrapping_sub(ROUND.to_bits()) as i32;
        let hxs = r * (0.5 * r);
        let e = es[l];
        let k_zero = r - (r * e - hxs);
        let e = (r * (e - c) - c) - hxs;
        let k_minus_one = 0.5 * (r - e) - 0.5;
        let k_far = add_exponent(1.0 - (e - r), k) - 1.0;
        // 2^-k. For k < 23, 1 - 2^-k is exact and equals the
        // reference's 0x3f800000 - (0x1000000 >> k).
        let two_mk = f32::from_bits((0x7f_i32.wrapping_sub(k) << 23) as u32);
        let k_mid = add_exponent((1.0 - two_mk) - (e - r), k);
        let k_high = add_exponent((r - (e + two_mk)) + 1.0, k);
        let expm1 = if ix < 0x3280_0000 {
            // |u| < 2^-25: expm1(u) = u.
            -2.0 * x[l].abs()
        } else if k == 0 {
            k_zero
        } else if k == -1 {
            k_minus_one
        } else if k <= -2 || k > 56 {
            k_far
        } else if k < 23 {
            k_mid
        } else {
            k_high
        };
        let q = if small { -expm1 } else { 2.0 } / (expm1 + 2.0);
        let z = if ix >= 0x41b0_0000 {
            1.0
        } else if small {
            q
        } else {
            1.0 - q
        };
        let z = if x[l].is_sign_negative() { -z } else { z };
        v[l] = if ix < 0x2400_0000 {
            x[l] * (1.0 + x[l])
        } else {
            z
        };
    }
    if special {
        for l in 0..N {
            let ix = x[l].to_bits() & 0x7fff_ffff;
            if ix == 0 || ix >= 0x7f80_0000 {
                v[l] = tanhf(x[l]);
            }
        }
    }
}

/// 1.5·2^23: adding it rounds an |v| < 2^22 to an integer, whose value
/// is then the low bits of the sum.
const ROUND: f32 = 12_582_912.0;

/// `v` rounded toward zero, as the reference's `(int32_t)` cast does,
/// for |v| < 2^22, without Rust's saturating float-to-int cast, which
/// does not vectorize on SSE2.
#[inline(always)]
fn trunc(v: f32) -> f32 {
    let nearest = (v + ROUND) - ROUND;
    if nearest.abs() > v.abs() {
        nearest - 1.0f32.copysign(v)
    } else {
        nearest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_same(x: f32, got: f32, want: f32, what: &str) {
        assert!(
            got.to_bits() == want.to_bits(),
            "{what}: tanh({x:e} = {:#010x}) = {got:e} ({:#010x}), want {want:e} ({:#010x})",
            x.to_bits(),
            got.to_bits(),
            want.to_bits()
        );
    }

    fn boundaries() -> Vec<f32> {
        let mut xs = vec![
            0.0,
            f32::from_bits(1),           // smallest subnormal
            f32::from_bits(0x007f_ffff), // largest subnormal
            f32::MIN_POSITIVE,
            f32::from_bits(0x2400_0000), // 2^-55
            f32::from_bits(0x3300_0000), // 2^-25: expm1's small cut
            f32::from_bits(0x3eb1_7218), // 0.5·ln2 as an expm1 argument
            f32::from_bits(0x3f85_1592), // 1.5·ln2 as an expm1 argument
            0.25,
            1.0,
            f32::from_bits(0x4195_b844), // 27·ln2
            19.5,
            22.0,
            f32::MAX,
            f32::INFINITY,
        ];
        // Neighbours of each boundary, and the halves of the expm1
        // cuts (tanh passes ±2|x| to expm1).
        for x in xs.clone() {
            if x.is_finite() && x > 0.0 {
                xs.push(x / 2.0);
            }
        }
        for x in xs.clone() {
            let b = x.to_bits();
            xs.extend([b.wrapping_sub(1), b + 1].map(f32::from_bits));
        }
        xs.extend(xs.clone().iter().map(|x| -x));
        xs.push(f32::NAN);
        xs.push(-f32::NAN);
        xs.push(f32::from_bits(0x7f80_0001)); // signalling NaN
        xs
    }

    #[test]
    fn matches_host_libm_on_boundaries_and_a_strided_sweep() {
        let mut xs = boundaries();
        // Every 4099th bit pattern (odd stride: all exponents and
        // mantissa residues are visited).
        xs.extend((0..=u32::MAX).step_by(4099).map(f32::from_bits));
        let mut got = xs.clone();
        tanh_slice(&mut got);
        for (&x, &g) in xs.iter().zip(&got) {
            let want = x.tanh();
            if want.is_nan() {
                assert!(g.is_nan() && tanhf(x).is_nan(), "tanh({x}) must be NaN");
                continue;
            }
            assert_same(x, tanhf(x), want, "straight-line");
            assert_same(x, g, want, "branch-free");
        }
    }

    #[test]
    fn slice_tails_and_special_lanes_take_the_reference_path() {
        for len in 0..=BLOCK + 2 * LANES + 1 {
            let xs: Vec<f32> = (0..len)
                .map(|i| match i % 5 {
                    0 => 0.0,
                    1 => -f32::INFINITY,
                    _ => (i as f32 - 7.5) * 0.37,
                })
                .collect();
            let mut got = xs.clone();
            tanh_slice(&mut got);
            for (&x, &g) in xs.iter().zip(&got) {
                assert_same(x, g, tanhf(x), "slice");
            }
        }
    }

    /// All 2^32 inputs, branch-free against straight-line (host
    /// independent). About a minute on two cores in release:
    /// `cargo test --release -p spectragan-tensor --lib -- --ignored`.
    #[test]
    #[ignore]
    fn branch_free_matches_straight_line_everywhere() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let span = (1u64 << 32).div_ceil(threads);
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    let end = ((t + 1) * span).min(1 << 32);
                    let mut buf = vec![0.0f32; 1 << 16];
                    let mut start = t * span;
                    while start < end {
                        let n = ((end - start) as usize).min(buf.len());
                        for (i, v) in buf[..n].iter_mut().enumerate() {
                            *v = f32::from_bits((start + i as u64) as u32);
                        }
                        tanh_slice(&mut buf[..n]);
                        for (i, &g) in buf[..n].iter().enumerate() {
                            let x = f32::from_bits((start + i as u64) as u32);
                            let want = tanhf(x);
                            assert!(
                                g.to_bits() == want.to_bits(),
                                "tanh({:#010x}): branch-free {:#010x}, straight-line {:#010x}",
                                x.to_bits(),
                                g.to_bits(),
                                want.to_bits()
                            );
                        }
                        start += n as u64;
                    }
                });
            }
        });
    }
}
