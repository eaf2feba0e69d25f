//! The bit-exact reference backend.
//!
//! These are the historical kernels of [`Tensor`], moved here verbatim:
//! the same tiling over [`crate::pool::par_chunks_mut`], the same
//! per-element summation order, the same arena buffers. Every golden
//! fixture, kill/resume artifact and determinism sweep recorded before
//! the backend split reproduces byte-identically against this backend.
//! Its `tanh_slice` (the trait default) is an in-crate transcription of
//! the libm `tanhf` the historical kernels called, bit for bit (see
//! `backend/tanh.rs`).
//!
//! The one deliberate change: the conv gradient kernels no longer skip
//! contributions whose upstream gradient is exactly `±0.0`. The skip
//! was a throughput hack that silently masked non-finite values —
//! `0 · inf = NaN` was dropped instead of propagated, so a blown-up
//! activation whose gradient happened to zero out could slip past the
//! train-loop divergence guard. Accumulating unconditionally is
//! bit-identical for finite data (adding `±0.0` to an accumulator that
//! is never `-0.0` cannot flip a bit) and surfaces NaN where it
//! belongs; the golden fixtures confirm the first claim, and
//! `non_finite_gradients_propagate` in the tensor tests the second.

use super::{
    conv2d_grad_input_dims, conv2d_grad_weight_dims, conv2d_out_shape, Backend, BackendKind,
};
use crate::arena;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Reference scalar kernels (see module docs).
pub struct ScalarBackend;

impl Backend for ScalarBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Scalar
    }

    fn matmul(&self, a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape().dim(0), a.shape().dim(1));
        let n = b.shape().dim(1);
        let mut out = arena::take_zeroed(m * n);
        for i in 0..m {
            let a_row = &a.data()[i * k..(i + 1) * k];
            let o_row = &mut out[i * n..(i + 1) * n];
            for (p, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &b.data()[p * n..(p + 1) * n];
                for (o, &bv) in o_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        Tensor::from_vec(out, [m, n])
    }

    fn conv2d(&self, input: &Tensor, weight: &Tensor, pad: usize) -> Tensor {
        let d = conv2d_out_shape(input.shape(), weight.shape(), pad);
        let (cin, h, w) = (d.cin, d.h, d.w);
        let (cout, kh, kw) = (d.cout, d.kh, d.kw);
        let (oh, ow) = (d.oh, d.ow);
        let mut out = Tensor::zeros([d.n, cout, oh, ow]);
        if out.numel() == 0 {
            return out;
        }
        crate::pool::par_chunks_mut(out.data_mut(), oh * ow, |tile, plane| {
            let b = tile / cout;
            let oc = tile % cout;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ic in 0..cin {
                        for ky in 0..kh {
                            let iy = oy + ky;
                            if iy < pad || iy - pad >= h {
                                continue;
                            }
                            let iy = iy - pad;
                            let in_base = ((b * cin + ic) * h + iy) * w;
                            let w_base = ((oc * cin + ic) * kh + ky) * kw;
                            for kx in 0..kw {
                                let ix = ox + kx;
                                if ix < pad || ix - pad >= w {
                                    continue;
                                }
                                acc +=
                                    input.data()[in_base + (ix - pad)] * weight.data()[w_base + kx];
                            }
                        }
                    }
                    plane[oy * ow + ox] = acc;
                }
            }
        });
        out
    }

    fn conv2d_grad_input(
        &self,
        grad_out: &Tensor,
        weight: &Tensor,
        input_shape: &Shape,
        pad: usize,
    ) -> Tensor {
        let d = conv2d_grad_input_dims(grad_out.shape(), weight.shape(), input_shape, pad);
        let (cin, h, w) = (d.cin, d.h, d.w);
        let (cout, kh, kw) = (d.cout, d.kh, d.kw);
        let (oh, ow) = (d.oh, d.ow);
        let mut grad_in = Tensor::zeros(input_shape.clone());
        if grad_in.numel() == 0 {
            return grad_in;
        }
        crate::pool::par_chunks_mut(grad_in.data_mut(), h * w, |tile, plane| {
            let b = tile / cin;
            let ic = tile % cin;
            for oc in 0..cout {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = grad_out.data()[((b * cout + oc) * oh + oy) * ow + ox];
                        for ky in 0..kh {
                            let iy = oy + ky;
                            if iy < pad || iy - pad >= h {
                                continue;
                            }
                            let row = (iy - pad) * w;
                            let w_base = ((oc * cin + ic) * kh + ky) * kw;
                            for kx in 0..kw {
                                let ix = ox + kx;
                                if ix < pad || ix - pad >= w {
                                    continue;
                                }
                                plane[row + (ix - pad)] += g * weight.data()[w_base + kx];
                            }
                        }
                    }
                }
            }
        });
        grad_in
    }

    fn conv2d_grad_weight(
        &self,
        grad_out: &Tensor,
        input: &Tensor,
        weight_shape: &Shape,
        pad: usize,
    ) -> Tensor {
        let d = conv2d_grad_weight_dims(grad_out.shape(), input.shape(), weight_shape, pad);
        let (n, cin, h, w) = (d.n, d.cin, d.h, d.w);
        let (cout, kh, kw) = (d.cout, d.kh, d.kw);
        let (oh, ow) = (d.oh, d.ow);
        let mut grad_w = Tensor::zeros(weight_shape.clone());
        if grad_w.numel() == 0 {
            return grad_w;
        }
        crate::pool::par_chunks_mut(grad_w.data_mut(), cin * kh * kw, |oc, kernel| {
            for b in 0..n {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = grad_out.data()[((b * cout + oc) * oh + oy) * ow + ox];
                        for ic in 0..cin {
                            for ky in 0..kh {
                                let iy = oy + ky;
                                if iy < pad || iy - pad >= h {
                                    continue;
                                }
                                let iy = iy - pad;
                                let in_base = ((b * cin + ic) * h + iy) * w;
                                let k_base = (ic * kh + ky) * kw;
                                for kx in 0..kw {
                                    let ix = ox + kx;
                                    if ix < pad || ix - pad >= w {
                                        continue;
                                    }
                                    kernel[k_base + kx] += g * input.data()[in_base + (ix - pad)];
                                }
                            }
                        }
                    }
                }
            }
        });
        grad_w
    }
}
