//! Corrupt-input property tests for every `geo::io` decoder.
//!
//! The decoders sit on trust boundaries: files shared between users,
//! bytes streamed from a network peer, checkpoints left by a killed
//! run. The properties here assert the decoder contract under
//! corruption — a mangled input either decodes to a self-consistent
//! value or returns a *typed* [`IoError`]; it never panics, and length
//! headers can never drive an allocation above the caller's cap.

use proptest::prelude::*;
use spectragan_geo::io::{
    crc32, decode_band, decode_checked, decode_context, decode_traffic, encode_band,
    encode_checked, encode_context, encode_traffic, extend_f32_le, f32s_from_le,
    read_checked_frame, IoError, FORMAT_VERSION,
};
use spectragan_geo::{ContextMap, TrafficBand, TrafficMap};

/// Magic of the checked frames these properties build.
const FRAME_MAGIC: &[u8; 4] = b"TSTF";

/// A deterministic pseudo-random f32 payload.
fn payload(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32) / (1 << 24) as f32 - 0.5
        })
        .collect()
}

proptest! {
    /// Truncating a valid SGTM container at *any* byte offset is a
    /// typed error, never a panic and never silently-valid data.
    #[test]
    fn truncated_traffic_never_panics(t in 1usize..4, h in 1usize..6, w in 1usize..6, seed in 0u64..50) {
        let map = TrafficMap::from_vec(payload(t * h * w, seed), t, h, w);
        let bytes = encode_traffic(&map);
        for cut in 0..bytes.len() {
            prop_assert!(decode_traffic(&bytes[..cut]).is_err(), "prefix of {cut} bytes accepted");
        }
        prop_assert_eq!(decode_traffic(&bytes).unwrap(), map);
    }

    /// Same property for SGCM context containers.
    #[test]
    fn truncated_context_never_panics(c in 1usize..5, h in 1usize..6, w in 1usize..6, seed in 0u64..50) {
        let map = ContextMap::from_vec(payload(c * h * w, seed), c, h, w);
        let bytes = encode_context(&map);
        for cut in 0..bytes.len() {
            prop_assert!(decode_context(&bytes[..cut]).is_err(), "prefix of {cut} bytes accepted");
        }
        prop_assert_eq!(decode_context(&bytes).unwrap(), map);
    }

    /// Same property for SGBD band frames.
    #[test]
    fn truncated_band_never_panics(y0 in 0usize..100, rows in 1usize..4, t in 1usize..5, w in 1usize..6, seed in 0u64..50) {
        let band = TrafficBand { y0, rows, t, w, data: payload(rows * t * w, seed) };
        let bytes = encode_band(&band);
        for cut in 0..bytes.len() {
            prop_assert!(decode_band(&bytes[..cut]).is_err(), "prefix of {cut} bytes accepted");
        }
        prop_assert_eq!(decode_band(&bytes).unwrap(), band);
    }

    /// Overwriting a dimension field with an arbitrary value either
    /// fails typed or yields a map whose element count matches the
    /// mutated header — a decoder must never trust the original
    /// length once the dims changed.
    #[test]
    fn flipped_dims_fail_or_stay_consistent(
        t in 1usize..4, h in 1usize..6, w in 1usize..6,
        which in 0usize..3, newdim in 0u32..1000, seed in 0u64..50,
    ) {
        let map = TrafficMap::from_vec(payload(t * h * w, seed), t, h, w);
        let mut bytes = encode_traffic(&map);
        bytes[6 + 4 * which..6 + 4 * (which + 1)].copy_from_slice(&newdim.to_le_bytes());
        match decode_traffic(&bytes) {
            Ok(back) => {
                let dims = [back.len_t(), back.height(), back.width()];
                prop_assert_eq!(dims[which], newdim as usize);
                prop_assert_eq!(back.data().len(), dims[0] * dims[1] * dims[2]);
            }
            Err(
                IoError::BadLength { .. } | IoError::BadDims | IoError::BadMagic,
            ) => {}
            Err(other) => prop_assert!(false, "untyped rejection: {other}"),
        }
    }

    /// Dim combinations whose product overflows usize are rejected as
    /// BadDims before any allocation is attempted.
    #[test]
    fn overflowing_dim_products_are_rejected(a in u32::MAX - 3..=u32::MAX, b in u32::MAX - 3..=u32::MAX, c in 2u32..=u32::MAX) {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"SGTM");
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        for d in [a, b, c] {
            bytes.extend_from_slice(&d.to_le_bytes());
        }
        prop_assert!(matches!(decode_traffic(&bytes), Err(IoError::BadDims)));
    }

    /// Any length header above the cap is a typed FrameTooLarge — the
    /// reader returns before touching (or allocating for) the payload.
    #[test]
    fn oversized_length_headers_are_capped(cap in 0usize..10_000, over in 1u64..u64::MAX / 2) {
        let claimed = (cap as u64).saturating_add(over);
        let mut frame = Vec::new();
        frame.extend_from_slice(FRAME_MAGIC);
        frame.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        frame.extend_from_slice(&claimed.to_le_bytes());
        frame.extend_from_slice(&0u32.to_le_bytes());
        let got = read_checked_frame(&mut frame.as_slice(), FRAME_MAGIC, cap);
        prop_assert!(
            matches!(got, Err(IoError::FrameTooLarge { len, max }) if len == claimed && max == cap)
        );
    }

    /// Flipping any single byte of a checked container is always a
    /// typed rejection: the CRC covers the payload, and every header
    /// field is validated.
    #[test]
    fn checked_container_rejects_any_single_byte_flip(n in 0usize..200, flip in 0usize..218, bit in 0u8..8, seed in 0u64..50) {
        let body: Vec<u8> = payload(n.div_ceil(4).max(1), seed)
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .take(n)
            .collect();
        let mut framed = encode_checked(FRAME_MAGIC, &body);
        prop_assume!(flip < framed.len());
        framed[flip] ^= 1 << bit;
        match decode_checked(FRAME_MAGIC, &framed) {
            Err(
                IoError::BadMagic
                | IoError::BadVersion(_)
                | IoError::BadLength { .. }
                | IoError::BadChecksum { .. },
            ) => {}
            Err(other) => prop_assert!(false, "untyped rejection: {other}"),
            // A flip in the CRC field colliding back to valid is
            // impossible for a single-bit flip (CRC-32 detects all
            // single-bit errors), as is a payload flip.
            Ok(_) => prop_assert!(false, "corrupt container accepted"),
        }
    }

    /// The bulk little-endian encode path is bit-identical to a scalar
    /// reference encoding, and decode inverts it bit-exactly.
    #[test]
    fn bulk_f32_encode_matches_scalar_reference(t in 1usize..4, h in 1usize..8, w in 1usize..8, seed in 0u64..200) {
        let data = payload(t * h * w, seed);
        let map = TrafficMap::from_vec(data.clone(), t, h, w);
        let bytes = encode_traffic(&map);
        // Scalar reference: header + per-element to_le_bytes.
        let mut reference = Vec::new();
        reference.extend_from_slice(b"SGTM");
        reference.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        for d in [t, h, w] {
            reference.extend_from_slice(&(d as u32).to_le_bytes());
        }
        for &v in &data {
            reference.extend_from_slice(&v.to_le_bytes());
        }
        prop_assert_eq!(&bytes, &reference);
        let back = decode_traffic(&bytes).unwrap();
        let a: Vec<u32> = back.data().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(a, b);
    }

    /// The bulk f32 little-endian codec — which the SGWT directory's
    /// dequantization scales ride — round-trips *every* 32-bit pattern
    /// bit-exactly, NaN payloads and negative zero included. Nothing
    /// may be normalized in transit: corrupt scales must arrive intact
    /// so the semantic finite/positive check upstairs can refuse them.
    #[test]
    fn f32_le_codec_roundtrips_arbitrary_bit_patterns(
        words in proptest::collection::vec(0u32..=u32::MAX, 0..64),
    ) {
        let vals: Vec<f32> = words.iter().map(|&w| f32::from_bits(w)).collect();
        let mut bytes = Vec::with_capacity(4 * vals.len());
        extend_f32_le(&mut bytes, &vals);
        prop_assert_eq!(bytes.len(), 4 * vals.len());
        let back = f32s_from_le(&bytes);
        let got: Vec<u32> = back.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, words);
    }

    /// Flipping one byte of an encoded f32 run perturbs exactly the
    /// containing element — the codec is positional, so a corrupt
    /// scale can never smear into its neighbors.
    #[test]
    fn f32_le_byte_flip_is_contained_to_one_element(
        n in 1usize..32, flip in 0usize..128, bit in 0u8..8, seed in 0u64..50,
    ) {
        let vals = payload(n, seed);
        let mut bytes = Vec::new();
        extend_f32_le(&mut bytes, &vals);
        prop_assume!(flip < bytes.len());
        bytes[flip] ^= 1 << bit;
        let back = f32s_from_le(&bytes);
        prop_assert_eq!(back.len(), n);
        for (i, (&a, &b)) in vals.iter().zip(&back).enumerate() {
            if i == flip / 4 {
                prop_assert!(a.to_bits() != b.to_bits(), "flipped element unchanged");
            } else {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "element {} smeared", i);
            }
        }
    }

    /// CRC-32 detects every single-bit flip in a frame's payload.
    #[test]
    fn crc_differs_on_any_single_bit_flip(n in 1usize..300, flip in 0usize..300, bit in 0u8..8, seed in 0u64..50) {
        let mut body: Vec<u8> = payload(n.div_ceil(4), seed)
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .take(n)
            .collect();
        prop_assume!(flip < body.len());
        let before = crc32(&body);
        body[flip] ^= 1 << bit;
        prop_assert!(crc32(&body) != before);
    }
}
