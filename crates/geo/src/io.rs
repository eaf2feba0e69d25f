//! On-disk formats for traffic and context maps, plus the atomic-write
//! and checksummed-container primitives every persistent write in the
//! workspace routes through.
//!
//! Three formats:
//!
//! * **SGTM binary** — a compact little-endian container for sharing
//!   generated datasets (the paper's stated goal is publishing a
//!   reference ensemble of synthetic maps; a few hundred MB of f32s
//!   should not travel as JSON). Layout: magic `SGTM`/`SGCM`, a u16
//!   version, the dimensions as u32s, then the raw f32 payload.
//! * **CSV** — long-format text (`t,y,x,value` / `c,y,x,value`) for
//!   plotting and spreadsheet work.
//! * **Checked container** — a generic `magic + version + length +
//!   CRC-32 + payload` frame ([`encode_checked`]/[`decode_checked`])
//!   for payloads whose silent corruption would be catastrophic
//!   (training checkpoints). Unlike the map headers, which only bound
//!   the payload length, the CRC detects torn writes *and* bit flips.
//!
//! All readers validate magic, version and payload length and return
//! [`IoError`] rather than panicking: files cross trust boundaries.
//!
//! # Crash safety
//!
//! [`atomic_write`] is the single write path: bytes land in a hidden
//! temporary file in the destination directory, are fsynced, and then
//! `rename(2)`d over the target. A crash at any point leaves either the
//! old file or the new file — never a truncated hybrid. Every persistent
//! writer in the workspace ([`save_traffic`], [`save_context`], the
//! CLI's dataset/model/CSV writers and the training checkpoints) goes
//! through it.

use crate::context::ContextMap;
use crate::patch::TrafficBand;
use crate::traffic::TrafficMap;
use spectragan_obs as obs;
use std::fmt;
use std::fs;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Cached metric handles for the persistent-write path. Recording
/// self-gates on [`obs::enabled`]; disabled cost is one relaxed load
/// per [`atomic_write`].
struct IoMetrics {
    /// Payload bytes handed to [`atomic_write`].
    write_bytes: &'static obs::Counter,
    /// Completed [`atomic_write`] calls.
    writes: &'static obs::Counter,
    /// `fsync` (`File::sync_all`) latency of the payload file.
    fsync_ns: &'static obs::Histogram,
}

fn io_metrics() -> &'static IoMetrics {
    static M: OnceLock<IoMetrics> = OnceLock::new();
    M.get_or_init(|| IoMetrics {
        write_bytes: obs::counter("spectragan_io_write_bytes_total"),
        writes: obs::counter("spectragan_io_writes_total"),
        fsync_ns: obs::histogram("spectragan_io_fsync_ns"),
    })
}

/// Current container version.
pub const FORMAT_VERSION: u16 = 1;

const TRAFFIC_MAGIC: &[u8; 4] = b"SGTM";
const CONTEXT_MAGIC: &[u8; 4] = b"SGCM";
const BAND_MAGIC: &[u8; 4] = b"SGBD";

/// Errors for map (de)serialization.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Fs(std::io::Error),
    /// Wrong magic bytes (not a map file, or the wrong kind of map).
    BadMagic,
    /// Unsupported container version.
    BadVersion(u16),
    /// Payload shorter or longer than the header promises.
    BadLength { expected: usize, actual: usize },
    /// Dimension header would overflow.
    BadDims,
    /// Malformed CSV line.
    BadCsv(String),
    /// Payload checksum mismatch (torn write or bit corruption).
    BadChecksum { expected: u32, actual: u32 },
    /// A frame's length header exceeds the caller's cap. Length
    /// headers are read *before* the CRC can be validated, so they are
    /// untrusted input: without a cap a forged or corrupt header could
    /// drive an arbitrarily large allocation.
    FrameTooLarge { len: u64, max: usize },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Fs(e) => write!(f, "filesystem error: {e}"),
            IoError::BadMagic => write!(f, "not a SpectraGAN map file (bad magic)"),
            IoError::BadVersion(v) => write!(f, "unsupported container version {v}"),
            IoError::BadLength { expected, actual } => {
                write!(
                    f,
                    "payload length {actual} does not match header ({expected})"
                )
            }
            IoError::BadDims => write!(f, "dimension header overflows"),
            IoError::BadCsv(line) => write!(f, "malformed CSV line: {line}"),
            IoError::BadChecksum { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: header says {expected:#010x}, payload hashes to \
                     {actual:#010x} (torn write or corruption)"
                )
            }
            IoError::FrameTooLarge { len, max } => {
                write!(
                    f,
                    "frame length header claims {len} bytes, above the {max}-byte cap \
                     (forged or corrupt frame)"
                )
            }
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Fs(e)
    }
}

// ---------------------------------------------------------------------
// Atomic writes
// ---------------------------------------------------------------------

/// Writes `bytes` to `path` atomically: the data goes to a hidden
/// temporary file in the same directory, is flushed and fsynced, and is
/// then renamed over the target. Readers concurrent with a crash see
/// either the complete old contents or the complete new contents —
/// never a truncated mix. The temporary is removed on failure.
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> Result<(), IoError> {
    let path = path.as_ref();
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            IoError::Fs(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("not a file path: {}", path.display()),
            ))
        })?
        .to_string_lossy()
        .into_owned();
    // Same-directory temporary so the final rename never crosses a
    // filesystem boundary; the pid suffix keeps concurrent processes
    // (e.g. parallel test binaries) from clobbering each other's tmp.
    let tmp_name = format!(".{file_name}.tmp.{}", std::process::id());
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => Path::new(&tmp_name).to_path_buf(),
    };
    let write_and_sync = || -> std::io::Result<()> {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        let t0 = obs::enabled().then(Instant::now);
        f.sync_all()?;
        if let Some(t0) = t0 {
            io_metrics().fsync_ns.record(t0.elapsed().as_nanos() as u64);
        }
        Ok(())
    };
    if let Err(e) = write_and_sync() {
        let _ = fs::remove_file(&tmp);
        return Err(IoError::Fs(e));
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(IoError::Fs(e));
    }
    if obs::enabled() {
        let m = io_metrics();
        m.write_bytes.inc(bytes.len() as u64);
        m.writes.inc(1);
    }
    // Best-effort directory fsync so the rename itself is durable; some
    // platforms refuse to open directories, which is fine to ignore.
    if let Some(d) = dir {
        if let Ok(df) = fs::File::open(d) {
            let _ = df.sync_all();
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// CRC-32 and the checked container
// ---------------------------------------------------------------------

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    // Nibble-driven table: small enough to build per call without a
    // cache, fast enough for multi-MB checkpoint payloads.
    let mut table = [0u32; 16];
    for (i, entry) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..4 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *entry = c;
    }
    let mut crc = !0u32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0x0F) as usize] ^ (crc >> 4);
        crc = table[((crc ^ (b as u32 >> 4)) & 0x0F) as usize] ^ (crc >> 4);
    }
    !crc
}

/// Header size of the checked container: magic (4) + version (2) +
/// payload length (8) + CRC-32 (4).
const CHECKED_HEADER: usize = 18;

/// Frames `payload` in the checked container: `magic`, the container
/// version, the payload length as u64, the payload's CRC-32, then the
/// payload itself — all little-endian.
pub fn encode_checked(magic: &[u8; 4], payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(CHECKED_HEADER + payload.len());
    buf.extend_from_slice(magic);
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Validates a checked container and returns its payload. Rejects wrong
/// magic, unsupported versions, truncated or over-long payloads
/// ([`IoError::BadLength`]) and checksum mismatches
/// ([`IoError::BadChecksum`]) — so a torn or bit-flipped file can never
/// be mistaken for valid data.
pub fn decode_checked<'a>(magic: &[u8; 4], bytes: &'a [u8]) -> Result<&'a [u8], IoError> {
    if bytes.len() < CHECKED_HEADER || &bytes[..4] != magic {
        return Err(IoError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != FORMAT_VERSION {
        return Err(IoError::BadVersion(version));
    }
    let len = u64::from_le_bytes(bytes[6..14].try_into().expect("8 bytes")) as usize;
    let expected_crc = u32::from_le_bytes(bytes[14..18].try_into().expect("4 bytes"));
    let payload = &bytes[CHECKED_HEADER..];
    if payload.len() != len {
        return Err(IoError::BadLength {
            expected: len,
            actual: payload.len(),
        });
    }
    let actual_crc = crc32(payload);
    if actual_crc != expected_crc {
        return Err(IoError::BadChecksum {
            expected: expected_crc,
            actual: actual_crc,
        });
    }
    Ok(payload)
}

/// Reads one checked frame ([`encode_checked`]) from `r` and returns
/// its validated payload.
///
/// Reads exactly one header and then exactly the promised payload, so
/// back-to-back frames on the same stream never bleed into each other.
/// Magic, version and CRC failures are the same [`IoError`]s
/// [`decode_checked`] reports; a stream that ends mid-frame surfaces
/// as [`IoError::Fs`] (`UnexpectedEof`).
///
/// The length header is parsed *before* the CRC can possibly be
/// checked (the CRC covers the payload the header delimits), so it is
/// untrusted input. `max_len` caps it: a frame claiming more payload
/// bytes than `max_len` is rejected as [`IoError::FrameTooLarge`]
/// without any allocation, so a forged 2^60-byte header can never OOM
/// the reader. Callers pick a cap from what the format can
/// legitimately carry (a checkpoint is bounded by the model size).
pub fn read_checked_frame(
    r: &mut impl Read,
    magic: &[u8; 4],
    max_len: usize,
) -> Result<Vec<u8>, IoError> {
    let mut header = [0u8; CHECKED_HEADER];
    r.read_exact(&mut header)?;
    if &header[..4] != magic {
        return Err(IoError::BadMagic);
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != FORMAT_VERSION {
        return Err(IoError::BadVersion(version));
    }
    let len64 = u64::from_le_bytes(header[6..14].try_into().expect("8 bytes"));
    if len64 > max_len as u64 {
        return Err(IoError::FrameTooLarge {
            len: len64,
            max: max_len,
        });
    }
    let len = len64 as usize;
    let expected_crc = u32::from_le_bytes(header[14..18].try_into().expect("4 bytes"));
    let mut payload = Vec::with_capacity(len);
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        // A short read is a torn write, not a filesystem fault: report
        // it as the length mismatch it is.
        return Err(IoError::BadLength {
            expected: len,
            actual: payload.len(),
        });
    }
    let actual_crc = crc32(&payload);
    if actual_crc != expected_crc {
        return Err(IoError::BadChecksum {
            expected: expected_crc,
            actual: actual_crc,
        });
    }
    Ok(payload)
}

/// Encodes a traffic map into the SGTM container.
pub fn encode_traffic(map: &TrafficMap) -> Vec<u8> {
    encode_map(
        TRAFFIC_MAGIC,
        [map.len_t(), map.height(), map.width()],
        map.data(),
    )
}

/// Converts a dimension to its u32 wire form, panicking with a typed
/// message if it does not fit. The container headers store dimensions
/// as u32; a silent `as u32` truncation here would write a header that
/// decodes to the *wrong* (smaller) map without any error.
fn dim_u32(d: usize) -> u32 {
    u32::try_from(d).unwrap_or_else(|_| {
        panic!(
            "dimension {d} exceeds the u32 container limit ({}); \
             the map cannot be encoded without truncation",
            u32::MAX
        )
    })
}

/// Appends `data`'s little-endian byte image to `buf`.
///
/// On little-endian targets this is a single bulk copy of the slice's
/// raw bytes — bit-identical to the portable per-element loop (which
/// remains the big-endian fallback), since an f32's memory image *is*
/// its `to_le_bytes` there.
pub fn extend_f32_le(buf: &mut Vec<u8>, data: &[f32]) {
    #[cfg(target_endian = "little")]
    {
        // Safety: any initialized &[f32] is readable as bytes; size is
        // exactly 4 bytes per element and u8 has no alignment needs.
        let bytes =
            unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), 4 * data.len()) };
        buf.extend_from_slice(bytes);
    }
    #[cfg(not(target_endian = "little"))]
    for &v in data {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decodes a little-endian f32 payload (`bytes.len()` must be a
/// multiple of 4). Bulk counterpart of [`extend_f32_le`]: one copy on
/// little-endian targets, per-element `from_le_bytes` elsewhere.
pub fn f32s_from_le(bytes: &[u8]) -> Vec<f32> {
    debug_assert_eq!(bytes.len() % 4, 0);
    #[cfg(target_endian = "little")]
    {
        let mut out = vec![0f32; bytes.len() / 4];
        // Safety: the destination owns exactly `bytes.len()` bytes of
        // f32 storage, every bit pattern of which is a valid f32.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                out.as_mut_ptr().cast::<u8>(),
                bytes.len(),
            );
        }
        out
    }
    #[cfg(not(target_endian = "little"))]
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// Shared encoder: magic, version, three u32 dims, f32 payload — all
/// little-endian. Panics if a dimension exceeds u32 (see [`dim_u32`]).
fn encode_map(magic: &[u8; 4], dims: [usize; 3], data: &[f32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(18 + 4 * data.len());
    buf.extend_from_slice(magic);
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    for d in dims {
        buf.extend_from_slice(&dim_u32(d).to_le_bytes());
    }
    extend_f32_le(&mut buf, data);
    buf
}

/// Reads the little-endian f32 payload that follows a validated header.
fn decode_payload(bytes: &[u8], expected: usize) -> Result<Vec<f32>, IoError> {
    if bytes.len() != 4 * expected {
        return Err(IoError::BadLength {
            expected: 4 * expected,
            actual: bytes.len(),
        });
    }
    Ok(f32s_from_le(bytes))
}

/// Decodes a traffic map from the SGTM container.
pub fn decode_traffic(mut bytes: &[u8]) -> Result<TrafficMap, IoError> {
    let (t, h, w) = decode_header(&mut bytes, TRAFFIC_MAGIC)?;
    let expected = t
        .checked_mul(h)
        .and_then(|v| v.checked_mul(w))
        .ok_or(IoError::BadDims)?;
    let data = decode_payload(bytes, expected)?;
    Ok(TrafficMap::from_vec(data, t, h, w))
}

/// Encodes a context map into the SGCM container.
pub fn encode_context(map: &ContextMap) -> Vec<u8> {
    encode_map(
        CONTEXT_MAGIC,
        [map.channels(), map.height(), map.width()],
        map.data(),
    )
}

/// Decodes a context map from the SGCM container.
pub fn decode_context(mut bytes: &[u8]) -> Result<ContextMap, IoError> {
    let (c, h, w) = decode_header(&mut bytes, CONTEXT_MAGIC)?;
    let expected = c
        .checked_mul(h)
        .and_then(|v| v.checked_mul(w))
        .ok_or(IoError::BadDims)?;
    let data = decode_payload(bytes, expected)?;
    Ok(ContextMap::from_vec(data, c, h, w))
}

fn decode_header(bytes: &mut &[u8], magic: &[u8; 4]) -> Result<(usize, usize, usize), IoError> {
    if bytes.len() < 18 {
        return Err(IoError::BadMagic);
    }
    if &bytes[..4] != magic {
        return Err(IoError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != FORMAT_VERSION {
        return Err(IoError::BadVersion(version));
    }
    let dim = |i: usize| {
        u32::from_le_bytes([
            bytes[6 + 4 * i],
            bytes[7 + 4 * i],
            bytes[8 + 4 * i],
            bytes[9 + 4 * i],
        ]) as usize
    };
    let (a, b, c) = (dim(0), dim(1), dim(2));
    *bytes = &bytes[18..];
    Ok((a, b, c))
}

/// Encodes one streamed traffic band into a self-describing SGBD
/// frame: magic, version, then `y0`, `rows`, `t`, `w` as u32s and the
/// `[t, rows, w]` f32 payload — all little-endian. Bands are the unit
/// a generation server streams over chunked transfer-encoding; a
/// client that concatenates decoded bands row-wise reconstructs the
/// full map exactly (see [`TrafficBand`]).
pub fn encode_band(band: &TrafficBand) -> Vec<u8> {
    let mut buf = Vec::with_capacity(22 + 4 * band.data.len());
    buf.extend_from_slice(BAND_MAGIC);
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    for d in [band.y0, band.rows, band.t, band.w] {
        buf.extend_from_slice(&dim_u32(d).to_le_bytes());
    }
    extend_f32_le(&mut buf, &band.data);
    buf
}

/// Decodes one SGBD frame produced by [`encode_band`].
pub fn decode_band(bytes: &[u8]) -> Result<TrafficBand, IoError> {
    const HEADER: usize = 22;
    if bytes.len() < HEADER || &bytes[..4] != BAND_MAGIC {
        return Err(IoError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != FORMAT_VERSION {
        return Err(IoError::BadVersion(version));
    }
    let dim = |i: usize| {
        u32::from_le_bytes([
            bytes[6 + 4 * i],
            bytes[7 + 4 * i],
            bytes[8 + 4 * i],
            bytes[9 + 4 * i],
        ]) as usize
    };
    let (y0, rows, t, w) = (dim(0), dim(1), dim(2), dim(3));
    let expected = rows
        .checked_mul(t)
        .and_then(|v| v.checked_mul(w))
        .ok_or(IoError::BadDims)?;
    let data = decode_payload(&bytes[HEADER..], expected)?;
    Ok(TrafficBand {
        y0,
        rows,
        t,
        w,
        data,
    })
}

/// Writes a traffic map to `path` in the SGTM container, atomically
/// (see [`atomic_write`]).
pub fn save_traffic(map: &TrafficMap, path: impl AsRef<Path>) -> Result<(), IoError> {
    atomic_write(path, &encode_traffic(map))
}

/// Reads a traffic map from a SGTM file.
pub fn load_traffic(path: impl AsRef<Path>) -> Result<TrafficMap, IoError> {
    decode_traffic(&fs::read(path)?)
}

/// Writes a context map to `path` in the SGCM container, atomically
/// (see [`atomic_write`]).
pub fn save_context(map: &ContextMap, path: impl AsRef<Path>) -> Result<(), IoError> {
    atomic_write(path, &encode_context(map))
}

/// Reads a context map from a SGCM file.
pub fn load_context(path: impl AsRef<Path>) -> Result<ContextMap, IoError> {
    decode_context(&fs::read(path)?)
}

/// Renders a traffic map as long-format CSV (`t,y,x,value`).
pub fn traffic_to_csv(map: &TrafficMap) -> String {
    let mut out = String::from("t,y,x,value\n");
    for t in 0..map.len_t() {
        for y in 0..map.height() {
            for x in 0..map.width() {
                out.push_str(&format!("{t},{y},{x},{}\n", map.at(t, y, x)));
            }
        }
    }
    out
}

/// Parses a traffic map from long-format CSV produced by
/// [`traffic_to_csv`]. Dimensions are inferred from the maxima; every
/// cell must be present exactly once.
pub fn traffic_from_csv(csv: &str) -> Result<TrafficMap, IoError> {
    let mut rows: Vec<(usize, usize, usize, f32)> = Vec::new();
    for line in csv.lines().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        let mut parts = line.split(',');
        let mut next = |what: &str| {
            parts
                .next()
                .ok_or_else(|| IoError::BadCsv(format!("{line} (missing {what})")))
        };
        let t = next("t")?
            .trim()
            .parse::<usize>()
            .map_err(|_| IoError::BadCsv(line.into()))?;
        let y = next("y")?
            .trim()
            .parse::<usize>()
            .map_err(|_| IoError::BadCsv(line.into()))?;
        let x = next("x")?
            .trim()
            .parse::<usize>()
            .map_err(|_| IoError::BadCsv(line.into()))?;
        let v = next("value")?
            .trim()
            .parse::<f32>()
            .map_err(|_| IoError::BadCsv(line.into()))?;
        rows.push((t, y, x, v));
    }
    if rows.is_empty() {
        return Err(IoError::BadCsv("empty file".into()));
    }
    let t = rows.iter().map(|r| r.0).max().expect("non-empty") + 1;
    let h = rows.iter().map(|r| r.1).max().expect("non-empty") + 1;
    let w = rows.iter().map(|r| r.2).max().expect("non-empty") + 1;
    if rows.len() != t * h * w {
        return Err(IoError::BadLength {
            expected: t * h * w,
            actual: rows.len(),
        });
    }
    let mut map = TrafficMap::zeros(t, h, w);
    for (ti, y, x, v) in rows {
        *map.at_mut(ti, y, x) = v;
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Magic of the frames the checked-frame reader tests build.
    const FRAME_MAGIC: &[u8; 4] = b"TSTF";

    fn demo_traffic() -> TrafficMap {
        TrafficMap::from_vec((0..24).map(|i| i as f32 * 0.25).collect(), 2, 3, 4)
    }

    fn demo_context() -> ContextMap {
        ContextMap::from_vec((0..30).map(|i| i as f32 - 15.0).collect(), 5, 3, 2)
    }

    #[test]
    fn traffic_binary_roundtrip() {
        let map = demo_traffic();
        let bytes = encode_traffic(&map);
        let back = decode_traffic(&bytes).unwrap();
        assert_eq!(back, map);
    }

    #[test]
    fn context_binary_roundtrip() {
        let map = demo_context();
        let back = decode_context(&encode_context(&map)).unwrap();
        assert_eq!(back, map);
    }

    #[test]
    fn magic_is_checked_both_ways() {
        let t = encode_traffic(&demo_traffic());
        assert!(matches!(decode_context(&t), Err(IoError::BadMagic)));
        let c = encode_context(&demo_context());
        assert!(matches!(decode_traffic(&c), Err(IoError::BadMagic)));
        assert!(matches!(decode_traffic(b"nope"), Err(IoError::BadMagic)));
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let bytes = encode_traffic(&demo_traffic());
        let cut = &bytes[..bytes.len() - 4];
        assert!(matches!(
            decode_traffic(cut),
            Err(IoError::BadLength { .. })
        ));
    }

    #[test]
    fn version_is_checked() {
        let mut bytes = encode_traffic(&demo_traffic()).to_vec();
        bytes[4] = 99;
        assert!(matches!(
            decode_traffic(&bytes),
            Err(IoError::BadVersion(99))
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("spectragan_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.sgtm");
        let map = demo_traffic();
        save_traffic(&map, &path).unwrap();
        assert_eq!(load_traffic(&path).unwrap(), map);
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join("spectragan_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("target.bin");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer contents").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer contents");
        // No temporary files survive a successful write.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }

    #[test]
    fn atomic_write_rejects_directoryless_target() {
        assert!(atomic_write(Path::new("/"), b"x").is_err());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn checked_container_roundtrip_and_rejection() {
        let payload = b"some checkpoint payload".as_slice();
        let framed = encode_checked(b"SGCK", payload);
        assert_eq!(decode_checked(b"SGCK", &framed).unwrap(), payload);

        // Wrong magic.
        assert!(matches!(
            decode_checked(b"XXXX", &framed),
            Err(IoError::BadMagic)
        ));
        // Truncation (torn write) is a length error, never valid data.
        assert!(matches!(
            decode_checked(b"SGCK", &framed[..framed.len() - 3]),
            Err(IoError::BadLength { .. })
        ));
        // A single flipped payload bit fails the checksum.
        let mut flipped = framed.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(
            decode_checked(b"SGCK", &flipped),
            Err(IoError::BadChecksum { .. })
        ));
        // A flipped header version is a version error.
        let mut badver = framed.clone();
        badver[4] = 0xFF;
        assert!(matches!(
            decode_checked(b"SGCK", &badver),
            Err(IoError::BadVersion(_))
        ));
        // Too short to even hold a header.
        assert!(matches!(
            decode_checked(b"SGCK", b"SGCK"),
            Err(IoError::BadMagic)
        ));
    }

    #[test]
    fn checked_frames_are_self_delimiting_on_a_stream() {
        let mut stream = encode_checked(FRAME_MAGIC, b"first frame");
        stream.extend(encode_checked(FRAME_MAGIC, b""));
        stream.extend(encode_checked(FRAME_MAGIC, &[0xAB; 1000]));
        let mut r = stream.as_slice();
        assert_eq!(
            read_checked_frame(&mut r, FRAME_MAGIC, 1 << 20).unwrap(),
            b"first frame"
        );
        assert_eq!(
            read_checked_frame(&mut r, FRAME_MAGIC, 1 << 20).unwrap(),
            b""
        );
        assert_eq!(
            read_checked_frame(&mut r, FRAME_MAGIC, 1 << 20).unwrap(),
            vec![0xAB; 1000]
        );
        // The stream is fully consumed; a further read is a clean EOF.
        assert!(matches!(
            read_checked_frame(&mut r, FRAME_MAGIC, 1 << 20),
            Err(IoError::Fs(ref e)) if e.kind() == std::io::ErrorKind::UnexpectedEof
        ));
    }

    #[test]
    fn checked_frame_stream_rejects_corruption() {
        let stream = encode_checked(FRAME_MAGIC, b"payload bytes");
        // Wrong magic.
        assert!(matches!(
            read_checked_frame(&mut stream.as_slice(), b"XXXX", 1 << 20),
            Err(IoError::BadMagic)
        ));
        // A flipped payload bit fails the CRC.
        let mut flipped = stream.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(matches!(
            read_checked_frame(&mut flipped.as_slice(), FRAME_MAGIC, 1 << 20),
            Err(IoError::BadChecksum { .. })
        ));
        // Truncation mid-payload is a length mismatch, never valid data.
        let cut = &stream[..stream.len() - 2];
        assert!(matches!(
            read_checked_frame(&mut &cut[..], FRAME_MAGIC, 1 << 20),
            Err(IoError::BadLength { .. })
        ));
        // A bad version is reported as such.
        let mut badver = stream.clone();
        badver[4] = 7;
        assert!(matches!(
            read_checked_frame(&mut badver.as_slice(), FRAME_MAGIC, 1 << 20),
            Err(IoError::BadVersion(7))
        ));
    }

    #[test]
    fn band_frame_roundtrip_and_rejection() {
        let band = TrafficBand {
            y0: 3,
            rows: 2,
            t: 4,
            w: 5,
            data: (0..2 * 4 * 5).map(|i| i as f32 * 0.5 - 3.0).collect(),
        };
        let bytes = encode_band(&band);
        assert_eq!(decode_band(&bytes).unwrap(), band);
        // Wrong magic / truncation / version are all rejected.
        assert!(matches!(decode_band(b"nope"), Err(IoError::BadMagic)));
        assert!(matches!(
            decode_band(&bytes[..bytes.len() - 2]),
            Err(IoError::BadLength { .. })
        ));
        let mut badver = bytes.clone();
        badver[4] = 9;
        assert!(matches!(decode_band(&badver), Err(IoError::BadVersion(9))));
    }

    #[test]
    fn csv_roundtrip() {
        let map = demo_traffic();
        let csv = traffic_to_csv(&map);
        let back = traffic_from_csv(&csv).unwrap();
        assert_eq!(back, map);
    }

    #[test]
    fn forged_giant_length_header_is_rejected_without_allocation() {
        // A frame whose header claims 2^60 payload bytes. Reading it
        // must fail typed at the cap check — before the payload buffer
        // is allocated — or a corrupt checkpoint could OOM the process.
        let mut forged = Vec::new();
        forged.extend_from_slice(FRAME_MAGIC);
        forged.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        forged.extend_from_slice(&(1u64 << 60).to_le_bytes());
        forged.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_checked_frame(&mut forged.as_slice(), FRAME_MAGIC, 1 << 20),
            Err(IoError::FrameTooLarge {
                len,
                max: 1_048_576,
            }) if len == 1 << 60
        ));
    }

    #[test]
    fn frame_cap_is_inclusive() {
        // A frame exactly at the cap passes; one byte over fails.
        let payload = vec![0x5Au8; 64];
        let stream = encode_checked(FRAME_MAGIC, &payload);
        assert_eq!(
            read_checked_frame(&mut stream.as_slice(), FRAME_MAGIC, 64).unwrap(),
            payload
        );
        assert!(matches!(
            read_checked_frame(&mut stream.as_slice(), FRAME_MAGIC, 63),
            Err(IoError::FrameTooLarge { len: 64, max: 63 })
        ));
    }

    #[test]
    fn dims_at_the_u32_boundary_roundtrip() {
        // u32::MAX is the largest encodable dimension. A zero dim keeps
        // the payload empty so the boundary is cheap to exercise.
        let dims = [u32::MAX as usize, 0, 1];
        let bytes = encode_map(TRAFFIC_MAGIC, dims, &[]);
        let mut rest = bytes.as_slice();
        let (t, h, w) = decode_header(&mut rest, TRAFFIC_MAGIC).unwrap();
        assert_eq!((t, h, w), (u32::MAX as usize, 0, 1));
        assert!(rest.is_empty());
        // Through the public band path too.
        let band = TrafficBand {
            y0: u32::MAX as usize,
            rows: 0,
            t: 3,
            w: 2,
            data: Vec::new(),
        };
        let back = decode_band(&encode_band(&band)).unwrap();
        assert_eq!(back, band);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    #[should_panic(expected = "exceeds the u32 container limit")]
    fn dims_over_u32_panic_with_typed_message() {
        encode_map(TRAFFIC_MAGIC, [u32::MAX as usize + 1, 0, 1], &[]);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    #[should_panic(expected = "exceeds the u32 container limit")]
    fn band_dims_over_u32_panic_with_typed_message() {
        encode_band(&TrafficBand {
            y0: u32::MAX as usize + 1,
            rows: 0,
            t: 1,
            w: 1,
            data: Vec::new(),
        });
    }

    #[test]
    fn bulk_f32_paths_are_bit_identical_to_scalar() {
        // Values chosen to have asymmetric byte patterns (NaN payloads,
        // subnormals, -0.0) so any endianness or offset slip shows up.
        let vals = [
            0.0f32,
            -0.0,
            1.5,
            -2.625e-39,
            f32::NAN,
            f32::INFINITY,
            f32::MIN_POSITIVE,
            f32::from_bits(0xDEAD_BEEF),
            f32::from_bits(0x0000_0001),
        ];
        let mut bulk = Vec::new();
        extend_f32_le(&mut bulk, &vals);
        let mut scalar = Vec::new();
        for &v in &vals {
            scalar.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(bulk, scalar);
        let decoded = f32s_from_le(&bulk);
        let reference: Vec<f32> = bulk
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        assert_eq!(
            decoded.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(traffic_from_csv("t,y,x,value\n1,2,notanumber,0.5\n").is_err());
        assert!(traffic_from_csv("t,y,x,value\n").is_err());
        // Missing cells: declare a 2×1×1 map but provide one row.
        assert!(matches!(
            traffic_from_csv("t,y,x,value\n1,0,0,0.5\n"),
            Err(IoError::BadLength { .. })
        ));
    }
}
