//! A timing HTTP/1.1 client: one request per connection, reading the
//! chunked band stream as it arrives so the time of the response head,
//! of the first complete band and of the last byte are all seen from
//! the client side.

use spectragan_serve::client::HttpResponse;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A fully read response plus its client-side phase times, in seconds
/// from just before the connection was opened.
pub struct Timed {
    /// The response, chunk boundaries kept.
    pub response: HttpResponse,
    /// Response head fully received.
    pub head_s: f64,
    /// First complete chunk received (`None` without chunks).
    pub first_chunk_s: Option<f64>,
    /// Last byte received.
    pub end_s: f64,
}

/// Sends `method path` with `body` to `addr` and reads the whole
/// response.
pub fn timed_request(addr: &str, method: &str, path: &str, body: &[u8]) -> Result<Timed, String> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let mut req = head.into_bytes();
    req.extend_from_slice(body);
    stream.write_all(&req).map_err(|e| format!("send: {e}"))?;

    let mut raw: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut buf = vec![0u8; 1 << 16];
    let mut head: Option<(usize, f64)> = None;
    let mut chunked = false;
    let mut chunks: Vec<Vec<u8>> = Vec::new();
    let mut cursor = 0usize;
    let mut first_chunk_s = None;
    let mut done = false;
    loop {
        let n = stream.read(&mut buf).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            break;
        }
        raw.extend_from_slice(&buf[..n]);
        if head.is_none() {
            if let Some(end) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
                head = Some((end, t0.elapsed().as_secs_f64()));
                let text = String::from_utf8_lossy(&raw[..end]).to_ascii_lowercase();
                chunked = text.contains("transfer-encoding: chunked");
                cursor = end + 4;
            }
        }
        if head.is_some() && chunked && !done {
            done = take_chunks(&raw, &mut cursor, &mut chunks)?;
            if first_chunk_s.is_none() && !chunks.is_empty() {
                first_chunk_s = Some(t0.elapsed().as_secs_f64());
            }
        }
    }
    let end_s = t0.elapsed().as_secs_f64();
    let (head_end, head_s) = head.ok_or("connection closed before the response head")?;
    if chunked && !done {
        return Err("chunked stream ended before its last chunk".into());
    }
    let response = parse_head(&raw[..head_end], &raw[head_end + 4..], chunks, chunked)?;
    Ok(Timed {
        response,
        head_s,
        first_chunk_s,
        end_s,
    })
}

/// Moves every complete chunk at `raw[*cursor..]` into `chunks`;
/// returns `true` once the terminating zero-size chunk was read.
fn take_chunks(raw: &[u8], cursor: &mut usize, chunks: &mut Vec<Vec<u8>>) -> Result<bool, String> {
    loop {
        let rest = &raw[*cursor..];
        let Some(line_end) = rest.windows(2).position(|w| w == b"\r\n") else {
            return Ok(false);
        };
        let size_text =
            std::str::from_utf8(&rest[..line_end]).map_err(|_| "non-UTF-8 chunk size")?;
        let size = usize::from_str_radix(size_text.trim(), 16)
            .map_err(|_| format!("bad chunk size {size_text:?}"))?;
        if size == 0 {
            return Ok(true);
        }
        let start = line_end + 2;
        let end = start
            .checked_add(size)
            .and_then(|e| e.checked_add(2))
            .ok_or_else(|| format!("chunk size {size} overflows"))?;
        if rest.len() < end {
            return Ok(false);
        }
        chunks.push(rest[start..start + size].to_vec());
        *cursor += end;
    }
}

fn parse_head(
    head: &[u8],
    rest: &[u8],
    chunks: Vec<Vec<u8>>,
    chunked: bool,
) -> Result<HttpResponse, String> {
    let text = std::str::from_utf8(head).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = text.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let body = if chunked {
        chunks.concat()
    } else {
        rest.to_vec()
    };
    Ok(HttpResponse {
        status,
        headers,
        body,
        chunks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_are_taken_only_when_complete() {
        let mut raw = b"3\r\nabc\r\n4\r\nde".to_vec();
        let (mut cursor, mut chunks) = (0, Vec::new());
        assert!(!take_chunks(&raw, &mut cursor, &mut chunks).unwrap());
        assert_eq!(chunks, vec![b"abc".to_vec()]);
        raw.extend_from_slice(b"fg\r\n0\r\n\r\n");
        assert!(take_chunks(&raw, &mut cursor, &mut chunks).unwrap());
        assert_eq!(chunks, vec![b"abc".to_vec(), b"defg".to_vec()]);
    }

    #[test]
    fn bad_chunk_sizes_are_errors() {
        let (mut cursor, mut chunks) = (0, Vec::new());
        assert!(take_chunks(b"zz\r\n", &mut cursor, &mut chunks).is_err());
        let huge = format!("{:x}\r\n", usize::MAX);
        assert!(take_chunks(huge.as_bytes(), &mut cursor, &mut chunks).is_err());
    }
}
