//! The benchmark's own HTTP/1.1 client side: request framing and response
//! reading. Deliberately independent of `rll_serve::http`, so a change to the
//! server's parser never changes the load generator's cost.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Largest response body the client accepts.
const MAX_BODY: usize = 16 << 20;

/// A complete request: head plus `Content-Length`-framed body.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut out = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n");
    if !body.is_empty() || method == "POST" {
        out.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        ));
    }
    out.push_str("\r\n");
    out.push_str(body);
    out.into_bytes()
}

fn bad(reason: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason.into())
}

/// Reads one `Content-Length`-framed response: `(status, body)`. `line` is a
/// scratch buffer reused across calls.
pub fn read_response(reader: &mut impl BufRead, line: &mut Vec<u8>) -> io::Result<(u16, Vec<u8>)> {
    line.clear();
    if reader.read_until(b'\n', line)? == 0 {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    let status = std::str::from_utf8(line)
        .ok()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = None;
    loop {
        line.clear();
        if reader.read_until(b'\n', line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let text = std::str::from_utf8(line).map_err(|_| bad("non-UTF-8 header"))?;
        let text = text.trim_end_matches(['\r', '\n']);
        if text.is_empty() {
            break;
        }
        if let Some((name, value)) = text.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(
                    value
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| bad("bad Content-Length"))?,
                );
            }
        }
    }
    let length = length.ok_or_else(|| bad("response without Content-Length"))?;
    if length > MAX_BODY {
        return Err(bad(format!("response body of {length} bytes")));
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok((status, body))
}

/// A closed-loop keep-alive client for probes, polls and control calls.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: Vec::new(),
        })
    }

    /// One request/response exchange.
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, Vec<u8>)> {
        self.writer.write_all(&request_bytes(method, path, body))?;
        read_response(&mut self.reader, &mut self.line)
    }

    /// A call that must answer `200`; returns the body.
    pub fn ok(&mut self, method: &str, path: &str, body: &str) -> Result<Vec<u8>, String> {
        match self.call(method, path, body) {
            Ok((200, body)) => Ok(body),
            Ok((status, body)) => Err(format!(
                "{method} {path} answered {status}: {}",
                String::from_utf8_lossy(&body)
            )),
            Err(e) => Err(format!("{method} {path}: {e}")),
        }
    }
}

/// Parses a JSON response body.
pub fn parse<T: serde::Deserialize>(body: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(body).map_err(|_| "non-UTF-8 body".to_string())?;
    serde_json::from_str(text).map_err(|e| format!("unparseable body: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_framed_responses_back_to_back() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhiHTTP/1.1 503 X\r\ncontent-length: 0\r\n\r\n";
        let mut reader = BufReader::new(&wire[..]);
        let mut line = Vec::new();
        assert_eq!(
            read_response(&mut reader, &mut line).unwrap(),
            (200, b"hi".to_vec())
        );
        assert_eq!(
            read_response(&mut reader, &mut line).unwrap(),
            (503, vec![])
        );
        assert!(read_response(&mut reader, &mut line).is_err());
    }

    #[test]
    fn request_framing_carries_length() {
        let bytes = request_bytes("POST", "/embed", "{}");
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("POST /embed HTTP/1.1\r\n"));
        assert!(text.contains("Content-Length: 2\r\n\r\n{}"));
        let get = String::from_utf8(request_bytes("GET", "/metrics", "")).unwrap();
        assert!(!get.contains("Content-Length"));
    }
}
