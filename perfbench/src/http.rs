//! A minimal keep-alive HTTP/1.1 client for the `duop serve` routes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One persistent connection.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects to `addr` (`host:port`).
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request and reads the whole response: `(status, body)`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<(u16, Vec<u8>), String> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut req = head.into_bytes();
        req.extend_from_slice(body);
        self.writer
            .write_all(&req)
            .map_err(|e| format!("{method} {path}: write: {e}"))?;
        let mut line = String::new();
        self.read_line(&mut line, method, path)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("{method} {path}: bad status line {line:?}"))?;
        let mut len = 0usize;
        loop {
            line.clear();
            self.read_line(&mut line, method, path)?;
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((k, v)) = l.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v
                        .trim()
                        .parse()
                        .map_err(|_| format!("{method} {path}: bad Content-Length"))?;
                }
            }
        }
        let mut body = vec![0u8; len];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| format!("{method} {path}: truncated body: {e}"))?;
        Ok((status, body))
    }

    fn read_line(&mut self, line: &mut String, method: &str, path: &str) -> Result<(), String> {
        match self.reader.read_line(line) {
            Ok(0) => Err(format!("{method} {path}: connection closed")),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("{method} {path}: read: {e}")),
        }
    }
}

/// The value of an integer field in a one-line JSON ack.
pub fn json_u64(body: &[u8], field: &str) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let key = format!("\"{field}\":");
    let rest = &text[text.find(&key)? + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
