//! A minimal blocking HTTP/1.1 client for the daemon's own protocol —
//! used by the integration tests and the benchmark. Keep-alive
//! with one transparent reconnect on a broken connection.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A response as the client sees it.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Header name/value pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }
}

/// A keep-alive connection to one daemon.
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    timeout: Duration,
}

impl Client {
    /// Creates a client for `addr` (connects lazily).
    pub fn new(addr: SocketAddr) -> Self {
        Client { addr, stream: None, timeout: Duration::from_secs(120) }
    }

    fn connect(&mut self) -> std::io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// Sends one request and reads the full response. Retries once on a
    /// broken keep-alive connection (the server may have closed it
    /// between requests).
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] on connect/read/write failures or a response
    /// the client cannot parse.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<ClientResponse> {
        match self.request_once(method, path, body) {
            Ok(r) => Ok(r),
            Err(_) => {
                self.stream = None; // reconnect once
                self.request_once(method, path, body)
            }
        }
    }

    fn request_once(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<ClientResponse> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: castg\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let stream = self.connect()?;
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        stream.flush()?;

        // Read the response head.
        let mut buf = Vec::with_capacity(1024);
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed before response head",
                ));
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let head_text = std::str::from_utf8(&buf[..head_end])
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
        let mut lines = head_text.split("\r\n");
        let status_line = lines
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "empty head"))?;
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
            })?;
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            if let Some((name, value)) = line.split_once(':') {
                headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
            }
        }
        let content_length: usize = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "missing Content-Length")
            })?;
        let keep_alive = headers
            .iter()
            .find(|(n, _)| n == "connection")
            .map(|(_, v)| !v.eq_ignore_ascii_case("close"))
            .unwrap_or(true);

        let mut body_bytes = buf[head_end..].to_vec();
        while body_bytes.len() < content_length {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
            body_bytes.extend_from_slice(&chunk[..n]);
        }
        body_bytes.truncate(content_length);
        if !keep_alive {
            self.stream = None;
        }
        Ok(ClientResponse { status, headers, body: body_bytes })
    }
}
