//! A hand-rolled HTTP/1.1 subset: exactly what the campaign daemon
//! speaks, and nothing more.
//!
//! The wire format is deliberately narrow — `GET`/`POST`, absolute
//! paths, `Content-Length` bodies (no chunked transfer), keep-alive by
//! default. [`parse_head`] is a pure function over bytes so the
//! `fuzz_http_request` target can hammer it without sockets: it must
//! return a typed [`HttpError`] or "need more bytes", never panic.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Maximum size of the request head (request line + headers + CRLFCRLF).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum size of a request body. Campaign decks are kilobytes; 8 MiB
/// leaves room for large batches while bounding memory per connection.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;
/// Maximum number of headers in one request.
pub const MAX_HEADERS: usize = 64;

/// HTTP methods the daemon accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`.
    Get,
    /// `POST`.
    Post,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Post => "POST",
        })
    }
}

/// A typed error from the request parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The head grew past [`MAX_HEAD_BYTES`] without terminating.
    HeadTooLarge,
    /// The request line was not `METHOD target HTTP/1.x`.
    MalformedRequestLine,
    /// A method other than GET/POST.
    UnsupportedMethod(String),
    /// An HTTP version other than 1.0/1.1.
    UnsupportedVersion(String),
    /// A header line without a `:` or with an invalid name.
    MalformedHeader,
    /// More than [`MAX_HEADERS`] headers.
    TooManyHeaders,
    /// `Content-Length` missing on POST, duplicated, or unparseable.
    BadContentLength,
    /// Declared body larger than [`MAX_BODY_BYTES`].
    BodyTooLarge,
    /// `Transfer-Encoding` present (the daemon only does lengths).
    UnsupportedTransferEncoding,
    /// The socket failed mid-request.
    Io(String),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::HeadTooLarge => write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes"),
            HttpError::MalformedRequestLine => write!(f, "malformed request line"),
            HttpError::UnsupportedMethod(m) => write!(f, "unsupported method `{m}`"),
            HttpError::UnsupportedVersion(v) => write!(f, "unsupported HTTP version `{v}`"),
            HttpError::MalformedHeader => write!(f, "malformed header line"),
            HttpError::TooManyHeaders => write!(f, "more than {MAX_HEADERS} headers"),
            HttpError::BadContentLength => write!(f, "missing or invalid Content-Length"),
            HttpError::BodyTooLarge => write!(f, "body exceeds {MAX_BODY_BYTES} bytes"),
            HttpError::UnsupportedTransferEncoding => {
                write!(f, "Transfer-Encoding is not supported; send Content-Length")
            }
            HttpError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// The parsed request head: everything before the body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Head {
    /// Request method.
    pub method: Method,
    /// Request target (path + optional query), as sent.
    pub target: String,
    /// Header name/value pairs; names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Declared body length (0 when absent on GET).
    pub content_length: usize,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl Head {
    /// Case-insensitive header lookup (names are stored lowercased).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }
}

/// A complete request: head plus body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The parsed head.
    pub head: Head,
    /// The body (empty for GET).
    pub body: Vec<u8>,
}

/// Parses a request head from a byte buffer.
///
/// Returns `Ok(None)` when the buffer does not yet contain the full
/// `\r\n\r\n`-terminated head (the caller should read more bytes),
/// `Ok(Some((head, consumed)))` on success where `consumed` is the
/// number of bytes of head (body starts at that offset), and a typed
/// [`HttpError`] for malformed input. Pure: no I/O, no panics.
pub fn parse_head(buf: &[u8]) -> Result<Option<(Head, usize)>, HttpError> {
    let end = match find_head_end(buf) {
        Some(end) => end,
        None => {
            if buf.len() > MAX_HEAD_BYTES {
                return Err(HttpError::HeadTooLarge);
            }
            return Ok(None);
        }
    };
    if end > MAX_HEAD_BYTES {
        return Err(HttpError::HeadTooLarge);
    }
    let head_bytes = &buf[..end];
    let text = std::str::from_utf8(head_bytes).map_err(|_| HttpError::MalformedRequestLine)?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().ok_or(HttpError::MalformedRequestLine)?;

    let mut parts = request_line.split(' ');
    let method_s = parts.next().ok_or(HttpError::MalformedRequestLine)?;
    let target = parts.next().ok_or(HttpError::MalformedRequestLine)?;
    let version = parts.next().ok_or(HttpError::MalformedRequestLine)?;
    if parts.next().is_some() || method_s.is_empty() || target.is_empty() {
        return Err(HttpError::MalformedRequestLine);
    }
    let method = match method_s {
        "GET" => Method::Get,
        "POST" => Method::Post,
        other => return Err(HttpError::UnsupportedMethod(other.to_string())),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::UnsupportedVersion(version.to_string()));
    }
    if !target.starts_with('/') {
        return Err(HttpError::MalformedRequestLine);
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            // The trailing empty element after the final CRLF.
            continue;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooManyHeaders);
        }
        let (name, value) = line.split_once(':').ok_or(HttpError::MalformedHeader)?;
        if name.is_empty()
            || !name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
        {
            return Err(HttpError::MalformedHeader);
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err(HttpError::UnsupportedTransferEncoding);
    }

    let mut content_length = 0usize;
    let lengths: Vec<&str> = headers
        .iter()
        .filter(|(n, _)| n == "content-length")
        .map(|(_, v)| v.as_str())
        .collect();
    match lengths.as_slice() {
        [] => {
            if method == Method::Post {
                return Err(HttpError::BadContentLength);
            }
        }
        [one] => {
            content_length = one.parse::<usize>().map_err(|_| HttpError::BadContentLength)?;
        }
        _ => return Err(HttpError::BadContentLength),
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::BodyTooLarge);
    }

    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 defaults to close.
    let connection = headers
        .iter()
        .find(|(n, _)| n == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => version == "HTTP/1.1",
    };

    Ok(Some((Head { method, target: target.to_string(), headers, content_length, keep_alive }, end)))
}

/// Finds the end of the head (offset just past `\r\n\r\n`), if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Reads one full request from a stream, with an abort hook:
/// `should_abort` is polled on every read timeout (set a short
/// `read_timeout` on the stream), so a draining server can close idle
/// keep-alive connections promptly instead of waiting out a long socket
/// timeout.
///
/// Returns `Ok(None)` on clean EOF before any bytes (the peer closed a
/// keep-alive connection between requests) and when aborted between
/// requests; aborting mid-request is an [`HttpError::Io`].
pub fn read_request_abortable(
    stream: &mut TcpStream,
    should_abort: &mut dyn FnMut() -> bool,
) -> Result<Option<Request>, HttpError> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let mut read_more = |buf: &mut Vec<u8>, stream: &mut TcpStream| -> Result<bool, HttpError> {
        // Ok(true) = got bytes or should retry; Ok(false) = clean EOF.
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    buf.extend_from_slice(&chunk[..n]);
                    return Ok(true);
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if should_abort() {
                        return Ok(false);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(HttpError::Io(e.to_string())),
            }
        }
    };
    let (head, consumed) = loop {
        match parse_head(&buf)? {
            Some(found) => break found,
            None => {
                if !read_more(&mut buf, stream)? {
                    if buf.is_empty() {
                        return Ok(None);
                    }
                    return Err(HttpError::Io("connection closed mid-request".into()));
                }
            }
        }
    };
    let mut body = buf[consumed..].to_vec();
    while body.len() < head.content_length {
        if !read_more(&mut body, stream)? {
            return Err(HttpError::Io("connection closed mid-body".into()));
        }
    }
    body.truncate(head.content_length);
    Ok(Some(Request { head, body }))
}

/// Standard reason phrases for the status codes the daemon uses.
fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one response with a JSON body and optional extra headers.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status,
        reason_phrase(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_post_head() {
        let raw = b"POST /v1/campaign HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let (head, consumed) = parse_head(raw).unwrap().unwrap();
        assert_eq!(head.method, Method::Post);
        assert_eq!(head.target, "/v1/campaign");
        assert_eq!(head.content_length, 5);
        assert!(head.keep_alive);
        assert_eq!(&raw[consumed..], b"hello");
        assert_eq!(head.header("HOST"), Some("x"));
    }

    #[test]
    fn incomplete_head_asks_for_more() {
        assert_eq!(parse_head(b"POST /v1/camp").unwrap(), None);
        assert_eq!(parse_head(b"").unwrap(), None);
    }

    #[test]
    fn typed_errors() {
        let cases: Vec<(&[u8], HttpError)> = vec![
            (b"PUT / HTTP/1.1\r\n\r\n", HttpError::UnsupportedMethod("PUT".into())),
            (b"GET / HTTP/2\r\n\r\n", HttpError::UnsupportedVersion("HTTP/2".into())),
            (b"GET x HTTP/1.1\r\n\r\n", HttpError::MalformedRequestLine),
            (b"POST / HTTP/1.1\r\n\r\n", HttpError::BadContentLength),
            (
                b"POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n",
                HttpError::BadContentLength,
            ),
            (b"GET / HTTP/1.1\r\nBad Header\r\n\r\n", HttpError::MalformedHeader),
            (
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                HttpError::UnsupportedTransferEncoding,
            ),
            (b"POST / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n", HttpError::BodyTooLarge),
            (b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n", HttpError::BadContentLength),
        ];
        for (raw, want) in cases {
            assert_eq!(parse_head(raw).unwrap_err(), want, "input: {raw:?}");
        }
    }

    #[test]
    fn head_size_is_bounded() {
        let mut big = b"GET / HTTP/1.1\r\n".to_vec();
        big.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 8));
        assert_eq!(parse_head(&big).unwrap_err(), HttpError::HeadTooLarge);
    }

    #[test]
    fn http10_defaults_to_close() {
        let raw = b"GET /v1/health HTTP/1.0\r\n\r\n";
        let (head, _) = parse_head(raw).unwrap().unwrap();
        assert!(!head.keep_alive);
        let raw = b"GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n";
        let (head, _) = parse_head(raw).unwrap().unwrap();
        assert!(!head.keep_alive);
    }
}
