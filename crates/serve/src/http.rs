//! A minimal HTTP/1.1 codec.
//!
//! The build environment is offline (no hyper/axum), so this module hand-
//! rolls the subset a JSON inference API uses: request line + headers +
//! `Content-Length`-framed bodies in, status + JSON body out. The server
//! half never blocks: the request parser is **incremental** —
//! [`parse_request`] consumes a growing byte buffer and either yields a
//! complete request plus the number of bytes it occupied (so pipelined
//! requests queued behind it stay in the buffer), or reports what it is
//! still waiting for — and the event-loop transport owns every socket read.
//! The client half ([`encode_request`], [`read_response`]) is the blocking
//! `Connection: close` exchange campaign workers use. Chunked transfer
//! encoding and upgrades are deliberately out of scope.
//!
//! Connection persistence is **opt-in**: a request is only treated as
//! keep-alive when it carries an explicit `Connection: keep-alive` header.
//! Plain HTTP/1.1 defaults persistence *on*, but every existing client of
//! this server (the pinned integration suites, the CI smoke scripts) frames
//! responses by reading to EOF, so the server closes unless asked not to;
//! `docs/serving.md` documents the deviation.
//!
//! Resource bounds are enforced *before* the offending bytes are buffered:
//! a head that has not terminated within [`MAX_HEAD_BYTES`] is rejected
//! (431) without accepting more input, and an oversized `Content-Length`
//! is rejected (413) before any body byte is read.

use std::io::Read;

/// Upper bound on the request line + headers, terminator included.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method (`GET`, `POST`, …), uppercased by the client.
    pub method: String,
    /// The request target path (query strings are kept verbatim).
    pub target: String,
    /// Header name/value pairs in arrival order (names lowercased).
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup, allocation-free.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client explicitly asked for connection persistence
    /// (`Connection: keep-alive`; see the module docs for why absence
    /// means close).
    pub fn wants_keep_alive(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.trim().eq_ignore_ascii_case("keep-alive"))
    }
}

/// A parse failure, carrying the HTTP status the server should answer with
/// (400 malformed, 413 oversized body, 431 oversized head).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Response status for this failure.
    pub status: u16,
    /// Human-readable description, returned to the client as JSON.
    pub message: String,
}

impl ParseError {
    fn bad(message: impl Into<String>) -> ParseError {
        ParseError {
            status: 400,
            message: message.into(),
        }
    }
}

/// What an incomplete buffer is still missing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Incomplete {
    /// The head terminator (`\r\n\r\n`) has not arrived yet. At most
    /// [`MAX_HEAD_BYTES`] may be buffered while in this state.
    Head,
    /// The head is complete; the request occupies `total` bytes and the
    /// buffer holds fewer.
    Body {
        /// Head + body length of the pending request.
        total: usize,
    },
}

/// Outcome of one [`parse_request`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A full request was parsed; it occupied `consumed` bytes at the start
    /// of the buffer (drain them before parsing the next pipelined request).
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer this request occupied.
        consumed: usize,
    },
    /// More bytes are needed.
    Partial(Incomplete),
}

/// Incrementally parses the request at the start of `buf`.
///
/// `scan_from` is the caller-held resume offset for the head-terminator
/// scan: pass `0` for a fresh request and hand the same variable back on
/// every retry with a grown buffer — each byte is then scanned **once**
/// across the whole feed (the naive rescan was quadratic in head size).
/// Reset it to `0` after draining a completed request.
///
/// # Errors
///
/// [`ParseError`] with status 431 when no head terminator appears within
/// [`MAX_HEAD_BYTES`], 413 when `Content-Length` exceeds `max_body`, and
/// 400 for malformed framing. Errors are final for the connection: the
/// buffer is left unusable for further parsing.
pub fn parse_request(
    buf: &[u8],
    scan_from: &mut usize,
    max_body: usize,
) -> Result<Outcome, ParseError> {
    // Never scan (nor accept) head bytes past the bound.
    let window = buf.len().min(MAX_HEAD_BYTES);
    let head_end = match find_head_end(&buf[..window], *scan_from) {
        Some(pos) => pos,
        None => {
            if buf.len() >= MAX_HEAD_BYTES {
                return Err(ParseError {
                    status: 431,
                    message: format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
                });
            }
            // The terminator may straddle the next chunk boundary.
            *scan_from = buf.len().saturating_sub(3);
            return Ok(Outcome::Partial(Incomplete::Head));
        }
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ParseError::bad("non-UTF-8 request head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| ParseError::bad("empty request"))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .ok_or_else(|| ParseError::bad("missing method"))?
        .to_owned();
    let target = parts
        .next()
        .ok_or_else(|| ParseError::bad("missing request target"))?
        .to_owned();
    let version = parts
        .next()
        .ok_or_else(|| ParseError::bad("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::bad(format!("unsupported protocol `{version}`")));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::bad(format!("malformed header line `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    let request = Request {
        method,
        target,
        headers,
        body: Vec::new(),
    };
    let content_length = match request.header("content-length") {
        None => 0,
        Some(text) => text
            .parse::<usize>()
            .map_err(|_| ParseError::bad(format!("invalid Content-Length `{text}`")))?,
    };
    if content_length > max_body {
        return Err(ParseError {
            status: 413,
            message: format!(
                "request body of {content_length} bytes exceeds the {max_body}-byte limit"
            ),
        });
    }
    let total = head_end + 4 + content_length;
    if buf.len() < total {
        return Ok(Outcome::Partial(Incomplete::Body { total }));
    }
    let mut request = request;
    request.body = buf[head_end + 4..total].to_vec();
    Ok(Outcome::Complete {
        request,
        consumed: total,
    })
}

/// Finds `\r\n\r\n` in `buf`, resuming at `from` (the terminator may start
/// up to 3 bytes before previously scanned input ended).
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    let from = from.min(buf.len());
    buf[from..]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + from)
}

/// Encodes a JSON response head + body into one buffer.
///
/// `keep_alive` selects the `Connection` header; `retry_after` (seconds)
/// adds a `Retry-After` header — the load-shedding contract for 503/429.
pub fn encode_response(
    status: u16,
    body: &str,
    keep_alive: bool,
    retry_after: Option<u64>,
) -> Vec<u8> {
    encode_typed_response(
        status,
        "application/json",
        body.as_bytes(),
        keep_alive,
        retry_after,
    )
}

/// [`encode_response`] for any `Content-Type` (the coordinator serves the
/// model artifact and campaign spec as `application/octet-stream`).
pub(crate) fn encode_typed_response(
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    retry_after: Option<u64>,
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {len}\r\n",
        reason = reason_phrase(status),
        len = body.len(),
    );
    if let Some(secs) = retry_after {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    head.push_str(if keep_alive {
        "Connection: keep-alive\r\n\r\n"
    } else {
        "Connection: close\r\n\r\n"
    });
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

/// A parsed HTTP response (client side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status code from the status line.
    pub status: u16,
    /// Header name/value pairs in arrival order (names lowercased).
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl Response {
    /// Case-insensitive header lookup, allocation-free.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Encodes a request head + body for a `Connection: close` exchange — the
/// client half of this codec, used by campaign workers talking to the
/// coordinator.
pub fn encode_request(method: &str, target: &str, body: &[u8]) -> Vec<u8> {
    let head = if body.is_empty() {
        format!("{method} {target} HTTP/1.1\r\nConnection: close\r\n\r\n")
    } else {
        format!(
            "{method} {target} HTTP/1.1\r\nContent-Type: application/json\r\n\
             Content-Length: {len}\r\nConnection: close\r\n\r\n",
            len = body.len(),
        )
    };
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

/// Reads one response from a blocking stream. The body is framed by
/// `Content-Length` when present, otherwise by EOF; either way it is
/// bounded by `max_body`.
///
/// # Errors
///
/// Returns a human-readable description for malformed framing, oversized
/// heads or bodies, and stream I/O failures (including read timeouts).
pub fn read_response(stream: &mut impl Read, max_body: usize) -> Result<Response, String> {
    // Accumulate until the head terminator, bounded like the server side.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let mut scan_from = 0usize;
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf, scan_from) {
            break pos;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(format!("response head exceeds {MAX_HEAD_BYTES} bytes"));
        }
        scan_from = buf.len().saturating_sub(3);
        let want = (MAX_HEAD_BYTES - buf.len()).min(chunk.len());
        let n = stream
            .read(&mut chunk[..want])
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-response head".into());
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or("empty response")?;
    let mut parts = status_line.split(' ');
    let version = parts.next().ok_or("missing HTTP version")?;
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol `{version}`"));
    }
    let status: u16 = parts
        .next()
        .ok_or("missing status code")?
        .parse()
        .map_err(|_| "non-numeric status code".to_owned())?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("malformed header line `{line}`"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    let mut response = Response {
        status,
        headers,
        body: buf[head_end + 4..].to_vec(),
    };

    let content_length = match response.header("content-length") {
        None => None,
        Some(text) => Some(
            text.parse::<usize>()
                .map_err(|_| format!("invalid Content-Length `{text}`"))?,
        ),
    };
    if let Some(total) = content_length {
        if total > max_body {
            return Err(format!(
                "response body of {total} bytes exceeds the {max_body}-byte limit"
            ));
        }
        while response.body.len() < total {
            let want = (total - response.body.len()).min(chunk.len());
            let n = stream
                .read(&mut chunk[..want])
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-response body".into());
            }
            response.body.extend_from_slice(&chunk[..n]);
        }
        response.body.truncate(total);
    } else {
        // EOF-framed: drain to close, bounded.
        loop {
            if response.body.len() > max_body {
                return Err(format!("response body exceeds the {max_body}-byte limit"));
            }
            let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                break;
            }
            response.body.extend_from_slice(&chunk[..n]);
        }
        if response.body.len() > max_body {
            return Err(format!("response body exceeds the {max_body}-byte limit"));
        }
    }
    Ok(response)
}

/// The standard reason phrase for the status codes the server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The complete request at the start of `raw`, parsed in one call.
    fn complete(raw: &[u8]) -> Request {
        match parse_request(raw, &mut 0, 1024).unwrap() {
            Outcome::Complete { request, .. } => request,
            other => panic!("incomplete: {other:?}"),
        }
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world";
        let req = complete(raw);
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/predict");
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"hello world");
    }

    #[test]
    fn parses_get_without_body_and_eof() {
        let req = complete(b"GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
        assert_eq!(
            parse_request(b"", &mut 0, 1024).unwrap(),
            Outcome::Partial(Incomplete::Head)
        );
    }

    #[test]
    fn rejects_malformed_framing() {
        for raw in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET /x SPDY/3\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        ] {
            let err = parse_request(raw, &mut 0, 1024).unwrap_err();
            assert_eq!(err.status, 400, "{raw:?}");
        }
        // A body cut short is incomplete, never a request; the transport
        // drops it when the peer's EOF arrives.
        assert_eq!(
            parse_request(
                b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
                &mut 0,
                1024
            )
            .unwrap(),
            Outcome::Partial(Incomplete::Body { total: 50 })
        );
    }

    #[test]
    fn rejects_oversized_body_before_reading_it_with_413() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 99999\r\n\r\n";
        let err = parse_request(raw, &mut 0, 1024).unwrap_err();
        assert!(err.message.contains("exceeds"), "{err:?}");
        assert_eq!(err.status, 413);
    }

    /// A head that runs past the bound is refused with 431 instead of
    /// being buffered whole.
    #[test]
    fn head_bound_is_enforced_before_buffering_past_it() {
        // A head 1 KiB past the limit.
        let mut raw = b"GET /x HTTP/1.1\r\n".to_vec();
        while raw.len() < MAX_HEAD_BYTES + 1000 {
            raw.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        raw.extend_from_slice(b"\r\n");
        let mut scan = 0;
        let err = parse_request(&raw, &mut scan, 1024).unwrap_err();
        assert_eq!(err.status, 431);
    }

    /// A head exactly at the bound (terminator included) still parses.
    #[test]
    fn head_exactly_at_the_bound_is_accepted() {
        let mut raw = b"GET /x HTTP/1.1\r\n".to_vec();
        let pad = MAX_HEAD_BYTES - raw.len() - "X-Pad: \r\n".len() - "\r\n".len();
        raw.extend_from_slice(format!("X-Pad: {}\r\n", "a".repeat(pad)).as_bytes());
        raw.extend_from_slice(b"\r\n");
        assert_eq!(raw.len(), MAX_HEAD_BYTES);
        let mut scan = 0;
        match parse_request(&raw, &mut scan, 1024).unwrap() {
            Outcome::Complete { consumed, .. } => assert_eq!(consumed, MAX_HEAD_BYTES),
            other => panic!("expected completion, got {other:?}"),
        }
    }

    /// The scan offset advances monotonically so re-feeding a growing
    /// buffer never rescans old bytes, and a terminator straddling a chunk
    /// boundary is still found.
    #[test]
    fn incremental_parse_resumes_instead_of_rescanning() {
        let raw = b"POST /p HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        let mut scan = 0;
        let mut last_scan = 0;
        for split in 1..raw.len() {
            match parse_request(&raw[..split], &mut scan, 1024).unwrap() {
                Outcome::Partial(_) => {
                    assert!(scan >= last_scan, "scan offset moved backwards");
                    last_scan = scan;
                }
                Outcome::Complete { request, consumed } => {
                    assert_eq!(consumed, raw.len());
                    assert_eq!(request.body, b"body");
                    return;
                }
            }
        }
        // Terminator found once complete, even though earlier feeds ended
        // mid-terminator.
        match parse_request(raw, &mut scan, 1024).unwrap() {
            Outcome::Complete { request, .. } => assert_eq!(request.body, b"body"),
            other => panic!("expected completion, got {other:?}"),
        }
    }

    /// Two pipelined requests in one buffer parse back-to-back via the
    /// `consumed` cursor.
    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let raw = b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /b HTTP/1.1\r\n\r\n";
        let mut scan = 0;
        let Outcome::Complete { request, consumed } = parse_request(raw, &mut scan, 1024).unwrap()
        else {
            panic!("first request incomplete");
        };
        assert_eq!(request.target, "/a");
        assert_eq!(request.body, b"abc");
        let mut scan = 0;
        let Outcome::Complete {
            request,
            consumed: c2,
        } = parse_request(&raw[consumed..], &mut scan, 1024).unwrap()
        else {
            panic!("second request incomplete");
        };
        assert_eq!(request.target, "/b");
        assert_eq!(consumed + c2, raw.len());
    }

    /// Keep-alive is strictly opt-in: only an explicit
    /// `Connection: keep-alive` (any case) persists.
    #[test]
    fn keep_alive_is_opt_in() {
        let parse = |head: &str| {
            let mut scan = 0;
            match parse_request(head.as_bytes(), &mut scan, 1024).unwrap() {
                Outcome::Complete { request, .. } => request,
                other => panic!("incomplete: {other:?}"),
            }
        };
        assert!(!parse("GET / HTTP/1.1\r\n\r\n").wants_keep_alive());
        assert!(!parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").wants_keep_alive());
        assert!(parse("GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n").wants_keep_alive());
        assert!(parse("GET / HTTP/1.1\r\nConnection: Keep-Alive\r\n\r\n").wants_keep_alive());
    }

    #[test]
    fn response_is_well_formed() {
        let text = String::from_utf8(encode_response(200, "{\"ok\":true}", false, None)).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));

        let text = String::from_utf8(encode_response(503, "{}", true, Some(1))).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
    }

    #[test]
    fn reason_phrases_cover_the_emitted_statuses() {
        for status in [200, 400, 404, 405, 408, 409, 413, 429, 431, 500, 503] {
            assert_ne!(reason_phrase(status), "Unknown", "{status}");
        }
        assert_eq!(reason_phrase(418), "Unknown");
    }

    /// The client half round-trips through the server half: an encoded
    /// request parses, an encoded response reads back.
    #[test]
    fn client_and_server_codecs_round_trip() {
        let req = complete(&encode_request("POST", "/campaign/result", b"{\"id\":3}"));
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/campaign/result");
        assert_eq!(req.body, b"{\"id\":3}");
        assert!(!req.wants_keep_alive());

        let req = complete(&encode_request("GET", "/campaign/unit?worker=w0", b""));
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
        assert!(req.header("content-length").is_none());

        let raw = encode_response(200, "{\"ok\":true}", false, None);
        let resp = read_response(&mut &raw[..], 1024).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("content-type"), Some("application/json"));
        assert_eq!(resp.body, b"{\"ok\":true}");

        let payload: Vec<u8> = (0..=255).collect();
        let raw = encode_typed_response(200, "application/octet-stream", &payload, false, None);
        let resp = read_response(&mut &raw[..], 1024).unwrap();
        assert_eq!(resp.body, payload);
        assert_eq!(
            resp.header("content-type"),
            Some("application/octet-stream")
        );
    }

    #[test]
    fn read_response_handles_eof_framing_and_bounds() {
        // No Content-Length: body framed by EOF.
        let raw = b"HTTP/1.1 200 OK\r\n\r\nhello";
        let resp = read_response(&mut &raw[..], 1024).unwrap();
        assert_eq!(resp.body, b"hello");

        // Oversized declared body rejected before reading it.
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 99999\r\n\r\n";
        assert!(read_response(&mut &raw[..], 1024)
            .unwrap_err()
            .contains("exceeds"));

        // Truncated body is an error, not a short read.
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort";
        assert!(read_response(&mut &raw[..], 1024)
            .unwrap_err()
            .contains("mid-response"));

        // Malformed status lines are errors.
        for raw in [&b"SPDY/3 200 OK\r\n\r\n"[..], b"HTTP/1.1 abc OK\r\n\r\n"] {
            assert!(read_response(&mut &raw[..], 1024).is_err(), "{raw:?}");
        }
    }
}
