//! Raw request-byte parser (RFC 7230 subset).
//!
//! Accepts: a request line (`METHOD SP target SP HTTP/x.y`), any number of
//! `name: value` header fields, a blank line, and a body delimited by
//! `Content-Length` (or by end-of-input when absent — capture files often
//! lack the header for GETs). Both CRLF and bare LF line endings are
//! accepted; traffic dumps are sloppy.
//!
//! The grammar exists once, in the private `parse_grammar`: it works on
//! byte slices and hands each header to a caller-supplied sink. The
//! owned entry points here materialise what it reports into an
//! [`HttpPacket`]; the zero-copy [`parse_request_view`](crate::parse_request_view)
//! records spans instead.
//!
//! Two owned entry points: [`parse_request`] trusts its input (in-process
//! captures, tests), while [`parse_request_limited`] enforces
//! [`ParseLimits`] and is what a collection server exposed to raw mobile
//! traffic must use — a header bomb or a multi-gigabyte `Content-Length`
//! is rejected with a classified error before any proportional work or
//! allocation happens.

use crate::model::{Destination, HeaderName, HttpPacket, Method, RequestLine};
use std::net::Ipv4Addr;

/// Hard resource limits for parsing untrusted request bytes.
///
/// Every limit is enforced *before* the corresponding work: the header
/// count before pushing the header, the body size before copying the
/// body, the line lengths before materialising the line as a `String`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum request-line length in bytes (terminator excluded).
    pub max_request_line: usize,
    /// Maximum number of header fields.
    pub max_header_count: usize,
    /// Maximum length of one header line in bytes (terminator excluded).
    pub max_header_line: usize,
    /// Maximum body size in bytes — enforced against the *declared*
    /// `Content-Length` as well as the actual trailing bytes, so a
    /// dishonest declaration is rejected without allocation.
    pub max_body: usize,
}

impl ParseLimits {
    /// No limits: the trusting [`parse_request`] behaviour.
    pub const UNLIMITED: ParseLimits = ParseLimits {
        max_request_line: usize::MAX,
        max_header_count: usize::MAX,
        max_header_line: usize::MAX,
        max_body: usize::MAX,
    };

    /// Defaults for an internet-facing intake path: 8 KiB request line
    /// and header lines, 128 headers, 1 MiB body. Generous for mobile
    /// ad/analytics traffic (the paper's dataset averages well under
    /// 2 KiB per request), tight enough that a flood of maximal packets
    /// stays bounded.
    pub fn intake() -> ParseLimits {
        ParseLimits {
            max_request_line: 8 * 1024,
            max_header_count: 128,
            max_header_line: 8 * 1024,
            max_body: 1024 * 1024,
        }
    }
}

impl Default for ParseLimits {
    fn default() -> Self {
        ParseLimits::intake()
    }
}

/// Parse failure, with enough position information to debug a capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Input had no request line.
    Empty,
    /// Request line did not have the three space-separated parts.
    MalformedRequestLine(String),
    /// The version token did not start with `HTTP/`.
    BadVersion(String),
    /// A header line had no `:` separator (line number, 0-based from the
    /// first header line).
    MalformedHeader(usize),
    /// A header name contained forbidden bytes.
    BadHeaderName(usize),
    /// Headers were not terminated by a blank line.
    UnterminatedHeaders,
    /// `Content-Length` was present but not a valid number.
    BadContentLength(String),
    /// The body was shorter than `Content-Length` promised.
    TruncatedBody {
        /// Bytes promised by `Content-Length`.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The request line exceeded [`ParseLimits::max_request_line`].
    RequestLineTooLong {
        /// The configured limit.
        limit: usize,
    },
    /// More header fields than [`ParseLimits::max_header_count`].
    TooManyHeaders {
        /// The configured limit.
        limit: usize,
    },
    /// A header line exceeded [`ParseLimits::max_header_line`]
    /// (0-based line number, limit).
    HeaderTooLong {
        /// 0-based header line number.
        line: usize,
        /// The configured limit.
        limit: usize,
    },
    /// The body (declared via `Content-Length` or actually present)
    /// exceeded [`ParseLimits::max_body`].
    BodyTooLarge {
        /// The configured limit.
        limit: usize,
        /// Declared or actual body size.
        got: usize,
    },
}

impl ParseError {
    /// Stable lower-case label naming the reject class — what quarantine
    /// ledgers and event logs key on. One label per variant; labels never
    /// change even if the variant payloads do.
    pub fn tag(&self) -> &'static str {
        match self {
            ParseError::Empty => "empty",
            ParseError::MalformedRequestLine(_) => "bad-request-line",
            ParseError::BadVersion(_) => "bad-version",
            ParseError::MalformedHeader(_) => "bad-header",
            ParseError::BadHeaderName(_) => "bad-header-name",
            ParseError::UnterminatedHeaders => "unterminated-headers",
            ParseError::BadContentLength(_) => "bad-content-length",
            ParseError::TruncatedBody { .. } => "truncated-body",
            ParseError::RequestLineTooLong { .. } => "request-line-too-long",
            ParseError::TooManyHeaders { .. } => "header-bomb",
            ParseError::HeaderTooLong { .. } => "header-too-long",
            ParseError::BodyTooLarge { .. } => "body-too-large",
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Empty => write!(f, "empty request"),
            ParseError::MalformedRequestLine(l) => write!(f, "malformed request line: {l:?}"),
            ParseError::BadVersion(v) => write!(f, "bad HTTP version token: {v:?}"),
            ParseError::MalformedHeader(n) => write!(f, "header line {n} has no colon"),
            ParseError::BadHeaderName(n) => write!(f, "header line {n} has an invalid name"),
            ParseError::UnterminatedHeaders => write!(f, "headers not terminated by blank line"),
            ParseError::BadContentLength(v) => write!(f, "bad Content-Length: {v:?}"),
            ParseError::TruncatedBody { expected, got } => {
                write!(f, "body truncated: expected {expected} bytes, got {got}")
            }
            ParseError::RequestLineTooLong { limit } => {
                write!(f, "request line exceeds {limit} bytes")
            }
            ParseError::TooManyHeaders { limit } => {
                write!(f, "more than {limit} header fields")
            }
            ParseError::HeaderTooLong { line, limit } => {
                write!(f, "header line {line} exceeds {limit} bytes")
            }
            ParseError::BodyTooLarge { limit, got } => {
                write!(f, "body of {got} bytes exceeds {limit}-byte limit")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Split off one line (supporting `\r\n` and `\n`), searching for the
/// terminator only within the first `max_len + 2` bytes so a giant
/// newline-less blob costs at most `max_len` of scanning.
///
/// Returns `Ok(Some((line, rest)))` on success, `Ok(None)` when the input
/// ends before any terminator, and `Err(())` when the line would exceed
/// `max_len` bytes.
type LineAndRest<'a> = Option<(&'a [u8], &'a [u8])>;

fn take_line_within(input: &[u8], max_len: usize) -> Result<LineAndRest<'_>, ()> {
    let window = max_len.saturating_add(2).min(input.len());
    match input[..window].iter().position(|&b| b == b'\n') {
        Some(nl) => {
            let line = if nl > 0 && input[nl - 1] == b'\r' {
                &input[..nl - 1]
            } else {
                &input[..nl]
            };
            if line.len() > max_len {
                return Err(());
            }
            Ok(Some((line, &input[nl + 1..])))
        }
        None if input.len() > window => Err(()),
        None => Ok(None),
    }
}

fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

fn lossy(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// A request as [`parse_grammar`] splits it: every field borrows the raw
/// buffer, nothing is decoded or copied.
pub(crate) struct Request<'a> {
    /// The whole request line, terminator excluded.
    pub line: &'a [u8],
    /// The method token.
    pub method: &'a [u8],
    /// The request target.
    pub target: &'a [u8],
    /// The version token (starts with `HTTP/`).
    pub version: &'a [u8],
    /// The first `Host` value with any `:port` suffix stripped.
    pub host: Option<&'a [u8]>,
    /// The first `Cookie` value.
    pub cookie: Option<&'a [u8]>,
    /// The body, cut to `Content-Length` when one is declared.
    pub body: &'a [u8],
}

/// The request grammar: the one implementation behind both
/// [`parse_request_limited`] and
/// [`parse_request_view`](crate::parse_request_view).
///
/// Splits the request line on `0x20` bytes, walks the header lines under
/// `limits` handing each trimmed `(name, value)` pair to `on_header` in
/// transmission order, and resolves the body, `Host` and first `Cookie`.
/// Every limit is checked before the work it bounds. Working on bytes is
/// exact for the owned path's lossy decode: a `0x20` (or `:`) byte never
/// belongs to an invalid UTF-8 sequence, so splitting first and then
/// lossy-decoding each part gives what lossy-decoding first and then
/// splitting gives.
pub(crate) fn parse_grammar<'a>(
    raw: &'a [u8],
    limits: &ParseLimits,
    mut on_header: impl FnMut(&'a [u8], &'a [u8]),
) -> Result<Request<'a>, ParseError> {
    let (line, mut rest) = take_line_within(raw, limits.max_request_line)
        .map_err(|()| ParseError::RequestLineTooLong {
            limit: limits.max_request_line,
        })?
        .ok_or(ParseError::Empty)?;
    if line.is_empty() {
        return Err(ParseError::Empty);
    }
    // Exactly three single-space-separated parts, method and target
    // non-empty. Found by position rather than a split iterator: this
    // runs on every parsed packet.
    let malformed = || ParseError::MalformedRequestLine(lossy(line));
    let sp1 = line.iter().position(|&b| b == b' ').ok_or_else(malformed)?;
    let sp2 = line[sp1 + 1..]
        .iter()
        .position(|&b| b == b' ')
        .map(|i| sp1 + 1 + i)
        .ok_or_else(malformed)?;
    if sp1 == 0 || sp2 == sp1 + 1 || line[sp2 + 1..].contains(&b' ') {
        return Err(malformed());
    }
    let (method, target, version) = (&line[..sp1], &line[sp1 + 1..sp2], &line[sp2 + 1..]);
    if !version.starts_with(b"HTTP/") {
        return Err(ParseError::BadVersion(lossy(version)));
    }

    let mut host = None;
    let mut cookie = None;
    let mut content_length = None;
    let mut line_no = 0usize;
    let body = loop {
        let (line, next) = take_line_within(rest, limits.max_header_line)
            .map_err(|()| ParseError::HeaderTooLong {
                line: line_no,
                limit: limits.max_header_line,
            })?
            .ok_or(ParseError::UnterminatedHeaders)?;
        rest = next;
        if line.is_empty() {
            break rest;
        }
        if line_no >= limits.max_header_count {
            return Err(ParseError::TooManyHeaders {
                limit: limits.max_header_count,
            });
        }
        let colon = line
            .iter()
            .position(|&b| b == b':')
            .ok_or(ParseError::MalformedHeader(line_no))?;
        let name = &line[..colon];
        if name.is_empty() || !name.iter().all(|&b| is_token_byte(b)) {
            return Err(ParseError::BadHeaderName(line_no));
        }
        let mut value = &line[colon + 1..];
        // Trim optional whitespace around the value.
        while let [b' ' | b'\t', tail @ ..] = value {
            value = tail;
        }
        while let [head @ .., b' ' | b'\t'] = value {
            value = head;
        }
        if host.is_none() && name.eq_ignore_ascii_case(b"Host") {
            host = Some(match value.iter().position(|&b| b == b':') {
                Some(c) => &value[..c],
                None => value,
            });
        }
        if cookie.is_none() && name.eq_ignore_ascii_case(b"Cookie") {
            cookie = Some(value);
        }
        if content_length.is_none() && name.eq_ignore_ascii_case(b"Content-Length") {
            content_length = Some(value);
        }
        on_header(name, value);
        line_no += 1;
    };

    let body = match content_length {
        Some(value) => {
            // Lossy-decode, `str::trim`, `parse`: for the valid UTF-8 real
            // traffic carries the `Cow` stays borrowed, so nothing
            // allocates until the error path.
            let text = String::from_utf8_lossy(value);
            let expected: usize = text
                .trim()
                .parse()
                .map_err(|_| ParseError::BadContentLength(text.into_owned()))?;
            // The declaration alone is enough to reject: a dishonest
            // multi-gigabyte Content-Length must not survive to a copy.
            if expected > limits.max_body {
                return Err(ParseError::BodyTooLarge {
                    limit: limits.max_body,
                    got: expected,
                });
            }
            if body.len() < expected {
                return Err(ParseError::TruncatedBody {
                    expected,
                    got: body.len(),
                });
            }
            &body[..expected]
        }
        None if body.len() > limits.max_body => {
            return Err(ParseError::BodyTooLarge {
                limit: limits.max_body,
                got: body.len(),
            })
        }
        None => body,
    };
    Ok(Request {
        line,
        method,
        target,
        version,
        host,
        cookie,
        body,
    })
}

/// An owned header field. Names passed `is_token_byte`, so they are
/// ASCII: the lossless `str` view is free, and common spellings intern
/// without allocating.
pub(crate) fn owned_header(name: &[u8], value: &[u8]) -> (HeaderName, Vec<u8>) {
    let name = std::str::from_utf8(name).expect("token bytes are ASCII");
    (HeaderName::new(name), value.to_vec())
}

/// Parse raw request bytes captured toward `ip:port` into an
/// [`HttpPacket`]. The packet's host is taken from the `Host` header
/// (empty string when absent, as in HTTP/1.0 captures).
///
/// This entry point applies **no resource limits** and is only
/// appropriate for trusted in-process input; an intake path fed raw
/// network bytes must use [`parse_request_limited`].
pub fn parse_request(raw: &[u8], ip: Ipv4Addr, port: u16) -> Result<HttpPacket, ParseError> {
    parse_request_limited(raw, ip, port, &ParseLimits::UNLIMITED)
}

/// [`parse_request`] under hard resource limits: every limit is checked
/// before the corresponding allocation or copy, so the cost of rejecting
/// an adversarial input is bounded by the limits, not by the input.
///
/// The grammar run plus owned materialisation: text fields are
/// lossy-decoded, header values and the body copied.
pub fn parse_request_limited(
    raw: &[u8],
    ip: Ipv4Addr,
    port: u16,
    limits: &ParseLimits,
) -> Result<HttpPacket, ParseError> {
    let mut headers = Vec::new();
    let req = parse_grammar(raw, limits, |name, value| {
        headers.push(owned_header(name, value))
    })?;
    Ok(HttpPacket {
        destination: Destination::new(ip, port, lossy(req.host.unwrap_or_default())),
        request_line: RequestLine {
            method: Method::from_token(&String::from_utf8_lossy(req.method)),
            target: lossy(req.target),
            version: lossy(req.version),
        },
        headers,
        body: req.body.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = ParseError::TruncatedBody {
            expected: 5,
            got: 2,
        };
        assert!(e.to_string().contains("expected 5"));
        assert!(ParseError::Empty.to_string().contains("empty"));
    }
}
