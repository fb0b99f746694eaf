//! Zero-copy request parsing: borrowed packet views over the raw receive
//! buffer, backed by a reusable span arena.
//!
//! [`parse_request_view`] is the allocation-free twin of
//! [`parse_request_limited`](crate::parse_request_limited): one grammar,
//! two materialisations. Both run the same private grammar function over
//! the raw bytes; the owned entry point copies what it reports into
//! `String`s and `Vec`s, while the view records byte *spans* into the
//! caller's buffer. The content fields detection scans — request line,
//! `Cookie`, body — live inline in the [`PacketView`]; header spans go
//! into a [`ParseArena`] that a batch-processing loop resets between
//! batches, so steady-state parsing performs no per-packet allocation at
//! all.
//!
//! Accept/reject decisions and the exact `ParseError` are therefore
//! shared by construction, and [`PacketView::to_packet`] is
//! byte-identical to the owned parse. The one input a view cannot
//! represent is an accepted request whose request line is not valid
//! UTF-8 (the owned path's lossy decode rewrites those bytes): the view
//! parser returns [`ViewOutcome::Opaque`] and callers fall back to the
//! owned parser.
//!
//! # Arena reset discipline
//!
//! A view's header list is a span range into the arena it was parsed
//! with. Resetting the arena (between batches) recycles that storage:
//! header access through earlier views is then invalid (the accessors
//! will panic on out-of-range), while the inline fields — request line,
//! cookie, body, host — remain usable for as long as the underlying raw
//! buffer lives. The scan path only touches inline fields, so a batch
//! loop may parse, scan, and reset freely.

use crate::model::{Destination, HttpPacket, Method, RequestLine};
use crate::parse::{owned_header, parse_grammar, ParseError};
use crate::ParseLimits;
use std::net::Ipv4Addr;
use std::ops::Range;

/// A `(start, len)` byte span into the raw buffer. `u32` offsets keep the
/// arena entries small; buffers past 4 GiB fall back to the owned parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn of(raw: &[u8], slice: &[u8]) -> Span {
        let start = slice.as_ptr() as usize - raw.as_ptr() as usize;
        Span {
            start: start as u32,
            len: slice.len() as u32,
        }
    }

    fn get<'a>(&self, raw: &'a [u8]) -> &'a [u8] {
        &raw[self.start as usize..(self.start + self.len) as usize]
    }
}

/// One header field as spans into the raw buffer.
#[derive(Debug, Clone, Copy)]
struct HeaderSpan {
    name: Span,
    value: Span,
}

/// Reusable span storage for view parsing. One arena per worker thread;
/// [`ParseArena::reset`] between batches keeps capacity and frees nothing,
/// so steady-state parsing allocates only while the arena is still
/// growing toward the largest batch seen.
#[derive(Debug, Default)]
pub struct ParseArena {
    headers: Vec<HeaderSpan>,
}

impl ParseArena {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        ParseArena::default()
    }

    /// Recycle the arena for the next batch. Invalidates header access on
    /// views parsed since the previous reset (see the module docs); their
    /// inline fields stay valid.
    pub fn reset(&mut self) {
        self.headers.clear();
    }

    /// Header spans currently stored (all views since the last reset).
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    /// Whether the arena holds no spans.
    pub fn is_empty(&self) -> bool {
        self.headers.is_empty()
    }
}

/// A parsed request borrowed from its raw receive buffer: no owned
/// strings, no copied bytes. Produced by [`parse_request_view`].
#[derive(Debug, Clone)]
pub struct PacketView<'a> {
    raw: &'a [u8],
    ip: Ipv4Addr,
    port: u16,
    method: Span,
    target: Span,
    version: Span,
    /// `METHOD SP target` — contiguous in the raw buffer because the
    /// request line is single-space separated. This is exactly the
    /// request-line text the token layer matches against (the version
    /// suffix never enters the token universe).
    rline: Span,
    host: Span,
    cookie: Option<Span>,
    body: Span,
    /// Range into the arena's header list.
    headers: Range<u32>,
}

impl<'a> PacketView<'a> {
    /// Destination IPv4 address this capture was headed to.
    pub fn ip(&self) -> Ipv4Addr {
        self.ip
    }

    /// Destination TCP port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The method token as written.
    pub fn method(&self) -> &'a str {
        std::str::from_utf8(self.method.get(self.raw)).expect("request line was UTF-8 checked")
    }

    /// The origin-form target (path plus optional `?query`).
    pub fn target(&self) -> &'a str {
        std::str::from_utf8(self.target.get(self.raw)).expect("request line was UTF-8 checked")
    }

    /// The version token as written (e.g. `HTTP/1.1`).
    pub fn version(&self) -> &'a str {
        std::str::from_utf8(self.version.get(self.raw)).expect("request line was UTF-8 checked")
    }

    /// The matchable request-line bytes: `METHOD SP target`, borrowed
    /// straight from the buffer (no per-packet formatting).
    pub fn rline(&self) -> &'a [u8] {
        self.rline.get(self.raw)
    }

    /// First `Cookie` header value, or empty — the §IV-C convention.
    pub fn cookie(&self) -> &'a [u8] {
        match self.cookie {
            Some(s) => s.get(self.raw),
            None => b"",
        }
    }

    /// The message body (already truncated to `Content-Length`).
    pub fn body(&self) -> &'a [u8] {
        self.body.get(self.raw)
    }

    /// The `Host` FQDN bytes with any `:port` suffix stripped (empty when
    /// the header is absent).
    pub fn host_bytes(&self) -> &'a [u8] {
        self.host.get(self.raw)
    }

    /// Number of header fields.
    pub fn header_count(&self) -> usize {
        self.headers.len()
    }

    /// Header `(name, value)` byte pairs, in transmission order. Requires
    /// the arena the view was parsed with, un-reset since.
    pub fn headers<'s>(
        &'s self,
        arena: &'s ParseArena,
    ) -> impl Iterator<Item = (&'a [u8], &'a [u8])> + 's {
        arena.headers[self.headers.start as usize..self.headers.end as usize]
            .iter()
            .map(|h| (h.name.get(self.raw), h.value.get(self.raw)))
    }

    /// Materialise an owned [`HttpPacket`] — byte-identical to what
    /// [`parse_request_limited`](crate::parse_request_limited) returns for
    /// the same input. Requires the parse-time arena, un-reset since.
    pub fn to_packet(&self, arena: &ParseArena) -> HttpPacket {
        let headers = self
            .headers(arena)
            .map(|(name, value)| owned_header(name, value))
            .collect();
        HttpPacket {
            destination: Destination::new(
                self.ip,
                self.port,
                String::from_utf8_lossy(self.host_bytes()).into_owned(),
            ),
            request_line: RequestLine {
                method: Method::from_token(self.method()),
                target: self.target().to_string(),
                version: self.version().to_string(),
            },
            headers,
            body: self.body().to_vec(),
        }
    }
}

/// Result of a view parse that did not reject the input.
#[derive(Debug)]
pub enum ViewOutcome<'a> {
    /// A borrowed view over the buffer.
    View(PacketView<'a>),
    /// The request is well formed but its request line is not valid
    /// UTF-8 (or the buffer exceeds span range): the owned parser's lossy
    /// decode rewrites bytes a borrowed view cannot represent. Parse this
    /// input with
    /// [`parse_request_limited`](crate::parse_request_limited) instead.
    Opaque,
}

/// Zero-copy variant of
/// [`parse_request_limited`](crate::parse_request_limited): the same
/// grammar, so identical accept/reject behaviour (including the exact
/// [`ParseError`]), but the accepted form is a borrowed [`PacketView`]
/// whose header spans land in `arena`. Performs no allocation on the
/// accept path once the arena has warmed up.
pub fn parse_request_view<'a>(
    raw: &'a [u8],
    ip: Ipv4Addr,
    port: u16,
    limits: &ParseLimits,
    arena: &mut ParseArena,
) -> Result<ViewOutcome<'a>, ParseError> {
    if raw.len() > u32::MAX as usize {
        return Ok(ViewOutcome::Opaque);
    }
    let base = arena.headers.len();
    let parsed = parse_grammar(raw, limits, |name, value| {
        arena.headers.push(HeaderSpan {
            name: Span::of(raw, name),
            value: Span::of(raw, value),
        })
    });
    let req = match parsed {
        Ok(req) if std::str::from_utf8(req.line).is_ok() => req,
        // The owned path lossy-decodes a non-UTF-8 request line; a
        // borrowed view cannot represent the rewritten bytes.
        Ok(_) => {
            arena.headers.truncate(base);
            return Ok(ViewOutcome::Opaque);
        }
        Err(e) => {
            // Rejects must not leak spans into the arena.
            arena.headers.truncate(base);
            return Err(e);
        }
    };
    let rline_len = req.method.len() + 1 + req.target.len();
    Ok(ViewOutcome::View(PacketView {
        raw,
        ip,
        port,
        method: Span::of(raw, req.method),
        target: Span::of(raw, req.target),
        version: Span::of(raw, req.version),
        rline: Span::of(raw, &req.line[..rline_len]),
        host: req.host.map(|h| Span::of(raw, h)).unwrap_or_default(),
        cookie: req.cookie.map(|c| Span::of(raw, c)),
        body: Span::of(raw, req.body),
        headers: base as u32..arena.headers.len() as u32,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    const IP: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);

    fn view<'a>(raw: &'a [u8], arena: &mut ParseArena) -> PacketView<'a> {
        match parse_request_view(raw, IP, 80, &ParseLimits::UNLIMITED, arena).unwrap() {
            ViewOutcome::View(v) => v,
            ViewOutcome::Opaque => panic!("expected a view"),
        }
    }

    #[test]
    fn view_fields_borrow_the_buffer() {
        let raw: &[u8] =
            b"POST /track?imei=355195 HTTP/1.1\r\nHost: flurry.com:8080\r\nCookie: s=1\r\nContent-Length: 4\r\n\r\nbodyEXTRA";
        let mut arena = ParseArena::new();
        let v = view(raw, &mut arena);
        assert_eq!(v.method(), "POST");
        assert_eq!(v.target(), "/track?imei=355195");
        assert_eq!(v.version(), "HTTP/1.1");
        assert_eq!(v.rline(), b"POST /track?imei=355195");
        assert_eq!(v.cookie(), b"s=1");
        assert_eq!(v.body(), b"body");
        assert_eq!(v.host_bytes(), b"flurry.com");
        assert_eq!(v.header_count(), 3);
        // Every accessor's slice points into `raw` — zero copy.
        let range = raw.as_ptr_range();
        for s in [v.rline(), v.cookie(), v.body(), v.host_bytes()] {
            assert!(range.contains(&s.as_ptr()));
        }
    }

    #[test]
    fn arena_reuse_across_packets_and_batches() {
        let a: &[u8] = b"GET /a HTTP/1.1\r\nHost: one.example\r\nX-N: 1\r\n\r\n";
        let b: &[u8] = b"GET /b HTTP/1.1\r\nHost: two.example\r\n\r\n";
        let mut arena = ParseArena::new();
        let va = view(a, &mut arena);
        let vb = view(b, &mut arena);
        // Both views' headers coexist in one arena.
        assert_eq!(va.headers(&arena).count(), 2);
        assert_eq!(vb.headers(&arena).count(), 1);
        assert_eq!(arena.len(), 3);
        assert_eq!(va.host_bytes(), b"one.example");
        assert_eq!(vb.host_bytes(), b"two.example");
        // Reset recycles storage; inline fields survive.
        arena.reset();
        assert!(arena.is_empty());
        assert_eq!(va.rline(), b"GET /a");
        let vc = view(b, &mut arena);
        assert_eq!(vc.headers(&arena).count(), 1);
    }
}
