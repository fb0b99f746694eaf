//! Golden parse corpus: raw inputs with their exact expected outcome,
//! run through both entry points (`parse_request_limited` and
//! `parse_request_view`). Rejects pin the `ParseError` value and its
//! `tag()`; accepts pin the packet fields the pipeline reads.

use leaksig_http::{
    parse_request_limited, parse_request_view, ParseArena, ParseError, ParseLimits, ViewOutcome,
};
use std::net::Ipv4Addr;

const IP: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);

/// Tight limits so every boundary is a short literal.
const TIGHT: ParseLimits = ParseLimits {
    max_request_line: 16,
    max_header_count: 2,
    max_header_line: 12,
    max_body: 4,
};

const NONE: ParseLimits = ParseLimits::UNLIMITED;

/// The fields of an accepted packet.
struct Fields {
    method: &'static str,
    target: &'static str,
    version: &'static str,
    host: &'static str,
    cookie: &'static [u8],
    headers: &'static [(&'static str, &'static [u8])],
    body: &'static [u8],
}

enum Expect {
    /// Both entry points accept with these fields.
    Accept(Fields),
    /// The owned parser accepts with these fields; the view is `Opaque`.
    AcceptOpaque(Fields),
    /// Both entry points reject with this error and tag.
    Reject(ParseError, &'static str),
}

struct Case {
    name: &'static str,
    raw: &'static [u8],
    limits: ParseLimits,
    expect: Expect,
}

fn reject(e: ParseError, tag: &'static str) -> Expect {
    Expect::Reject(e, tag)
}

const GET: Fields = Fields {
    method: "GET",
    target: "/",
    version: "HTTP/1.1",
    host: "",
    cookie: b"",
    headers: &[],
    body: b"",
};

fn corpus() -> Vec<Case> {
    use ParseError as E;
    vec![
        // ── Accepts ──────────────────────────────────────────────────
        Case {
            name: "crlf",
            raw: b"GET /a?b=c HTTP/1.1\r\nHost: h.jp\r\nCookie: s=1\r\n\r\n",
            limits: NONE,
            expect: Expect::Accept(Fields {
                target: "/a?b=c",
                host: "h.jp",
                cookie: b"s=1",
                headers: &[("Host", b"h.jp"), ("Cookie", b"s=1")],
                ..GET
            }),
        },
        Case {
            name: "bare lf",
            raw: b"GET /a?b=c HTTP/1.0\nHost: h.jp\nCookie: s=1\n\n",
            limits: NONE,
            expect: Expect::Accept(Fields {
                target: "/a?b=c",
                version: "HTTP/1.0",
                host: "h.jp",
                cookie: b"s=1",
                headers: &[("Host", b"h.jp"), ("Cookie", b"s=1")],
                ..GET
            }),
        },
        Case {
            name: "host port stripped, value whitespace trimmed",
            raw: b"GET / HTTP/1.1\r\nHost:  proxy.example.jp:8080 \t\r\n\r\n",
            limits: NONE,
            expect: Expect::Accept(Fields {
                host: "proxy.example.jp",
                headers: &[("Host", b"proxy.example.jp:8080")],
                ..GET
            }),
        },
        Case {
            name: "duplicate headers: all kept in order, first Host and Cookie win",
            raw: b"GET / HTTP/1.1\r\nhost: one.jp\r\nCookie: a=1\r\nHOST: two.jp\r\ncookie: b=2\r\n\r\n",
            limits: NONE,
            expect: Expect::Accept(Fields {
                host: "one.jp",
                cookie: b"a=1",
                headers: &[
                    ("host", b"one.jp"),
                    ("Cookie", b"a=1"),
                    ("HOST", b"two.jp"),
                    ("cookie", b"b=2"),
                ],
                ..GET
            }),
        },
        Case {
            name: "duplicate Content-Length: the first one counts",
            raw: b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nabcde",
            limits: NONE,
            expect: Expect::Accept(Fields {
                method: "POST",
                headers: &[("Content-Length", b"2"), ("Content-Length", b"5")],
                body: b"ab",
                ..GET
            }),
        },
        Case {
            name: "Content-Length with surrounding whitespace",
            raw: b"POST / HTTP/1.1\r\nContent-Length: \t 3 \t\r\n\r\nabcEXTRA",
            limits: NONE,
            expect: Expect::Accept(Fields {
                method: "POST",
                headers: &[("Content-Length", b"3")],
                body: b"abc",
                ..GET
            }),
        },
        Case {
            name: "Content-Length with inner whitespace str::trim removes",
            raw: b"POST / HTTP/1.1\r\nContent-Length:\x0b3\x0c\r\n\r\nabc",
            limits: NONE,
            expect: Expect::Accept(Fields {
                method: "POST",
                headers: &[("Content-Length", b"\x0b3\x0c")],
                body: b"abc",
                ..GET
            }),
        },
        Case {
            name: "no Content-Length: body runs to end of input",
            raw: b"POST /u HTTP/1.1\r\n\r\n\x00\xff\r\n",
            limits: NONE,
            expect: Expect::Accept(Fields {
                method: "POST",
                target: "/u",
                body: b"\x00\xff\r\n",
                ..GET
            }),
        },
        Case {
            name: "other method token",
            raw: b"PUT /x HTTP/2\r\n\r\n",
            limits: NONE,
            expect: Expect::Accept(Fields {
                method: "PUT",
                target: "/x",
                version: "HTTP/2",
                ..GET
            }),
        },
        Case {
            name: "non-UTF-8 request line: owned decodes lossily, view is opaque",
            raw: b"GET /\xff\xe3\x81 HTTP/1.1\r\nHost: h\r\n\r\n",
            limits: NONE,
            expect: Expect::AcceptOpaque(Fields {
                target: "/\u{FFFD}\u{FFFD}",
                host: "h",
                headers: &[("Host", b"h")],
                ..GET
            }),
        },
        Case {
            name: "non-UTF-8 Host is decoded lossily, port still stripped",
            raw: b"GET / HTTP/1.1\r\nHost: \xe3:80\r\n\r\n",
            limits: NONE,
            expect: Expect::Accept(Fields {
                host: "\u{FFFD}",
                headers: &[("Host", b"\xe3:80")],
                ..GET
            }),
        },
        // ── Limits: at the boundary, then one byte over ──────────────
        Case {
            name: "request line at its limit",
            raw: b"GET /abc HTTP/1.\r\n\r\n",
            limits: TIGHT,
            expect: Expect::Accept(Fields {
                target: "/abc",
                version: "HTTP/1.",
                ..GET
            }),
        },
        Case {
            name: "request line one byte over",
            raw: b"GET /abcd HTTP/1.\r\n\r\n",
            limits: TIGHT,
            expect: reject(E::RequestLineTooLong { limit: 16 }, "request-line-too-long"),
        },
        Case {
            name: "header count at its limit",
            raw: b"GET / HTTP/1.1\r\na: 1\r\nb: 2\r\n\r\n",
            limits: TIGHT,
            expect: Expect::Accept(Fields {
                headers: &[("a", b"1"), ("b", b"2")],
                ..GET
            }),
        },
        Case {
            name: "header count one over",
            raw: b"GET / HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\n\r\n",
            limits: TIGHT,
            expect: reject(E::TooManyHeaders { limit: 2 }, "header-bomb"),
        },
        Case {
            name: "header line at its limit",
            raw: b"GET / HTTP/1.1\r\nx: 123456789\r\n\r\n",
            limits: TIGHT,
            expect: Expect::Accept(Fields {
                headers: &[("x", b"123456789")],
                ..GET
            }),
        },
        Case {
            name: "header line one byte over",
            raw: b"GET / HTTP/1.1\r\nx: 1234567890\r\n\r\n",
            limits: TIGHT,
            expect: reject(E::HeaderTooLong { line: 0, limit: 12 }, "header-too-long"),
        },
        Case {
            name: "declared body at its limit",
            raw: b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd",
            limits: ParseLimits {
                max_header_line: 20,
                ..TIGHT
            },
            expect: Expect::Accept(Fields {
                method: "POST",
                headers: &[("Content-Length", b"4")],
                body: b"abcd",
                ..GET
            }),
        },
        Case {
            name: "declared body one byte over (rejected on the declaration)",
            raw: b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\n",
            limits: ParseLimits {
                max_header_line: 20,
                ..TIGHT
            },
            expect: reject(E::BodyTooLarge { limit: 4, got: 5 }, "body-too-large"),
        },
        Case {
            name: "undeclared body at its limit",
            raw: b"POST / HTTP/1.1\r\n\r\nabcd",
            limits: TIGHT,
            expect: Expect::Accept(Fields {
                method: "POST",
                body: b"abcd",
                ..GET
            }),
        },
        Case {
            name: "undeclared body one byte over",
            raw: b"POST / HTTP/1.1\r\n\r\nabcde",
            limits: TIGHT,
            expect: reject(E::BodyTooLarge { limit: 4, got: 5 }, "body-too-large"),
        },
        // ── Every reject class ───────────────────────────────────────
        Case {
            name: "empty input",
            raw: b"",
            limits: NONE,
            expect: reject(E::Empty, "empty"),
        },
        Case {
            name: "blank first line",
            raw: b"\r\n\r\n",
            limits: NONE,
            expect: reject(E::Empty, "empty"),
        },
        Case {
            name: "two-part request line",
            raw: b"GET /\r\n\r\n",
            limits: NONE,
            expect: reject(
                E::MalformedRequestLine("GET /".to_string()),
                "bad-request-line",
            ),
        },
        Case {
            name: "double space in request line",
            raw: b"GET  / HTTP/1.1\r\n\r\n",
            limits: NONE,
            expect: reject(
                E::MalformedRequestLine("GET  / HTTP/1.1".to_string()),
                "bad-request-line",
            ),
        },
        Case {
            name: "non-UTF-8 malformed request line (both reject alike)",
            raw: b"\xff\xfe\r\n\r\n",
            limits: NONE,
            expect: reject(
                E::MalformedRequestLine("\u{FFFD}\u{FFFD}".to_string()),
                "bad-request-line",
            ),
        },
        Case {
            name: "bad version",
            raw: b"GET / FTP/1.1\r\n\r\n",
            limits: NONE,
            expect: reject(E::BadVersion("FTP/1.1".to_string()), "bad-version"),
        },
        Case {
            name: "header without colon",
            raw: b"GET / HTTP/1.1\r\nOk: 1\r\nno-colon-here\r\n\r\n",
            limits: NONE,
            expect: reject(E::MalformedHeader(1), "bad-header"),
        },
        Case {
            name: "header name with a space",
            raw: b"GET / HTTP/1.1\r\nbad name: 2\r\n\r\n",
            limits: NONE,
            expect: reject(E::BadHeaderName(0), "bad-header-name"),
        },
        Case {
            name: "empty header name",
            raw: b"GET / HTTP/1.1\r\n: v\r\n\r\n",
            limits: NONE,
            expect: reject(E::BadHeaderName(0), "bad-header-name"),
        },
        Case {
            name: "headers never terminated",
            raw: b"GET / HTTP/1.1\r\nHost: x",
            limits: NONE,
            expect: reject(E::UnterminatedHeaders, "unterminated-headers"),
        },
        Case {
            name: "non-numeric Content-Length",
            raw: b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
            limits: NONE,
            expect: reject(
                E::BadContentLength("banana".to_string()),
                "bad-content-length",
            ),
        },
        Case {
            name: "body shorter than Content-Length",
            raw: b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
            limits: NONE,
            expect: reject(
                E::TruncatedBody {
                    expected: 10,
                    got: 3,
                },
                "truncated-body",
            ),
        },
        Case {
            name: "newline-less blob past the request-line limit",
            raw: b"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
            limits: TIGHT,
            expect: reject(E::RequestLineTooLong { limit: 16 }, "request-line-too-long"),
        },
    ]
}

fn check_fields(name: &str, pkt: &leaksig_http::HttpPacket, f: &Fields) {
    assert_eq!(pkt.request_line.method.as_str(), f.method, "{name}");
    assert_eq!(pkt.request_line.target, f.target, "{name}");
    assert_eq!(pkt.request_line.version, f.version, "{name}");
    assert_eq!(pkt.destination.host, f.host, "{name}");
    assert_eq!(pkt.cookie(), f.cookie, "{name}");
    let headers: Vec<(&str, &[u8])> = pkt
        .headers
        .iter()
        .map(|(n, v)| (n.as_str(), v.as_slice()))
        .collect();
    assert_eq!(headers, f.headers, "{name}");
    assert_eq!(pkt.body, f.body, "{name}");
}

#[test]
fn golden_corpus_through_both_entry_points() {
    let mut arena = ParseArena::new();
    for case in corpus() {
        let name = case.name;
        let owned = parse_request_limited(case.raw, IP, 80, &case.limits);
        let view = parse_request_view(case.raw, IP, 80, &case.limits, &mut arena);
        match &case.expect {
            Expect::Accept(f) => {
                let pkt = owned.unwrap_or_else(|e| panic!("{name}: owned rejected: {e:?}"));
                check_fields(name, &pkt, f);
                let Ok(ViewOutcome::View(v)) = view else {
                    panic!("{name}: view did not accept: {view:?}");
                };
                assert_eq!(v.to_packet(&arena), pkt, "{name}");
                assert_eq!(String::from_utf8_lossy(v.host_bytes()), f.host, "{name}");
                assert_eq!(v.cookie(), f.cookie, "{name}");
                assert_eq!(v.body(), f.body, "{name}");
                let rline = format!("{} {}", f.method, f.target);
                assert_eq!(v.rline(), rline.as_bytes(), "{name}");
                assert_eq!(v.header_count(), f.headers.len(), "{name}");
            }
            Expect::AcceptOpaque(f) => {
                let pkt = owned.unwrap_or_else(|e| panic!("{name}: owned rejected: {e:?}"));
                check_fields(name, &pkt, f);
                assert!(matches!(view, Ok(ViewOutcome::Opaque)), "{name}: {view:?}");
            }
            Expect::Reject(err, tag) => {
                assert_eq!(owned.as_ref(), Err(err), "{name}");
                assert_eq!(err.tag(), *tag, "{name}");
                match view {
                    Err(e) => assert_eq!(&e, err, "{name}"),
                    other => panic!("{name}: view did not reject: {other:?}"),
                }
            }
        }
        arena.reset();
    }
}

#[test]
fn golden_corpus_covers_every_tag() {
    let tags: std::collections::BTreeSet<&str> = corpus()
        .iter()
        .filter_map(|c| match &c.expect {
            Expect::Reject(_, tag) => Some(*tag),
            _ => None,
        })
        .collect();
    assert_eq!(tags.len(), 12, "{tags:?}");
}

#[test]
fn rejects_leave_the_arena_clean() {
    let mut arena = ParseArena::new();
    for case in corpus() {
        if let Expect::Reject(..) = case.expect {
            let _ = parse_request_view(case.raw, IP, 80, &case.limits, &mut arena);
            assert!(arena.is_empty(), "{}: spans leaked", case.name);
        }
    }
}
