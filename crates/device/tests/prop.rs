//! Property tests for the device crate's untrusted-input surfaces: the
//! persistence decoders (policy, store snapshot, and the WAL store's
//! LEAKSTATE/1 snapshot and op codecs) must be total (error or round
//! trip, never panic) on arbitrary, truncated, or bit-flipped input, and
//! a crash mid-save must never surface as a half-installed store.

use leaksig_core::prelude::*;
use leaksig_core::signature::{ConjunctionSignature, Field, FieldToken};
use leaksig_core::wire;
use leaksig_device::persist::{decode_policy, decode_store, encode_store, SnapshotVault};
use leaksig_device::state::{apply_op, decode_ops, decode_state, encode_op, encode_state};
use leaksig_device::{
    DurableState, QuarantineReason, QuarantineRecord, SignatureStore, StateOp, StoreHealth,
};
use leaksig_faults::{flip_bytes, truncate_bytes, CrashFlavor, FaultyDisk, RealDisk};
use leaksig_http::{Destination, HeaderName, HttpPacket, Method, ParseError, RequestLine};
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering};

fn arb_token() -> impl Strategy<Value = FieldToken> {
    (
        prop_oneof![
            Just(Field::RequestLine),
            Just(Field::Cookie),
            Just(Field::Body),
        ],
        // Long enough that the deploy gate's anchor-length check (which
        // `decode_store` runs on restore) accepts the signature.
        proptest::collection::vec(any::<u8>(), 12..24),
        any::<u32>(),
    )
        .prop_map(|(field, bytes, hint)| FieldToken::with_hint(field, bytes, hint))
}

/// Signature sets that (almost always) pass the deploy gate: unique ids,
/// anchor-length tokens. Cases the gate still rejects are discarded via
/// `prop_assume!` at the use site.
fn arb_set() -> impl Strategy<Value = SignatureSet> {
    proptest::collection::vec(
        (
            1usize..20,
            proptest::collection::vec("[a-z0-9.-]{1,12}", 0..3),
            proptest::collection::vec(arb_token(), 1..4),
        ),
        0..4,
    )
    .prop_map(|sigs| SignatureSet {
        signatures: sigs
            .into_iter()
            .enumerate()
            .map(|(id, (cluster_size, hosts, tokens))| ConjunctionSignature {
                id: id as u32,
                tokens,
                cluster_size,
                hosts,
            })
            .collect(),
    })
}

/// Whether the checked installer (and therefore `decode_store`) accepts
/// this set.
fn installable(set: &SignatureSet) -> bool {
    SignatureStore::new().install(1, &wire::encode(set)).is_ok()
}

/// No crash, or a crash at one of a save's three mutating steps (write
/// `.tmp`, sync, rename) with any flavor.
fn arb_crash() -> impl Strategy<Value = Option<(u64, CrashFlavor)>> {
    prop_oneof![
        Just(None),
        (
            0u64..3,
            prop_oneof![
                Just(CrashFlavor::Before),
                Just(CrashFlavor::Torn),
                Just(CrashFlavor::After),
            ],
        )
            .prop_map(Some),
    ]
}

/// A fresh per-case vault directory (proptest cases run sequentially but
/// a failing case must not poison the next one's state).
fn scratch_dir() -> std::path::PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "leaksig-device-prop-{}-{n}",
        std::process::id()
    ))
}

fn stored(version: u64, set: &SignatureSet) -> SignatureStore {
    let store = SignatureStore::new();
    store
        .install_unchecked(version, &wire::encode(set))
        .expect("encodable set installs");
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The persistence decoders never panic on arbitrary text.
    #[test]
    fn decoders_are_total_on_arbitrary_text(
        junk in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let text = String::from_utf8_lossy(&junk);
        let _ = decode_store(&text);
        let _ = decode_policy(&text);
    }

    /// Nor on a valid store snapshot truncated at any char boundary or
    /// with an arbitrary junk line appended.
    #[test]
    fn store_decoder_is_total_on_damaged_snapshots(
        set in arb_set(),
        version in 1u64..1000,
        cut_frac in 0.0f64..1.0,
        junk in "[a-zA-Z0-9 =]{0,32}",
    ) {
        let text = encode_store(&stored(version, &set));
        let mut cut = (text.len() as f64 * cut_frac) as usize;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        let _ = decode_store(&text[..cut]);
        let _ = decode_store(&format!("{text}{junk}\n"));
    }

    /// A full snapshot round-trips the store exactly.
    #[test]
    fn vault_round_trips_any_encodable_store(set in arb_set(), version in 1u64..1000) {
        prop_assume!(installable(&set));
        let dir = scratch_dir();
        let store = stored(version, &set);
        let mut vault = SnapshotVault::new(&dir).unwrap();
        vault.save_store(&store).unwrap();
        let (restored, report) = vault.restore_store();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(report.skipped_corrupt, 0);
        prop_assert_eq!(restored.version(), version);
        prop_assert_eq!(restored.wire_text(), store.wire_text());
    }

    /// A crash at any point while persisting a newer state restores
    /// either the old state or the new one, in full — never a blend, and
    /// never a panic.
    #[test]
    fn vault_restore_is_atomic_under_crashes(
        old in arb_set(),
        new in arb_set(),
        crash in arb_crash(),
    ) {
        prop_assume!(installable(&old) && installable(&new));
        let dir = scratch_dir();
        let store = stored(1, &old);
        SnapshotVault::new(&dir).unwrap().save_store(&store).unwrap();
        store.install_unchecked(2, &wire::encode(&new)).unwrap();
        let (disk, ctl) = FaultyDisk::new(RealDisk);
        let mut vault = SnapshotVault::open(&dir, Box::new(disk)).unwrap();
        if let Some((step, flavor)) = crash {
            ctl.arm_crash(ctl.mutations() + step, flavor);
        }
        let saved = vault.save_store(&store);

        // Restart on an honest disk: the crashed process is gone.
        let (restored, report) = SnapshotVault::new(&dir).unwrap().restore_store();
        std::fs::remove_dir_all(&dir).ok();

        // Only a crash after the rename landed keeps the new snapshot;
        // every other crash persisted nothing trustworthy and restore
        // rolls back to generation 1 in full.
        let landed = match crash {
            None => true,
            Some((step, flavor)) => step == 2 && flavor == CrashFlavor::After,
        };
        prop_assert_eq!(saved.is_ok(), crash.is_none());
        if landed {
            prop_assert_eq!(restored.version(), 2);
            prop_assert_eq!(restored.wire_text(), wire::encode(&new));
        } else {
            prop_assert_eq!(restored.version(), 1);
            prop_assert_eq!(restored.wire_text(), wire::encode(&old));
        }
        prop_assert_eq!(report.skipped_corrupt, 0);
        prop_assert_eq!(restored.health(), StoreHealth::Fresh);
        prop_assert!(report.generation.is_some());
    }
}

// ── LEAKSTATE/1: the WAL store's snapshot and op codecs ─────────────

fn arb_packet() -> impl Strategy<Value = HttpPacket> {
    (
        any::<u32>(),
        any::<u16>(),
        "[a-z0-9.:-]{0,16}",
        prop_oneof![
            Just("GET".to_string()),
            Just("POST".to_string()),
            "[A-Z]{1,6}"
        ],
        "/[ -~]{0,24}",
        proptest::collection::vec(
            (
                "[A-Za-z-]{1,10}",
                proptest::collection::vec(any::<u8>(), 0..16),
            ),
            0..3,
        ),
        proptest::collection::vec(any::<u8>(), 0..48),
    )
        .prop_map(
            |(ip, port, host, method, target, headers, body)| HttpPacket {
                destination: Destination::new(Ipv4Addr::from(ip), port, host),
                request_line: RequestLine {
                    method: Method::from_token(&method),
                    target,
                    version: "HTTP/1.1".to_string(),
                },
                headers: headers
                    .into_iter()
                    .map(|(n, v)| (HeaderName::new(&n), v))
                    .collect(),
                body,
            },
        )
}

fn arb_record() -> impl Strategy<Value = QuarantineRecord> {
    (
        prop_oneof![
            Just(QuarantineReason::Poison),
            Just(QuarantineReason::PoisonReingest),
            Just(QuarantineReason::Malformed(ParseError::Empty)),
            "[ -~]{0,12}".prop_map(|s| QuarantineReason::Malformed(ParseError::BadVersion(s))),
            (0usize..100, 0usize..100).prop_map(|(limit, got)| QuarantineReason::Malformed(
                ParseError::BodyTooLarge { limit, got }
            )),
        ],
        any::<u32>(),
        any::<u16>(),
        0usize..4096,
        "[ -~]{0,24}",
    )
        .prop_map(|(reason, ip, port, bytes, summary)| QuarantineRecord {
            reason,
            source: Ipv4Addr::from(ip),
            port,
            bytes,
            summary,
        })
}

/// Ops with small counters, so applying a sequence never overflows.
fn arb_op() -> impl Strategy<Value = StateOp> {
    prop_oneof![
        (arb_packet(), 0usize..4).prop_map(|(packet, slot)| StateOp::Suspect { packet, slot }),
        Just(StateOp::SuspectDropped),
        Just(StateOp::Normal),
        (0u64..1000, 0u64..1000, 0u64..1000, 0u64..1000).prop_map(
            |(raw_seen, rate_limited, shed, admitted)| StateOp::Intake {
                raw_seen,
                rate_limited,
                shed,
                admitted,
            }
        ),
        (1usize..4, any::<bool>(), arb_record()).prop_map(|(cap, parse_reject, record)| {
            StateOp::Quarantine {
                cap,
                parse_reject,
                record,
            }
        }),
        (0usize..4).prop_map(|slot| StateOp::Evict { slot }),
        (any::<u64>(), "[ -~\n]{0,40}")
            .prop_map(|(version, wire)| StateOp::Publish { version, wire }),
        Just(StateOp::RejectedPublish),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(a, b, c, d)| {
            StateOp::Rng {
                state: [a, b, c, d],
            }
        }),
    ]
}

fn encode_ops(ops: &[StateOp]) -> Vec<u8> {
    let mut out = Vec::new();
    for op in ops {
        encode_op(&mut out, op);
    }
    out
}

/// Both LEAKSTATE/1 decoders on `bytes`: an `Err`, or a value that
/// re-encodes and decodes back to itself. Never a panic.
fn state_decoders_err_or_round_trip(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(state) = decode_state(bytes) {
        prop_assert_eq!(decode_state(&encode_state(&state)), Ok(state));
    }
    if let Ok(ops) = decode_ops(bytes) {
        prop_assert_eq!(decode_ops(&encode_ops(&ops)), Ok(ops));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn state_decoders_never_panic_on_arbitrary_bytes(
        junk in proptest::collection::vec(any::<u8>(), 0..512),
        headed in any::<bool>(),
    ) {
        let mut bytes = if headed { b"LEAKSTATE/1 ".to_vec() } else { Vec::new() };
        bytes.extend_from_slice(&junk);
        state_decoders_err_or_round_trip(&bytes)?;
    }

    /// Valid snapshot and WAL-frame encodings round-trip exactly; cut
    /// short and bit-flipped they error or round-trip, never panic.
    #[test]
    fn state_decoders_are_total_on_damaged_encodings(
        ops in proptest::collection::vec(arb_op(), 0..8),
        keep_permille in 0u16..1000,
        seed in any::<u64>(),
        flips in 0usize..6,
    ) {
        let mut state = DurableState::default();
        for op in &ops {
            apply_op(&mut state, op);
        }
        let snapshot = encode_state(&state);
        let frame = encode_ops(&ops);
        prop_assert_eq!(decode_state(&snapshot), Ok(state));
        prop_assert_eq!(decode_ops(&frame), Ok(ops));
        for valid in [snapshot, frame] {
            let mut damaged = valid.clone();
            truncate_bytes(&mut damaged, keep_permille);
            state_decoders_err_or_round_trip(&damaged)?;
            let mut damaged = valid;
            flip_bytes(&mut damaged, seed, flips);
            state_decoders_err_or_round_trip(&damaged)?;
        }
    }
}

/// A declared item count far beyond the bytes present is an error, not
/// an attempt to reserve memory for it.
#[test]
fn state_decoder_rejects_lying_counts_without_reserving_them() {
    let stats = "0 0 0 0 0 0 0 0 0 0 0 0 0\nG 0\nP 0\n";
    for header in [
        format!("LEAKSTATE/1 {} 0\n", usize::MAX),
        format!("LEAKSTATE/1 0 {}\n", usize::MAX),
    ] {
        assert!(decode_state(format!("{header}{stats}").as_bytes()).is_err());
    }
    let packet = format!("S 0\n1.2.3.4 80 0 3 1 8 {} 0\nGET/HTTP/1.1", usize::MAX);
    assert!(decode_ops(packet.as_bytes()).is_err());
}
