//! Never-panic properties of the `LEAKBATCH/1` decoders: on arbitrary
//! bytes and on truncated or bit-flipped valid envelopes, the owned and
//! the borrowed decoder agree, and each either errors, asks for more
//! bytes, or yields records that round-trip through `encode_batch`.

use leaksig_faults::{flip_bytes, truncate_bytes};
use leaksig_net::proto::{
    decode_batch_partial, decode_batch_partial_ref, encode_batch, BatchError, BatchProgress,
    BatchProgressRef, BatchRecord,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_record() -> impl Strategy<Value = BatchRecord> {
    (
        proptest::collection::vec(any::<u8>(), 0..64),
        any::<u32>(),
        any::<u16>(),
    )
        .prop_map(|(raw, ip, port)| BatchRecord {
            raw,
            ip: Ipv4Addr::from(ip),
            port,
        })
}

fn arb_max_body() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0), Just(64), Just(1 << 20), Just(usize::MAX)]
}

fn check(data: &[u8], max_body: usize) -> Result<(), TestCaseError> {
    let owned = decode_batch_partial(data, max_body);
    let borrowed = decode_batch_partial_ref(data, max_body);
    match (owned, borrowed) {
        (
            Ok(BatchProgress::Complete { records, consumed }),
            Ok(BatchProgressRef::Complete {
                records: views,
                consumed: consumed_ref,
            }),
        ) => {
            prop_assert_eq!(consumed, consumed_ref);
            prop_assert!(consumed <= data.len());
            let copied: Vec<BatchRecord> = views.iter().map(|v| v.to_owned()).collect();
            prop_assert_eq!(&copied, &records);
            let again = encode_batch(&records);
            let consumed = again.len();
            prop_assert_eq!(
                decode_batch_partial(&again, usize::MAX),
                Ok(BatchProgress::Complete { records, consumed })
            );
        }
        (
            Ok(BatchProgress::Incomplete { need }),
            Ok(BatchProgressRef::Incomplete { need: need_ref }),
        ) => {
            prop_assert_eq!(need, need_ref);
            if let Some(need) = need {
                prop_assert!(need > data.len());
            }
        }
        (Err(e), Err(e_ref)) => prop_assert_eq!(e, e_ref),
        (owned, borrowed) => {
            prop_assert!(false, "owned {:?} vs borrowed {:?}", owned, borrowed)
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn batch_decoders_never_panic_on_arbitrary_bytes(
        junk in proptest::collection::vec(any::<u8>(), 0..256),
        headed in any::<bool>(),
        max_body in arb_max_body(),
    ) {
        let mut data = if headed { b"LEAKBATCH/1 ".to_vec() } else { Vec::new() };
        data.extend_from_slice(&junk);
        check(&data, max_body)?;
    }

    /// A valid envelope decodes to its records; every proper prefix asks
    /// for more bytes; truncated or bit-flipped copies never panic.
    #[test]
    fn batch_decoders_are_total_on_damaged_envelopes(
        records in proptest::collection::vec(arb_record(), 0..5),
        keep_permille in 0u16..1000,
        seed in any::<u64>(),
        flips in 1usize..6,
        max_body in arb_max_body(),
    ) {
        let valid = encode_batch(&records);
        let consumed = valid.len();
        prop_assert_eq!(
            decode_batch_partial(&valid, usize::MAX),
            Ok(BatchProgress::Complete { records, consumed })
        );
        check(&valid, max_body)?;

        let mut cut = valid.clone();
        truncate_bytes(&mut cut, keep_permille);
        let prefix = decode_batch_partial(&cut, usize::MAX);
        prop_assert!(
            matches!(prefix, Ok(BatchProgress::Incomplete { .. })),
            "prefix of {} bytes: {:?}",
            cut.len(),
            prefix
        );
        check(&cut, max_body)?;

        let mut flipped = valid;
        flip_bytes(&mut flipped, seed, flips);
        check(&flipped, max_body)?;
    }
}

/// A body length that overflows the envelope size is refused as too
/// large, even by a receiver with no budget.
#[test]
fn overflowing_body_length_is_too_large() {
    let header = format!("LEAKBATCH/1 0 {} {}\n", usize::MAX, "0".repeat(40));
    assert_eq!(
        decode_batch_partial(header.as_bytes(), usize::MAX),
        Err(BatchError::TooLarge {
            declared: usize::MAX
        })
    );
}
