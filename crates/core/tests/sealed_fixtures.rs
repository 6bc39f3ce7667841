//! Golden bytes of the `.rllstate` training snapshot, and a corruption sweep
//! over its decoder.
//!
//! `tests/fixtures/tiny.rllstate` is a committed, 2-of-3-epochs training
//! state of a 3→3→2 encoder. Opening it and sealing the opened value again
//! must give the file back byte for byte; the test does no float math (JSON
//! float parsing and shortest-round-trip formatting only), so it does not
//! depend on which libm the host selects. Every prefix of the fixture and
//! 2 000 seeded single-bit flips of it must then decode to a typed error or
//! a valid state, never a panic.

use rll_core::snapshot::SnapshotError;
use rll_core::{RllError, TrainState};
use rll_tensor::Rng64;

const FIXTURE: &[u8] = include_bytes!("fixtures/tiny.rllstate");

/// Every proper prefix of `bytes`, then 2 000 seeded single-bit flips.
fn mutations(bytes: &[u8], seed: u64) -> impl Iterator<Item = Vec<u8>> + '_ {
    let mut rng = Rng64::seed_from_u64(seed);
    let cuts = (0..bytes.len()).map(move |n| bytes[..n].to_vec());
    let flips = (0..2000).map(move |_| {
        let mut flipped = bytes.to_vec();
        let at = rng.below(flipped.len()).unwrap();
        flipped[at] ^= 1 << rng.below(8).unwrap();
        flipped
    });
    cuts.chain(flips)
}

#[test]
fn state_fixture_reseals_byte_for_byte() {
    let state = TrainState::from_bytes(FIXTURE).unwrap();
    assert_eq!(state.meta.epochs_done, 2);
    assert_eq!(state.meta.total_epochs, 3);
    assert_eq!(state.meta.payload_bytes + 1, {
        let header = FIXTURE.iter().position(|&b| b == b'\n').unwrap() as u64;
        FIXTURE.len() as u64 - header
    });
    assert_eq!(state.to_bytes().unwrap(), FIXTURE);
    assert!(FIXTURE.len() < 16 * 1024);
}

#[test]
fn state_decoder_survives_cuts_and_bit_flips() {
    let (mut ok, mut err) = (0usize, 0usize);
    for bytes in mutations(FIXTURE, 0x5EA1_0001) {
        match TrainState::from_bytes(&bytes) {
            // The header sits outside the checksum, so a flip there can
            // still parse (`"seed":21` → `"seed":20`).
            Ok(_) => ok += 1,
            Err(RllError::Io { .. }) => panic!("decoding bytes cannot be an I/O error"),
            Err(_) => err += 1,
        }
    }
    // Every cut is short of the payload length the header promises.
    assert!(err >= FIXTURE.len(), "{err} errors, {ok} accepted");
}

#[test]
fn seed_with_a_leading_zero_is_malformed() {
    // `"seed":21` → `"seed":01` is one bit in the header, which no checksum
    // covers. A leading zero is not JSON, so the header fails to parse
    // instead of resuming as seed 1.
    let seed = FIXTURE
        .windows(9)
        .position(|w| w == b"\"seed\":21")
        .unwrap();
    let mut flipped = FIXTURE.to_vec();
    flipped[seed + 7] ^= b'2' ^ b'0';
    assert!(flipped.windows(9).any(|w| w == b"\"seed\":01"));
    match TrainState::from_bytes(&flipped) {
        Err(RllError::Snapshot(SnapshotError::Malformed { reason })) => {
            assert!(reason.contains("invalid number `01`"), "{reason}")
        }
        other => panic!("expected a malformed header, got {other:?}"),
    }
}
