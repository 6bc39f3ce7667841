//! Golden bytes of the `.rllckpt` checkpoint, and a corruption sweep over
//! its decoder.
//!
//! `tests/fixtures/tiny.rllckpt` is a committed checkpoint of a 3→3→2
//! encoder with its fitted normalizer. Opening it and sealing the opened
//! value again must give the file back byte for byte; the test does no
//! float math (JSON float parsing and shortest-round-trip formatting only),
//! so it does not depend on which libm the host selects. Every prefix of the
//! fixture and 2 000 seeded single-bit flips of it must then decode to a
//! typed error or a valid checkpoint, never a panic.

use rll_serve::{Checkpoint, ServeError};
use rll_tensor::Rng64;

const FIXTURE: &[u8] = include_bytes!("fixtures/tiny.rllckpt");

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
fn checkpoint_fixture_reseals_byte_for_byte() {
    let checkpoint = Checkpoint::from_bytes(FIXTURE).unwrap();
    assert_eq!(checkpoint.meta.input_dim, 3);
    assert_eq!(checkpoint.meta.embedding_dim, 2);
    assert_eq!(checkpoint.meta.train_run_id, "fixture-run");
    assert_eq!(checkpoint.to_bytes().unwrap(), FIXTURE);
    assert!(FIXTURE.len() < 16 * 1024);
}

#[test]
fn checkpoint_decoder_survives_cuts_and_bit_flips() {
    let (mut ok, mut err) = (0usize, 0usize);
    for bytes in mutations(FIXTURE, 0x5EA1_0002) {
        match Checkpoint::from_bytes(&bytes) {
            // The header sits outside the checksum, so a flip there can
            // still parse (a changed `train_run_id` character).
            Ok(_) => ok += 1,
            Err(ServeError::Io { .. }) => panic!("decoding bytes cannot be an I/O error"),
            Err(_) => err += 1,
        }
    }
    // Every cut is short of the payload length the header promises.
    assert!(err >= FIXTURE.len(), "{err} errors, {ok} accepted");
}
