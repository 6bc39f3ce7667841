//! Differential tests of the WAL record codec against the JSON shim.
//!
//! `decode_record`/`encode_record` read and write one canonical line form
//! (see the `wal` module doc). They replaced a `serde_json` round trip, so
//! these tests hold the pair to it: every record line the writer produced —
//! in the golden segment fixtures and in a seeded 2 000-vote log with
//! half-keyed, unkeyed and above-`i64::MAX` keys — round-trips to the same
//! bytes `serde_json::to_string` gives, and on every cut and 2 000 seeded
//! bit flips of each line, the codec accepts nothing the shim would reject
//! or read differently. A set of non-canonical lines with valid checksums
//! pins what replay now reports as `MalformedRecord`.

use std::fs;
use std::path::{Path, PathBuf};

use rll_label::{
    decode_record, encode_record, replay_read_only, CorruptionKind, ShardedWal, Vote, VoteRecord,
    WalConfig,
};
use rll_tensor::hash::fnv1a;
use rll_tensor::Rng64;

const FIXTURES: [&[u8]; 2] = [
    include_bytes!("fixtures/shard0000-seg00000000.rllwal"),
    include_bytes!("fixtures/shard0000-seg00000001.rllwal"),
];

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rll_codec_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The JSON part of every record line of a segment file (the header line
/// and each line's `<checksum> ` prefix stripped).
fn record_jsons(segment: &[u8]) -> Vec<Vec<u8>> {
    segment
        .split_inclusive(|&b| b == b'\n')
        .skip(1)
        .map(|line| {
            let line = line.strip_suffix(b"\n").unwrap();
            assert_eq!(line[16], b' ', "{}", String::from_utf8_lossy(line));
            line[17..].to_vec()
        })
        .collect()
}

/// A draw that is often a boundary value, otherwise uniform over 64 bits.
fn wide(rng: &mut Rng64) -> u64 {
    const EDGES: [u64; 7] = [
        0,
        9,
        10,
        i64::MAX as u64,
        i64::MAX as u64 + 1,
        u64::MAX - 1,
        u64::MAX,
    ];
    match rng.below(4).unwrap() {
        0 => EDGES[rng.below(EDGES.len()).unwrap()],
        _ => ((rng.below(1 << 32).unwrap() as u64) << 32) | rng.below(1 << 32).unwrap() as u64,
    }
}

/// 2 000 votes appended through a 3-shard WAL with 64-record segments, so
/// the lines come from sealed and open segments alike. Keys are unkeyed,
/// half-keyed (either half) or full, with values across the whole `u64`.
fn seeded_log_jsons(tag: &str) -> Vec<Vec<u8>> {
    let dir = fresh_dir(tag);
    let mut rng = Rng64::seed_from_u64(0xC0DE_C000);
    {
        let (mut wal, _) = ShardedWal::open(WalConfig::new(&dir, 3, 64).unwrap()).unwrap();
        for _ in 0..2000 {
            let worker = match rng.below(3).unwrap() {
                0 => u32::MAX,
                _ => rng.below(1 << 32).unwrap() as u32,
            };
            let label = rng.below(256).unwrap() as u8;
            let mut vote = Vote::new(wide(&mut rng), worker, label);
            match rng.below(4).unwrap() {
                0 => {}
                1 => vote.session = Some(wide(&mut rng)),
                2 => vote.request = Some(wide(&mut rng)),
                _ => vote = vote.with_key(wide(&mut rng), wide(&mut rng)),
            }
            wal.append(vote).unwrap();
        }
    }
    let mut names: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    names.sort();
    let jsons: Vec<Vec<u8>> = names
        .iter()
        .flat_map(|path| record_jsons(&fs::read(path).unwrap()))
        .collect();
    fs::remove_dir_all(&dir).unwrap();
    assert_eq!(jsons.len(), 2000);
    jsons
}

/// The fixtures' record lines, then the seeded log's, written under a
/// directory named by `tag` (tests run in parallel).
fn all_jsons(tag: &str) -> Vec<Vec<u8>> {
    let mut jsons: Vec<Vec<u8>> = FIXTURES.iter().flat_map(|f| record_jsons(f)).collect();
    assert_eq!(jsons.len(), 6);
    jsons.extend(seeded_log_jsons(tag));
    jsons
}

fn encoded(record: &VoteRecord) -> Vec<u8> {
    let mut out = Vec::new();
    encode_record(record, &mut out);
    out
}

#[test]
fn writer_lines_round_trip_to_the_shims_bytes() {
    let jsons = all_jsons("round_trip");
    let (mut half, mut unkeyed, mut high) = (0, 0, 0);
    for json in &jsons {
        let text = std::str::from_utf8(json).unwrap();
        let record = decode_record(json).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(serde_json::from_str::<VoteRecord>(text).unwrap(), record);
        assert_eq!(encoded(&record), *json, "{text}");
        assert_eq!(
            serde_json::to_string(&record).unwrap().as_bytes(),
            &json[..]
        );
        half += usize::from(record.session.is_some() != record.request.is_some());
        unkeyed += usize::from(record.session.is_none() && record.request.is_none());
        high += usize::from(record.session.is_some_and(|s| s > i64::MAX as u64));
    }
    assert!(
        half > 0 && unkeyed > 0 && high > 0,
        "{half} {unkeyed} {high}"
    );
}

#[test]
fn the_pre_key_form_still_decodes() {
    let record = decode_record(br#"{"seq":1,"example":4,"worker":0,"label":1}"#).unwrap();
    assert_eq!(
        record,
        VoteRecord {
            seq: 1,
            example: 4,
            worker: 0,
            label: 1,
            session: None,
            request: None,
        }
    );
}

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
fn damaged_lines_decode_only_where_the_shim_agrees() {
    let (mut accepted, mut rejected) = (0usize, 0usize);
    for (i, json) in all_jsons("mutations").iter().enumerate() {
        for bytes in mutations(json, 0xF11B_0000 + i as u64) {
            let Ok(record) = decode_record(&bytes) else {
                rejected += 1;
                continue;
            };
            accepted += 1;
            // Accepted bytes are canonical: ASCII, and exactly what the
            // encoder writes for the record.
            let text = std::str::from_utf8(&bytes).unwrap();
            assert_eq!(
                serde_json::from_str::<VoteRecord>(text),
                Ok(record),
                "{text}"
            );
            assert_eq!(encoded(&record), bytes, "{text}");
        }
    }
    assert!(accepted > 0 && rejected > 0, "{accepted} {rejected}");
}

/// A one-shard WAL holding one good record, then `json` as a second record
/// line under a valid checksum.
fn wal_with_line(dir: &Path, json: &str) -> WalConfig {
    let config = WalConfig::new(dir, 1, 1024).unwrap();
    let (mut wal, _) = ShardedWal::open(config.clone()).unwrap();
    wal.append(Vote::new(4, 0, 1)).unwrap();
    let segment = dir.join("shard0000-seg00000000.rllwal");
    let mut bytes = fs::read(&segment).unwrap();
    bytes.extend_from_slice(format!("{:016x} {json}\n", fnv1a(json.as_bytes())).as_bytes());
    fs::write(&segment, bytes).unwrap();
    config
}

#[test]
fn non_canonical_lines_are_malformed_records() {
    let tail = r#","label":1,"session":null,"request":null}"#;
    let cases = [
        (
            "leading zero",
            format!(r#"{{"seq":02,"example":4,"worker":0{tail}"#),
        ),
        (
            "whitespace",
            format!(r#"{{"seq": 2,"example":4,"worker":0{tail}"#),
        ),
        (
            "reordered",
            format!(r#"{{"example":4,"seq":2,"worker":0{tail}"#),
        ),
        (
            "duplicated",
            format!(r#"{{"seq":2,"seq":2,"example":4,"worker":0{tail}"#),
        ),
        (
            "worker above u32",
            format!(r#"{{"seq":2,"example":4,"worker":4294967296{tail}"#),
        ),
        (
            "label 256",
            r#"{"seq":2,"example":4,"worker":0,"label":256,"session":null,"request":null}"#
                .to_string(),
        ),
        (
            "float",
            format!(r#"{{"seq":2.0,"example":4,"worker":0{tail}"#),
        ),
        (
            "negative",
            format!(r#"{{"seq":2,"example":-4,"worker":0{tail}"#),
        ),
        (
            "seq above u64",
            format!(r#"{{"seq":18446744073709551616,"example":4,"worker":0{tail}"#),
        ),
        (
            "unknown field",
            r#"{"seq":2,"example":4,"worker":0,"label":1,"session":null,"request":null,"x":1}"#
                .to_string(),
        ),
        (
            "half the key fields",
            r#"{"seq":2,"example":4,"worker":0,"label":1,"session":null}"#.to_string(),
        ),
        (
            "trailing bytes",
            format!(r#"{{"seq":2,"example":4,"worker":0{tail} "#),
        ),
    ];
    for (name, json) in cases {
        assert!(decode_record(json.as_bytes()).is_err(), "{name}: {json}");
        let dir = fresh_dir("malformed");
        let replay = replay_read_only(&wal_with_line(&dir, &json)).unwrap();
        assert_eq!(replay.records.len(), 1, "{name}");
        assert_eq!(replay.corruptions.len(), 1, "{name}");
        let corruption = &replay.corruptions[0];
        assert_eq!(corruption.kind, CorruptionKind::MalformedRecord, "{name}");
        assert_eq!(corruption.record_index, 1, "{name}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
