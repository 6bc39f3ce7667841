//! Sharded, checksummed write-ahead log for crowd votes.
//!
//! ## On-disk layout
//!
//! A WAL directory holds flat segment files named
//! `shard<SSSS>-seg<NNNNNNNN>.rllwal`. Each segment is a sealed file of the
//! one workspace codec ([`rll_core::snapshot`]): a one-line JSON header
//! followed by the payload — here a sequence of *record lines*:
//!
//! ```text
//! {"magic":"RLLWAL","version":1,"shard":0,"segment":0,...}\n
//! <fnv1a-hex-16> {"seq":1,"example":3,"worker":0,"label":1,"session":null,"request":null}\n
//! <fnv1a-hex-16> {"seq":2,"example":5,"worker":1,"label":0,"session":7,"request":1}\n
//! ```
//!
//! Every record line carries its own FNV-1a checksum over the JSON bytes, so
//! a torn tail (the crash mode of an append-only file) or a flipped bit is
//! detected at the exact record. The *active* (last) segment of a shard is
//! appended in place and fsynced per record — acked votes are durable; on
//! rotation the segment is *sealed*: atomically rewritten with
//! `sealed: true`, the final record count, and a whole-payload checksum.
//!
//! Replay verifies both checksums in one pass: one loop feeds each line's
//! JSON to its own hash and every payload byte to the whole-payload hash.
//! The verdicts keep their order: per line UTF-8, separator, checksum
//! literal, line checksum, decode, climbing `seq`; after a sealed segment's
//! last line, the whole-payload checksum.
//!
//! ## Record grammar
//!
//! [`encode_record`] writes, and [`decode_record`] reads, exactly one form:
//!
//! ```text
//! {"seq":U,"example":U,"worker":U32,"label":U8,"session":U|null,"request":U|null}
//! ```
//!
//! with no whitespace, the fields in this order, and every number a decimal
//! without leading zeros that fits its type. The decoder also accepts the
//! form written before idempotency keys existed, which ends after `label`
//! (`{"seq":1,"example":4,"worker":0,"label":1}`); both key halves are then
//! `None`. Any other line — even one whose checksum matches, such as a
//! hand-edited `"seq":01` — is a [`CorruptionKind::MalformedRecord`].
//!
//! ## Recovery semantics
//!
//! [`ShardedWal::open`] replays every shard and repairs in place: the first
//! bad record in a shard truncates that shard there (the file is atomically
//! rewritten with the good prefix; later segments are quarantined, never
//! silently reused). A sealed segment that lost whole record lines — fewer
//! verified lines than its header counts, and a payload that fails the
//! header's checksum — is a truncation point too
//! ([`CorruptionKind::SealedRecordsMissing`]). Each repair is reported as a
//! typed [`Corruption`] in the [`WalReplay`] — recovery degrades, it does not
//! fail. Votes are assigned one **globally monotone** sequence number under
//! the store's `wal` lock, so the cross-shard merge by `seq` reproduces the
//! exact ingestion order deterministically.

use std::fs;
use std::io::Write as _;
use std::num::{NonZeroU32, NonZeroU64};
use std::path::{Path, PathBuf};

use rll_core::snapshot::{atomic_write, open_header, seal_bytes, verify_payload, SealedHeader};
use rll_tensor::hash::{fnv1a, Fnv1a};
use serde::{Deserialize, Serialize};

use crate::error::{LabelError, Result};

/// Magic string in every segment header.
pub const WAL_MAGIC: &str = "RLLWAL";
/// Current segment format version.
pub const WAL_VERSION: u32 = 1;
/// Extension appended to segment files dropped during repair.
pub const QUARANTINE_SUFFIX: &str = "quarantined";

/// One annotator vote, as submitted to `POST /label`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Vote {
    /// Dataset row the vote annotates.
    pub example: u64,
    /// Live annotator id (maps to a dedicated worker column on fold-in).
    pub worker: u32,
    /// Binary label: 0 or 1.
    pub label: u8,
    /// Client annotator-session id, half of the optional idempotency key.
    /// Missing from old (and unkeyed) submissions — the vendored serde shim
    /// maps an absent field to `None`.
    pub session: Option<u64>,
    /// Client per-session request counter, the other half. A retried POST
    /// resends the same `(session, request)` pair; ingest then returns the
    /// original receipt instead of appending a second record.
    pub request: Option<u64>,
}

impl Vote {
    /// An unkeyed vote (no idempotency key — every submission appends).
    pub fn new(example: u64, worker: u32, label: u8) -> Vote {
        Vote {
            example,
            worker,
            label,
            session: None,
            request: None,
        }
    }

    /// Attaches a client `(session, request)` idempotency key.
    pub fn with_key(mut self, session: u64, request: u64) -> Vote {
        self.session = Some(session);
        self.request = Some(request);
        self
    }

    /// The idempotency key, if both halves were supplied.
    pub fn key(&self) -> Option<(u64, u64)> {
        match (self.session, self.request) {
            (Some(s), Some(r)) => Some((s, r)),
            _ => None,
        }
    }
}

/// A vote with its durable, globally monotone sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VoteRecord {
    /// 1-based global sequence number (the WAL high-water mark is the
    /// largest acked `seq`).
    pub seq: u64,
    pub example: u64,
    pub worker: u32,
    pub label: u8,
    /// Idempotency-key halves, persisted so the dedup table rebuilds
    /// identically on replay. `None` for unkeyed votes — and for every
    /// record written before this field existed, since an absent field
    /// deserializes to `None`, keeping old segments parseable.
    pub session: Option<u64>,
    pub request: Option<u64>,
}

impl VoteRecord {
    /// The idempotency key, if the originating vote carried one.
    pub fn key(&self) -> Option<(u64, u64)> {
        match (self.session, self.request) {
            (Some(s), Some(r)) => Some((s, r)),
            _ => None,
        }
    }
}

/// Segment-file header (the envelope's one-line JSON head).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SegmentHeader {
    magic: String,
    version: u32,
    shard: u32,
    segment: u64,
    /// First sequence number the segment was opened for (informational).
    base_seq: u64,
    /// `true` once the segment rotated out and was checksummed whole.
    sealed: bool,
    /// Record count; meaningful only when `sealed`.
    records: u64,
    /// FNV-1a over the payload bytes; meaningful only when `sealed`.
    payload_fnv1a: u64,
}

impl SegmentHeader {
    /// The header of a fresh, open segment.
    fn open(shard: u32, segment: u64, base_seq: u64) -> SegmentHeader {
        SegmentHeader {
            magic: WAL_MAGIC.to_string(),
            version: WAL_VERSION,
            shard,
            segment,
            base_seq,
            sealed: false,
            records: 0,
            payload_fnv1a: 0,
        }
    }
}

impl SealedHeader for SegmentHeader {
    const MAGIC: &'static str = WAL_MAGIC;
    const VERSION: u32 = WAL_VERSION;
    fn id(&self) -> (&str, u32) {
        (&self.magic, self.version)
    }
    fn promised(&self) -> (Option<u64>, u64) {
        (None, self.payload_fnv1a)
    }
    /// An open segment is appended to in place, so only a sealed one
    /// records its checksum.
    fn stamp(&mut self, _len: u64, fnv1a: u64) {
        if self.sealed {
            self.payload_fnv1a = fnv1a;
        }
    }
}

/// Why a record (or segment) was rejected during replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CorruptionKind {
    /// The file's last line has no trailing newline — a torn append.
    TornTail,
    /// A record's FNV-1a checksum does not match its JSON bytes.
    ChecksumMismatch,
    /// A record line is structurally unparseable (no checksum field, bad
    /// hex, or invalid JSON).
    MalformedRecord,
    /// A record's sequence number does not climb within its shard.
    NonMonotoneSeq,
    /// The segment header is missing, unparseable, or inconsistent with the
    /// file's name.
    BadHeader,
    /// A sealed segment's whole-payload checksum or record count disagrees
    /// with its (individually verified) record lines, and no line is known
    /// lost: the checksum still matches, or the lines number at least the
    /// header's count. Repair re-seals the segment and replay goes on.
    SealedMetadataMismatch,
    /// A sealed segment holds fewer verified record lines than its header
    /// counts, and its payload fails the header's checksum: whole lines were
    /// lost (a cut at a line boundary). Replay truncates the shard after the
    /// surviving lines, like any other bad record.
    SealedRecordsMissing,
    /// A segment index gap: the expected segment file is missing.
    MissingSegment,
    /// The segment was dropped because an earlier segment in its shard was
    /// truncated — its records are unreachable past the truncation point.
    Quarantined,
}

/// One replay-time corruption finding. `dropped_records` counts records
/// physically discarded *at and after* the bad point in this segment; later
/// segments of the shard are quarantined and reported separately.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Corruption {
    pub shard: u32,
    pub segment: u64,
    pub file: String,
    /// 0-based record index within the segment (0 for header faults).
    pub record_index: u64,
    pub kind: CorruptionKind,
    pub detail: String,
    pub dropped_records: u64,
}

/// Everything a replay recovered.
#[derive(Debug, Clone, Default)]
pub struct WalReplay {
    /// All recovered votes, merged across shards in `seq` order.
    pub records: Vec<VoteRecord>,
    /// Typed findings, in shard/segment order.
    pub corruptions: Vec<Corruption>,
    /// Segment files read.
    pub segments_read: u64,
    /// Records discarded by truncation/quarantine, summed.
    pub dropped_records: u64,
    /// Largest recovered sequence number (0 when empty).
    pub high_water: u64,
}

/// WAL shape: directory, shard fan-out, rotation cadence.
///
/// Constructed only through [`WalConfig::new`], which rejects zero shard or
/// segment-record counts with a typed [`LabelError::InvalidConfig`] — the
/// fields are non-zero by type, so a degenerate shape is unrepresentable and
/// no call site needs a defensive `max(1)`.
#[derive(Debug, Clone, PartialEq)]
pub struct WalConfig {
    dir: PathBuf,
    shards: NonZeroU32,
    segment_records: NonZeroU64,
}

impl WalConfig {
    /// Validates and builds a WAL shape. `shards == 0` or
    /// `segment_records == 0` is a typed config error, caught here rather
    /// than silently masked at hash time.
    pub fn new(dir: impl Into<PathBuf>, shards: u32, segment_records: u64) -> Result<WalConfig> {
        let shards = NonZeroU32::new(shards).ok_or_else(|| LabelError::InvalidConfig {
            reason: "wal shards must be >= 1".into(),
        })?;
        let segment_records =
            NonZeroU64::new(segment_records).ok_or_else(|| LabelError::InvalidConfig {
                reason: "wal segment_records must be >= 1".into(),
            })?;
        Ok(WalConfig {
            dir: dir.into(),
            shards,
            segment_records,
        })
    }

    /// Directory holding the segment files (created on open).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Shard count; votes hash to shards by example id.
    pub fn shards(&self) -> NonZeroU32 {
        self.shards
    }

    /// Records per segment before rotation seals it.
    pub fn segment_records(&self) -> NonZeroU64 {
        self.segment_records
    }

    fn segment_path(&self, shard: u32, segment: u64) -> PathBuf {
        self.dir
            .join(format!("shard{shard:04}-seg{segment:08}.rllwal"))
    }
}

/// Append state of one shard. Replay leaves it at the shard's last live
/// segment and that segment's record count after repair.
#[derive(Debug, Clone, Default)]
struct ShardState {
    /// Index of the active segment, or `None` until the first append.
    active_segment: Option<u64>,
    /// Records currently in the active segment.
    active_records: u64,
}

/// The sharded WAL. All mutation goes through [`ShardedWal::append`], which
/// the owning [`crate::store::LabelStore`] serializes under its `wal` lock —
/// this type itself is deliberately `&mut self` single-writer.
#[derive(Debug)]
pub struct ShardedWal {
    config: WalConfig,
    shards: Vec<ShardState>,
    /// Next sequence number to assign (1-based).
    next_seq: u64,
    /// Total records appended or recovered.
    records_total: u64,
}

/// Which shard a vote lands in: FNV-1a of the example id, mod shard count.
/// The non-zero type makes the modulo well-defined without a runtime mask.
pub fn shard_of(example: u64, shards: NonZeroU32) -> u32 {
    (fnv1a(&example.to_le_bytes()) % u64::from(shards.get())) as u32
}

impl ShardedWal {
    /// Opens (creating if needed) a WAL directory, replaying and repairing
    /// every shard. Returns the WAL positioned for appends plus everything
    /// the replay recovered.
    pub fn open(config: WalConfig) -> Result<(ShardedWal, WalReplay)> {
        fs::create_dir_all(&config.dir)
            .map_err(|e| LabelError::io(&config.dir, "create dir", e))?;
        let (replay, shards) = replay_dir(&config, true)?;
        let wal = ShardedWal {
            shards,
            next_seq: replay.high_water + 1,
            records_total: replay.records.len() as u64,
            config,
        };
        Ok((wal, replay))
    }

    /// The WAL shape.
    pub fn config(&self) -> &WalConfig {
        &self.config
    }

    /// Largest sequence number acked so far (0 when empty).
    pub fn high_water(&self) -> u64 {
        self.next_seq - 1
    }

    /// Total records appended or recovered over this WAL's lifetime.
    pub fn records_total(&self) -> u64 {
        self.records_total
    }

    /// Raises the next sequence number to at least `floor_seq + 1`. Called
    /// after a compacted open: the deleted segments' sequence range lives on
    /// only in the confidence snapshot, so the replayed high-water mark can
    /// undercount and fresh appends must never reuse a compacted sequence.
    pub fn raise_seq_floor(&mut self, floor_seq: u64) {
        self.next_seq = self.next_seq.max(floor_seq + 1);
    }

    /// Assigns the next sequence number and durably appends the vote: the
    /// record line is written and fsynced before this returns, so an acked
    /// vote survives `kill -9`. Rotation seals the outgoing segment with an
    /// atomic rewrite first.
    pub fn append(&mut self, vote: Vote) -> Result<VoteRecord> {
        let shard = shard_of(vote.example, self.config.shards);
        let seq = self.next_seq;
        let record = VoteRecord {
            seq,
            example: vote.example,
            worker: vote.worker,
            label: vote.label,
            session: vote.session,
            request: vote.request,
        };

        let state =
            self.shards
                .get(shard as usize)
                .cloned()
                .ok_or_else(|| LabelError::Corrupt {
                    reason: format!("shard {shard} out of range"),
                })?;
        let (segment, records_in) = match state.active_segment {
            Some(seg) if state.active_records >= self.config.segment_records.get() => {
                self.seal_segment(shard, seg)?;
                let next = seg + 1;
                self.create_segment(shard, next, seq)?;
                (next, 0)
            }
            Some(seg) => (seg, state.active_records),
            None => {
                self.create_segment(shard, 0, seq)?;
                (0, 0)
            }
        };

        let mut line = Vec::with_capacity(128);
        push_record_line(&record, &mut line);
        let path = self.config.segment_path(shard, segment);
        let mut file = fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| LabelError::io(&path, "append open", e))?;
        file.write_all(&line)
            .map_err(|e| LabelError::io(&path, "append", e))?;
        // Durable-before-acked: the caller only tracks (and responds to) the
        // vote after this fsync, so replay-after-crash is always a superset
        // of the acked confidence state.
        file.sync_data()
            .map_err(|e| LabelError::io(&path, "fsync", e))?;

        if let Some(state) = self.shards.get_mut(shard as usize) {
            state.active_segment = Some(segment);
            state.active_records = records_in + 1;
        }
        self.next_seq += 1;
        self.records_total += 1;
        Ok(record)
    }

    /// Writes a fresh unsealed segment file containing only its header.
    fn create_segment(&self, shard: u32, segment: u64, base_seq: u64) -> Result<()> {
        let path = self.config.segment_path(shard, segment);
        let header = SegmentHeader::open(shard, segment, base_seq);
        write_segment(&path, header, b"", "create")
    }

    /// Seals a full segment: atomically rewrites it with `sealed: true`, the
    /// final record count, and a whole-payload checksum.
    fn seal_segment(&self, shard: u32, segment: u64) -> Result<()> {
        let path = self.config.segment_path(shard, segment);
        let bytes = fs::read(&path).map_err(|e| LabelError::io(&path, "read", e))?;
        let (mut header, payload) =
            open_header::<SegmentHeader>(&bytes).map_err(|e| LabelError::Corrupt {
                reason: format!("sealing {}: {e}", path.display()),
            })?;
        header.sealed = true;
        header.records = payload_line_count(payload);
        write_segment(&path, header, payload, "seal")
    }
}

/// Seals `header` over `payload` and atomically writes the segment.
fn write_segment(
    path: &Path,
    header: SegmentHeader,
    payload: &[u8],
    op: &'static str,
) -> Result<()> {
    let bytes = seal_bytes(header, payload).map_err(|e| LabelError::Corrupt {
        reason: format!("segment {}: {e}", path.display()),
    })?;
    atomic_write(path, &bytes).map_err(|e| LabelError::io(path, op, e))
}

fn payload_line_count(payload: &[u8]) -> u64 {
    payload.iter().filter(|&&b| b == b'\n').count() as u64
}

/// Record lines of a segment file: every line after the header line.
fn record_lines(bytes: &[u8]) -> u64 {
    payload_line_count(bytes).saturating_sub(1)
}

/// Replays the whole WAL directory **without repairing anything**. Safe to
/// run concurrently with a live appender: segments are append-only, so every
/// record below an already-observed high-water mark is immutable, and a torn
/// in-flight tail merely ends the scan of its shard.
pub fn replay_read_only(config: &WalConfig) -> Result<WalReplay> {
    replay_dir(config, false).map(|(replay, _)| replay)
}

/// Scans all shards, optionally repairing (truncate + quarantine) in place,
/// and returns the replay plus each shard's append state after it.
///
/// Each shard's records are strictly increasing (`scan_records` enforces
/// it), so the shard vectors concatenated in shard order are sorted runs: a
/// stable sort by `seq` merges them, and a duplicate `seq` can only sit in
/// two adjacent slots, the earlier shard's first.
fn replay_dir(config: &WalConfig, repair: bool) -> Result<(WalReplay, Vec<ShardState>)> {
    let mut replay = WalReplay::default();
    let mut shards = Vec::with_capacity(config.shards.get() as usize);
    for shard in 0..config.shards.get() {
        shards.push(replay_shard(config, shard, repair, &mut replay)?);
    }
    replay.records.sort_by_key(|rec| rec.seq);
    if let Some(pair) = replay.records.windows(2).find(|w| w[0].seq == w[1].seq) {
        return Err(LabelError::Corrupt {
            reason: format!(
                "sequence {} recovered twice (examples {} and {}): cross-shard \
                 seq assignment must be unique",
                pair[1].seq, pair[0].example, pair[1].example
            ),
        });
    }
    replay.high_water = replay.records.last().map_or(0, |rec| rec.seq);
    Ok((replay, shards))
}

/// Replays one shard's segment chain in order into `replay.records`,
/// stopping (and in repair mode truncating + quarantining) at the first bad
/// record. Returns the shard's last live segment and its record count.
fn replay_shard(
    config: &WalConfig,
    shard: u32,
    repair: bool,
    replay: &mut WalReplay,
) -> Result<ShardState> {
    let segments = list_segments(config, shard)?;
    let mut state = ShardState::default();
    let mut last_seq: u64 = 0;
    let mut expected_segment: Option<u64> = None;
    for (idx, &(segment, ref path)) in segments.iter().enumerate() {
        if let Some(expected) = expected_segment {
            if segment != expected {
                replay.corruptions.push(Corruption {
                    shard,
                    segment,
                    file: path.display().to_string(),
                    record_index: 0,
                    kind: CorruptionKind::MissingSegment,
                    detail: format!("expected segment {expected}, found {segment}"),
                    dropped_records: 0,
                });
                if repair {
                    quarantine(shard, &segments[idx..], replay)?;
                }
                return Ok(state);
            }
        }
        expected_segment = Some(segment + 1);
        replay.segments_read += 1;

        let start = replay.records.len();
        let scan = scan_segment(path, shard, segment, last_seq, &mut replay.records)?;
        let verified = &replay.records[start..];
        if let Some(last) = verified.last() {
            last_seq = last.seq;
        }
        // Repair leaves exactly the verified records in this segment.
        state = ShardState {
            active_segment: Some(segment),
            active_records: verified.len() as u64,
        };
        if let Some(corruption) = scan.corruption {
            replay.dropped_records += corruption.dropped_records;
            // A metadata-only fault leaves every record line verified: repair
            // re-seals the segment with corrected metadata and the scan goes
            // on. Any other fault truncates the segment to its good prefix
            // and drops everything after it in this shard.
            let metadata_only = corruption.kind == CorruptionKind::SealedMetadataMismatch;
            replay.corruptions.push(corruption);
            if repair {
                let verified = &replay.records[start..];
                rewrite_segment(path, shard, segment, verified, metadata_only)?;
                if !metadata_only {
                    quarantine(shard, &segments[idx + 1..], replay)?;
                }
            }
            if !metadata_only {
                return Ok(state);
            }
        }
    }
    Ok(state)
}

/// Result of scanning one segment file (its verified records went onto the
/// caller's vector): sealed or not, its byte length, and the first fault.
struct SegmentScan {
    sealed: bool,
    bytes: u64,
    corruption: Option<Corruption>,
}

fn scan_segment(
    path: &Path,
    shard: u32,
    segment: u64,
    last_seq: u64,
    records: &mut Vec<VoteRecord>,
) -> Result<SegmentScan> {
    let bytes = fs::read(path).map_err(|e| LabelError::io(path, "read", e))?;
    let fault = |index: u64, kind: CorruptionKind, detail: String, dropped: u64| Corruption {
        shard,
        segment,
        file: path.display().to_string(),
        record_index: index,
        kind,
        detail,
        dropped_records: dropped,
    };
    let scan = |sealed, corruption| SegmentScan {
        sealed,
        bytes: bytes.len() as u64,
        corruption,
    };

    let detail = match open_header::<SegmentHeader>(&bytes) {
        Ok((header, _)) if header.shard != shard || header.segment != segment => format!(
            "header (shard {}/seg {}) disagrees with file {}",
            header.shard,
            header.segment,
            path.display()
        ),
        Ok((header, payload)) => {
            let start = records.len();
            let (payload_fnv1a, mut corruption) = scan_records(payload, last_seq, records, &fault);
            let count = (records.len() - start) as u64;
            if corruption.is_none() && header.sealed {
                let checksum_ok =
                    verify_payload(&header, payload.len() as u64, payload_fnv1a).is_ok();
                let detail = format!(
                    "sealed header claims {} records / checksum {:016x}, payload has {count}",
                    header.records, header.payload_fnv1a
                );
                corruption = if count < header.records && !checksum_ok {
                    let (kind, lost) =
                        (CorruptionKind::SealedRecordsMissing, header.records - count);
                    Some(fault(count, kind, detail, lost))
                } else if count != header.records || !checksum_ok {
                    Some(fault(0, CorruptionKind::SealedMetadataMismatch, detail, 0))
                } else {
                    None
                };
            }
            return Ok(scan(header.sealed, corruption));
        }
        Err(e) => e.to_string(),
    };
    let corruption = fault(0, CorruptionKind::BadHeader, detail, record_lines(&bytes));
    Ok(scan(false, Some(corruption)))
}

/// Scans a segment's record lines up to the first fault, appending each
/// verified record to `records`. One pass hashes every byte for both
/// checksums: each line's JSON for its own, and the whole payload for a
/// sealed header's, returned with the fault (the hash of the whole payload
/// only when there is none). `fault` builds a finding from
/// `(record_index, kind, detail, dropped_records)`.
fn scan_records(
    payload: &[u8],
    mut last_seq: u64,
    records: &mut Vec<VoteRecord>,
    fault: &impl Fn(u64, CorruptionKind, String, u64) -> Corruption,
) -> (u64, Option<Corruption>) {
    let mut whole = Fnv1a::default();
    for (index, line) in (0u64..).zip(payload.split_inclusive(|&b| b == b'\n')) {
        let parsed = match line.strip_suffix(b"\n") {
            // No trailing newline: a torn in-flight append.
            None => Err((
                CorruptionKind::TornTail,
                format!("{} trailing bytes with no newline", line.len()),
            )),
            Some(line) => parse_record_line(line, &mut whole).and_then(|rec| {
                if rec.seq > last_seq {
                    Ok(rec)
                } else {
                    let detail = format!("seq {} after {last_seq}", rec.seq);
                    Err((CorruptionKind::NonMonotoneSeq, detail))
                }
            }),
        };
        match parsed {
            Ok(rec) => {
                last_seq = rec.seq;
                records.push(rec);
                whole.write(b"\n");
            }
            // The lines left (`dropped_records`; a torn tail is one) are
            // counted only on a fault: counting them per record made replay
            // quadratic in segment length.
            Err((kind, detail)) => {
                let dropped = payload_line_count(payload).saturating_sub(index).max(1);
                return (whole.finish(), Some(fault(index, kind, detail, dropped)));
            }
        }
    }
    (whole.finish(), None)
}

/// Appends `record`'s JSON to `out` in the one form the log writes (see the
/// module doc's record grammar). The bytes equal `serde_json::to_string`'s.
pub fn encode_record(record: &VoteRecord, out: &mut Vec<u8>) {
    out.extend_from_slice(b"{\"seq\":");
    push_uint(out, record.seq);
    out.extend_from_slice(b",\"example\":");
    push_uint(out, record.example);
    out.extend_from_slice(b",\"worker\":");
    push_uint(out, u64::from(record.worker));
    out.extend_from_slice(b",\"label\":");
    push_uint(out, u64::from(record.label));
    for (name, half) in [
        (&b",\"session\":"[..], record.session),
        (b",\"request\":", record.request),
    ] {
        out.extend_from_slice(name);
        match half {
            Some(value) => push_uint(out, value),
            None => out.extend_from_slice(b"null"),
        }
    }
    out.push(b'}');
}

/// Decodes one record's JSON in the module doc's grammar, without
/// allocating. Anything else is an error naming the byte where decoding
/// stopped; replay reports it as [`CorruptionKind::MalformedRecord`].
pub fn decode_record(json: &[u8]) -> std::result::Result<VoteRecord, String> {
    let mut rest = json;
    decode_fields(&mut rest).ok_or_else(|| {
        let at = json.len() - rest.len();
        format!("not a canonical vote record: decoding stopped at byte {at}")
    })
}

/// [`decode_record`]'s grammar, consuming `rest` as it goes.
fn decode_fields(rest: &mut &[u8]) -> Option<VoteRecord> {
    let seq = uint_field(rest, b"{\"seq\":")?;
    let example = uint_field(rest, b",\"example\":")?;
    let worker = u32::try_from(uint_field(rest, b",\"worker\":")?).ok()?;
    let label = u8::try_from(uint_field(rest, b",\"label\":")?).ok()?;
    let (session, request) = if rest.starts_with(b"}") {
        (None, None)
    } else {
        (
            nullable_field(rest, b",\"session\":")?,
            nullable_field(rest, b",\"request\":")?,
        )
    };
    *rest = rest.strip_prefix(b"}")?;
    rest.is_empty().then_some(VoteRecord {
        seq,
        example,
        worker,
        label,
        session,
        request,
    })
}

fn uint_field(rest: &mut &[u8], prefix: &[u8]) -> Option<u64> {
    *rest = rest.strip_prefix(prefix)?;
    take_uint(rest)
}

fn nullable_field(rest: &mut &[u8], prefix: &[u8]) -> Option<Option<u64>> {
    *rest = rest.strip_prefix(prefix)?;
    match rest.strip_prefix(b"null") {
        Some(after) => {
            *rest = after;
            Some(None)
        }
        None => take_uint(rest).map(Some),
    }
}

/// Appends `value` in decimal.
fn push_uint(out: &mut Vec<u8>, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

/// Takes a decimal `u64` off the front of `rest`: `0`, or a non-zero digit
/// and more digits. `None` (leaving `rest` as it was) when there is no
/// digit, on a leading zero, or on overflow.
fn take_uint(rest: &mut &[u8]) -> Option<u64> {
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    if digits == 0 || (digits > 1 && rest[0] == b'0') {
        return None;
    }
    let mut value = 0u64;
    for &digit in &rest[..digits] {
        value = value
            .checked_mul(10)?
            .checked_add(u64::from(digit - b'0'))?;
    }
    *rest = &rest[digits..];
    Some(value)
}

/// Appends one `"<fnv1a-hex> <json>\n"` record line to `out`.
fn push_record_line(record: &VoteRecord, out: &mut Vec<u8>) {
    let mut json = Vec::with_capacity(96);
    encode_record(record, &mut json);
    out.extend_from_slice(format!("{:016x} ", fnv1a(&json)).as_bytes());
    out.extend_from_slice(&json);
    out.push(b'\n');
}

/// Parses one `"<fnv1a-hex> <json>"` record line, feeding its bytes to the
/// running payload hash `whole` once its checksum literal has parsed.
fn parse_record_line(
    line: &[u8],
    whole: &mut Fnv1a,
) -> std::result::Result<VoteRecord, (CorruptionKind, String)> {
    let text = std::str::from_utf8(line)
        .map_err(|_| (CorruptionKind::MalformedRecord, "not UTF-8".to_string()))?;
    let Some((hex, json)) = text.split_once(' ') else {
        return Err((
            CorruptionKind::MalformedRecord,
            "no checksum separator".to_string(),
        ));
    };
    let expected = u64::from_str_radix(hex, 16).map_err(|_| {
        (
            CorruptionKind::MalformedRecord,
            format!("bad checksum literal {hex:?}"),
        )
    })?;
    whole.write(&line[..=hex.len()]);
    let actual = whole.write_and_hash(json.as_bytes());
    if expected != actual {
        return Err((
            CorruptionKind::ChecksumMismatch,
            format!("expected {expected:016x}, computed {actual:016x}"),
        ));
    }
    decode_record(json.as_bytes()).map_err(|detail| (CorruptionKind::MalformedRecord, detail))
}

/// Atomically rewrites a segment as header + the given verified records.
fn rewrite_segment(
    path: &Path,
    shard: u32,
    segment: u64,
    records: &[VoteRecord],
    sealed: bool,
) -> Result<()> {
    let mut payload = Vec::with_capacity(records.len() * 96);
    for record in records {
        push_record_line(record, &mut payload);
    }
    let mut header = SegmentHeader::open(shard, segment, records.first().map_or(0, |r| r.seq));
    if sealed {
        header.sealed = true;
        header.records = records.len() as u64;
    }
    write_segment(path, header, &payload, "rewrite")
}

/// Renames dropped segments out of the chain so replay never resurrects
/// records past a truncation point.
fn quarantine(shard: u32, segments: &[(u64, PathBuf)], replay: &mut WalReplay) -> Result<()> {
    for (segment, path) in segments {
        let dropped = fs::read(path).map_or(0, |bytes| record_lines(&bytes));
        replay.dropped_records += dropped;
        let mut target = path.clone().into_os_string();
        target.push(".");
        target.push(QUARANTINE_SUFFIX);
        fs::rename(path, &target).map_err(|e| LabelError::io(path, "quarantine", e))?;
        replay.corruptions.push(Corruption {
            shard,
            segment: *segment,
            file: path.display().to_string(),
            record_index: 0,
            kind: CorruptionKind::Quarantined,
            detail: format!("quarantined after upstream truncation ({dropped} records)"),
            dropped_records: dropped,
        });
    }
    Ok(())
}

/// One sealed segment whose records all sit at or below a compaction target.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactableSegment {
    pub shard: u32,
    pub segment: u64,
    pub path: PathBuf,
    /// Verified record-line count.
    pub records: u64,
    /// On-disk size in bytes.
    pub bytes: u64,
}

/// Finds the segments a compaction at `target_seq` may delete: per shard, the
/// longest *prefix* of the segment chain in which every segment is sealed,
/// verifies cleanly, and contains only records with `seq <= target_seq`.
///
/// The prefix rule is what keeps an interrupted deletion recoverable: covered
/// segments are removed in ascending order, so a crash part-way leaves each
/// shard's chain with (at most) a leading gap — which replay treats as an
/// already-compacted prefix, never as a [`CorruptionKind::MissingSegment`]
/// mid-chain fault. Any corruption stops the prefix for that shard;
/// compaction never repairs, that stays [`ShardedWal::open`]'s job.
pub fn compactable_segments(
    config: &WalConfig,
    target_seq: u64,
) -> Result<Vec<CompactableSegment>> {
    let mut out = Vec::new();
    for shard in 0..config.shards.get() {
        let segments = list_segments(config, shard)?;
        let mut last_seq = 0u64;
        let mut expected: Option<u64> = None;
        let mut records = Vec::new();
        for &(segment, ref path) in &segments {
            if expected.is_some_and(|e| segment != e) {
                break; // mid-chain gap: leave it for open()'s repair
            }
            expected = Some(segment + 1);
            records.clear();
            let scan = scan_segment(path, shard, segment, last_seq, &mut records)?;
            if scan.corruption.is_some() || !scan.sealed {
                break;
            }
            if let Some(last) = records.last() {
                last_seq = last.seq;
            }
            if last_seq > target_seq {
                break;
            }
            out.push(CompactableSegment {
                shard,
                segment,
                path: path.clone(),
                records: records.len() as u64,
                bytes: scan.bytes,
            });
        }
    }
    Ok(out)
}

/// Total on-disk bytes of the WAL's live (non-quarantined) segment files.
pub fn wal_dir_bytes(config: &WalConfig) -> Result<u64> {
    let mut total = 0u64;
    for shard in 0..config.shards.get() {
        for (_, path) in list_segments(config, shard)? {
            total += fs::metadata(&path)
                .map_err(|e| LabelError::io(&path, "stat", e))?
                .len();
        }
    }
    Ok(total)
}

/// Lists a shard's segment files sorted by segment index.
fn list_segments(config: &WalConfig, shard: u32) -> Result<Vec<(u64, PathBuf)>> {
    let prefix = format!("shard{shard:04}-seg");
    let mut out: Vec<(u64, PathBuf)> = Vec::new();
    let entries =
        fs::read_dir(&config.dir).map_err(|e| LabelError::io(&config.dir, "read dir", e))?;
    for entry in entries {
        let entry = entry.map_err(|e| LabelError::io(&config.dir, "read dir", e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix(&prefix) else {
            continue;
        };
        let Some(index_str) = rest.strip_suffix(".rllwal") else {
            continue;
        };
        let Ok(index) = index_str.parse::<u64>() else {
            continue;
        };
        out.push((index, entry.path()));
    }
    out.sort_by_key(|&(index, _)| index);
    Ok(out)
}
