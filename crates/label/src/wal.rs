//! Sharded, checksummed write-ahead log for crowd votes.
//!
//! ## On-disk layout
//!
//! A WAL directory holds flat segment files named
//! `shard<SSSS>-seg<NNNNNNNN>.rllwal`. Each segment reuses the workspace
//! envelope layout ([`rll_core::snapshot`]): a one-line JSON header followed
//! by the payload — here a sequence of *record lines*:
//!
//! ```text
//! {"magic":"RLLWAL","version":1,"shard":0,"segment":0,...}\n
//! <fnv1a-hex-16> {"seq":1,"example":4,"worker":0,"label":1}\n
//! <fnv1a-hex-16> {"seq":3,"example":9,"worker":2,"label":0}\n
//! ```
//!
//! Every record line carries its own FNV-1a checksum over the JSON bytes, so
//! a torn tail (the crash mode of an append-only file) or a flipped bit is
//! detected at the exact record. The *active* (last) segment of a shard is
//! appended in place and fsynced per record — acked votes are durable; on
//! rotation the segment is *sealed*: atomically rewritten with
//! `sealed: true`, the final record count, and a whole-payload checksum.
//!
//! ## Recovery semantics
//!
//! [`ShardedWal::open`] replays every shard and repairs in place: the first
//! bad record in a shard truncates that shard there (the file is atomically
//! rewritten with the good prefix; later segments are quarantined, never
//! silently reused). Each repair is reported as a typed [`Corruption`] in
//! the [`WalReplay`] — recovery degrades, it does not fail. Votes are
//! assigned one **globally monotone** sequence number under the store's
//! `wal` lock, so the cross-shard merge by `seq` reproduces the exact
//! ingestion order deterministically.

use std::fs;
use std::io::Write as _;
use std::num::{NonZeroU32, NonZeroU64};
use std::path::{Path, PathBuf};

use rll_core::snapshot::{atomic_write, split_envelope};
use rll_tensor::hash::fnv1a;
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
    /// with its (individually verified) record lines.
    SealedMetadataMismatch,
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

/// Append state of one shard.
#[derive(Debug, Clone)]
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
        let replay = replay_dir(&config, true)?;
        let mut shards = Vec::with_capacity(config.shards.get() as usize);
        for shard in 0..config.shards.get() {
            let segs = list_segments(&config, shard)?;
            match segs.last() {
                Some(&(segment, _)) => {
                    let records = count_records(&config.segment_path(shard, segment))?;
                    shards.push(ShardState {
                        active_segment: Some(segment),
                        active_records: records,
                    });
                }
                None => shards.push(ShardState {
                    active_segment: None,
                    active_records: 0,
                }),
            }
        }
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

        let json = serde_json::to_string(&record).map_err(|e| LabelError::Corrupt {
            reason: format!("vote record serialization failed: {e}"),
        })?;
        let line = format!("{:016x} {json}\n", fnv1a(json.as_bytes()));
        let path = self.config.segment_path(shard, segment);
        let mut file = fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| LabelError::io(&path, "append open", e))?;
        file.write_all(line.as_bytes())
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
        let header = SegmentHeader {
            magic: WAL_MAGIC.to_string(),
            version: WAL_VERSION,
            shard,
            segment,
            base_seq,
            sealed: false,
            records: 0,
            payload_fnv1a: 0,
        };
        let path = self.config.segment_path(shard, segment);
        let bytes = header_line(&header)?;
        atomic_write(&path, bytes.as_bytes()).map_err(|e| LabelError::io(&path, "create", e))
    }

    /// Seals a full segment: atomically rewrites it with `sealed: true`, the
    /// final record count, and a whole-payload checksum.
    fn seal_segment(&self, shard: u32, segment: u64) -> Result<()> {
        let path = self.config.segment_path(shard, segment);
        let bytes = fs::read(&path).map_err(|e| LabelError::io(&path, "read", e))?;
        let (header_str, payload) = split_envelope(&bytes).map_err(|e| LabelError::Corrupt {
            reason: format!("sealing {}: {e}", path.display()),
        })?;
        let mut header: SegmentHeader =
            serde_json::from_str(header_str).map_err(|e| LabelError::Corrupt {
                reason: format!("sealing {}: bad header: {e}", path.display()),
            })?;
        header.sealed = true;
        header.records = payload_line_count(payload);
        header.payload_fnv1a = fnv1a(payload);
        let mut out = header_line(&header)?.into_bytes();
        out.extend_from_slice(payload);
        atomic_write(&path, &out).map_err(|e| LabelError::io(&path, "seal", e))
    }
}

fn header_line(header: &SegmentHeader) -> Result<String> {
    let json = serde_json::to_string(header).map_err(|e| LabelError::Corrupt {
        reason: format!("segment header serialization failed: {e}"),
    })?;
    Ok(format!("{json}\n"))
}

fn payload_line_count(payload: &[u8]) -> u64 {
    payload.iter().filter(|&&b| b == b'\n').count() as u64
}

/// Replays the whole WAL directory **without repairing anything**. Safe to
/// run concurrently with a live appender: segments are append-only, so every
/// record below an already-observed high-water mark is immutable, and a torn
/// in-flight tail merely ends the scan of its shard.
pub fn replay_read_only(config: &WalConfig) -> Result<WalReplay> {
    replay_dir(config, false)
}

/// Scans all shards, optionally repairing (truncate + quarantine) in place.
fn replay_dir(config: &WalConfig, repair: bool) -> Result<WalReplay> {
    let mut replay = WalReplay::default();
    let mut merged: std::collections::BTreeMap<u64, VoteRecord> = std::collections::BTreeMap::new();
    for shard in 0..config.shards.get() {
        let shard_records = replay_shard(config, shard, repair, &mut replay)?;
        for rec in shard_records {
            if let Some(previous) = merged.insert(rec.seq, rec) {
                return Err(LabelError::Corrupt {
                    reason: format!(
                        "sequence {} recovered twice (examples {} and {}): cross-shard \
                         seq assignment must be unique",
                        rec.seq, previous.example, rec.example
                    ),
                });
            }
        }
    }
    replay.high_water = merged.keys().next_back().copied().unwrap_or(0);
    replay.records = merged.into_values().collect();
    Ok(replay)
}

/// Replays one shard's segment chain in order, stopping (and in repair mode
/// truncating + quarantining) at the first bad record.
fn replay_shard(
    config: &WalConfig,
    shard: u32,
    repair: bool,
    replay: &mut WalReplay,
) -> Result<Vec<VoteRecord>> {
    let segments = list_segments(config, shard)?;
    let mut records: Vec<VoteRecord> = Vec::new();
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
                return Ok(records);
            }
        }
        expected_segment = Some(segment + 1);
        replay.segments_read += 1;

        let scan = scan_segment(path, shard, segment, last_seq)?;
        records.extend(scan.records.iter().copied());
        if let Some(last) = scan.records.last() {
            last_seq = last.seq;
        }
        if let Some(corruption) = scan.corruption {
            replay.dropped_records += corruption.dropped_records;
            replay.corruptions.push(corruption.clone());
            if repair {
                match corruption.kind {
                    // Metadata-only fault with every record line verified:
                    // re-seal with corrected metadata, keep scanning.
                    CorruptionKind::SealedMetadataMismatch => {
                        rewrite_segment(path, shard, segment, &scan.records, true)?;
                        continue;
                    }
                    _ => {
                        // Truncate this segment to its good prefix and drop
                        // everything after it in this shard.
                        rewrite_segment(path, shard, segment, &scan.records, false)?;
                        quarantine(shard, &segments[idx + 1..], replay)?;
                        return Ok(records);
                    }
                }
            } else {
                match corruption.kind {
                    CorruptionKind::SealedMetadataMismatch => continue,
                    _ => return Ok(records),
                }
            }
        }
    }
    Ok(records)
}

/// Result of scanning one segment file: the verified record prefix and the
/// first fault, if any.
struct SegmentScan {
    records: Vec<VoteRecord>,
    corruption: Option<Corruption>,
}

fn scan_segment(path: &Path, shard: u32, segment: u64, mut last_seq: u64) -> Result<SegmentScan> {
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

    let (header_str, payload) = match split_envelope(&bytes) {
        Ok(parts) => parts,
        Err(e) => {
            return Ok(SegmentScan {
                records: Vec::new(),
                corruption: Some(fault(0, CorruptionKind::BadHeader, e.to_string(), 0)),
            })
        }
    };
    let header: SegmentHeader = match serde_json::from_str(header_str) {
        Ok(h) => h,
        Err(e) => {
            return Ok(SegmentScan {
                records: Vec::new(),
                corruption: Some(fault(
                    0,
                    CorruptionKind::BadHeader,
                    format!("unparseable header: {e}"),
                    payload_line_count(payload),
                )),
            })
        }
    };
    if header.magic != WAL_MAGIC
        || header.version != WAL_VERSION
        || header.shard != shard
        || header.segment != segment
    {
        return Ok(SegmentScan {
            records: Vec::new(),
            corruption: Some(fault(
                0,
                CorruptionKind::BadHeader,
                format!(
                    "header ({}/{}/shard {}/seg {}) disagrees with file {}",
                    header.magic,
                    header.version,
                    header.shard,
                    header.segment,
                    path.display()
                ),
                payload_line_count(payload),
            )),
        });
    }

    let mut records: Vec<VoteRecord> = Vec::new();
    let mut offset = 0usize;
    let mut index = 0u64;
    while offset < payload.len() {
        let rest = &payload[offset..];
        let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
            // No trailing newline: a torn in-flight append.
            return Ok(SegmentScan {
                records,
                corruption: Some(fault(
                    index,
                    CorruptionKind::TornTail,
                    format!("{} trailing bytes with no newline", rest.len()),
                    1,
                )),
            });
        };
        let line = &rest[..nl];
        // The lines left (`dropped_records`) are counted only on a fault:
        // counting them per record made replay quadratic in segment length.
        match parse_record_line(line) {
            Ok(rec) => {
                if rec.seq <= last_seq {
                    return Ok(SegmentScan {
                        records,
                        corruption: Some(fault(
                            index,
                            CorruptionKind::NonMonotoneSeq,
                            format!("seq {} after {}", rec.seq, last_seq),
                            payload_line_count(rest),
                        )),
                    });
                }
                last_seq = rec.seq;
                records.push(rec);
            }
            Err((kind, detail)) => {
                return Ok(SegmentScan {
                    records,
                    corruption: Some(fault(index, kind, detail, payload_line_count(rest))),
                });
            }
        }
        offset += nl + 1;
        index += 1;
    }

    if header.sealed {
        let count = records.len() as u64;
        if header.records != count || header.payload_fnv1a != fnv1a(payload) {
            return Ok(SegmentScan {
                records,
                corruption: Some(fault(
                    0,
                    CorruptionKind::SealedMetadataMismatch,
                    format!(
                        "sealed header claims {} records / checksum {:016x}, payload has {}",
                        header.records, header.payload_fnv1a, count
                    ),
                    0,
                )),
            });
        }
    }
    Ok(SegmentScan {
        records,
        corruption: None,
    })
}

/// Parses one `"<fnv1a-hex> <json>"` record line.
fn parse_record_line(line: &[u8]) -> std::result::Result<VoteRecord, (CorruptionKind, String)> {
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
    let actual = fnv1a(json.as_bytes());
    if expected != actual {
        return Err((
            CorruptionKind::ChecksumMismatch,
            format!("expected {expected:016x}, computed {actual:016x}"),
        ));
    }
    serde_json::from_str::<VoteRecord>(json)
        .map_err(|e| (CorruptionKind::MalformedRecord, format!("bad record: {e}")))
}

/// Atomically rewrites a segment as header + the given verified records.
fn rewrite_segment(
    path: &Path,
    shard: u32,
    segment: u64,
    records: &[VoteRecord],
    sealed: bool,
) -> Result<()> {
    let mut payload = String::new();
    for rec in records {
        let json = serde_json::to_string(rec).map_err(|e| LabelError::Corrupt {
            reason: format!("vote record serialization failed: {e}"),
        })?;
        payload.push_str(&format!("{:016x} {json}\n", fnv1a(json.as_bytes())));
    }
    let header = SegmentHeader {
        magic: WAL_MAGIC.to_string(),
        version: WAL_VERSION,
        shard,
        segment,
        base_seq: records.first().map(|r| r.seq).unwrap_or(0),
        sealed,
        records: if sealed { records.len() as u64 } else { 0 },
        payload_fnv1a: if sealed { fnv1a(payload.as_bytes()) } else { 0 },
    };
    let mut out = header_line(&header)?.into_bytes();
    out.extend_from_slice(payload.as_bytes());
    atomic_write(path, &out).map_err(|e| LabelError::io(path, "rewrite", e))
}

/// Renames dropped segments out of the chain so replay never resurrects
/// records past a truncation point.
fn quarantine(shard: u32, segments: &[(u64, PathBuf)], replay: &mut WalReplay) -> Result<()> {
    for (segment, path) in segments {
        let dropped = count_records(path).unwrap_or(0);
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

/// Record-line count of a segment file (0 on any read problem).
fn count_records(path: &Path) -> Result<u64> {
    let bytes = fs::read(path).map_err(|e| LabelError::io(path, "read", e))?;
    match split_envelope(&bytes) {
        Ok((_, payload)) => Ok(payload_line_count(payload)),
        Err(_) => Ok(0),
    }
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
        for &(segment, ref path) in &segments {
            if expected.is_some_and(|e| segment != e) {
                break; // mid-chain gap: leave it for open()'s repair
            }
            expected = Some(segment + 1);
            let bytes = fs::metadata(path)
                .map_err(|e| LabelError::io(path, "stat", e))?
                .len();
            let raw = fs::read(path).map_err(|e| LabelError::io(path, "read", e))?;
            let Ok((header_str, _)) = split_envelope(&raw) else {
                break;
            };
            let Ok(header) = serde_json::from_str::<SegmentHeader>(header_str) else {
                break;
            };
            if !header.sealed {
                break;
            }
            let scan = scan_segment(path, shard, segment, last_seq)?;
            if scan.corruption.is_some() {
                break;
            }
            if let Some(last) = scan.records.last() {
                last_seq = last.seq;
            }
            if last_seq > target_seq {
                break;
            }
            out.push(CompactableSegment {
                shard,
                segment,
                path: path.clone(),
                records: scan.records.len() as u64,
                bytes,
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
