//! The one codec for every sealed file in the workspace: `.rllckpt`
//! checkpoints (`rll-serve`), `.rllstate` training state ([`crate::state`]),
//! and the `confidence.rllsnap` snapshot and `.rllwal` segments of
//! `rll-label`. All four are `<header JSON, one line>\n<payload>`.
//!
//! Each format keeps its own header struct, so its JSON field order never
//! moves, and implements [`SealedHeader`]. [`seal`]/[`seal_bytes`] stamp the
//! payload's length and FNV-1a checksum into the header. [`open`] checks in
//! one fixed order and stops at the first typed [`SnapshotError`]:
//!
//! 1. split at the first newline, header UTF-8 → `Malformed`;
//! 2. header JSON, then magic → `Malformed`; version → `Version`;
//! 3. payload length (if recorded) and checksum → `Checksum` (truncation);
//! 4. payload UTF-8 JSON, parsed from the input slice → `Malformed`.
//!
//! [`open_header`] is steps 1–2 and [`verify_payload`] step 3, for the WAL:
//! an open segment has no checksum, and a sealed one is checked after its
//! record lines, against the hash the scan of those lines took.
//! [`atomic_write`] is the crash-safe writer for all four, and [`sync_dir`]
//! makes a directory's changed entries durable.

use rll_tensor::hash::fnv1a;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Why a sealed file could not be opened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Structurally unreadable: no separator, header or payload not UTF-8
    /// or not the expected JSON, or a foreign magic string.
    Malformed {
        /// Human-readable description.
        reason: String,
    },
    /// Written by a format version this build does not read.
    Version {
        /// Version found in the header.
        found: u32,
        /// The only version this build reads and writes.
        supported: u32,
    },
    /// The payload's length or FNV-1a checksum disagrees with the header:
    /// the file is corrupted or truncated.
    Checksum {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes actually present.
        actual: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Malformed { reason } => write!(f, "malformed: {reason}"),
            SnapshotError::Version { found, supported } => write!(
                f,
                "format version {found} is not supported (this build reads v{supported})"
            ),
            SnapshotError::Checksum { expected, actual } => write!(
                f,
                "checksum mismatch: header says {expected:#018x}, payload hashes to \
                 {actual:#018x} (file corrupted or truncated)"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn malformed(reason: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed {
        reason: reason.into(),
    }
}

/// The header line of one sealed-file format.
pub trait SealedHeader: Serialize + Deserialize {
    /// Magic string every header of this format carries.
    const MAGIC: &'static str;
    /// The format version this build writes and the only one it reads.
    const VERSION: u32;
    /// The magic string and format version this header carries.
    fn id(&self) -> (&str, u32);
    /// The payload byte length (`None` for a format that records none) and
    /// FNV-1a checksum this header promises.
    fn promised(&self) -> (Option<u64>, u64);
    /// Records the payload's byte length and checksum before sealing.
    fn stamp(&mut self, len: u64, fnv1a: u64);
}

/// Seals a serializable payload: its compact JSON becomes the payload bytes.
pub fn seal<H: SealedHeader, P: Serialize + ?Sized>(
    header: H,
    payload: &P,
) -> Result<Vec<u8>, SnapshotError> {
    let json = serde_json::to_string(payload)
        .map_err(|e| malformed(format!("cannot serialize {} payload: {e}", H::MAGIC)))?;
    seal_bytes(header, json.as_bytes())
}

/// Seals raw payload bytes: stamps their length and checksum into `header`
/// and joins header line and payload.
pub fn seal_bytes<H: SealedHeader>(
    mut header: H,
    payload: &[u8],
) -> Result<Vec<u8>, SnapshotError> {
    header.stamp(payload.len() as u64, fnv1a(payload));
    let header_json = serde_json::to_string(&header)
        .map_err(|e| malformed(format!("cannot serialize {} header: {e}", H::MAGIC)))?;
    Ok([header_json.as_bytes(), b"\n", payload].concat())
}

/// Steps 1–2 of [`open`]: splits the envelope, parses the header, and checks
/// magic and version. Returns the header and the raw, unverified payload.
pub fn open_header<H: SealedHeader>(bytes: &[u8]) -> Result<(H, &[u8]), SnapshotError> {
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| malformed("no header/payload separator (expected a newline)"))?;
    let header_str =
        std::str::from_utf8(&bytes[..newline]).map_err(|_| malformed("header is not UTF-8"))?;
    let header: H = serde_json::from_str(header_str)
        .map_err(|e| malformed(format!("header is not valid JSON: {e}")))?;
    let (magic, version) = header.id();
    if magic != H::MAGIC {
        return Err(malformed(format!(
            "bad magic {magic:?} (expected {:?})",
            H::MAGIC
        )));
    }
    if version != H::VERSION {
        return Err(SnapshotError::Version {
            found: version,
            supported: H::VERSION,
        });
    }
    Ok((header, &bytes[newline + 1..]))
}

/// Step 3 of [`open`]: the payload's byte length (when recorded) and FNV-1a
/// checksum, as the caller measured them, must be what the header promises.
/// The caller hashes, so a reader that walks the payload anyway (the WAL
/// scan) can hash it on the same pass.
pub fn verify_payload<H: SealedHeader>(
    header: &H,
    payload_len: u64,
    actual: u64,
) -> Result<(), SnapshotError> {
    let (len, expected) = header.promised();
    if len.is_some_and(|len| len != payload_len) || actual != expected {
        return Err(SnapshotError::Checksum { expected, actual });
    }
    Ok(())
}

/// Opens a sealed file: every step of the validation order, then the
/// payload parsed as JSON straight from `bytes`.
pub fn open<H: SealedHeader, P: Deserialize>(bytes: &[u8]) -> Result<(H, P), SnapshotError> {
    let (header, payload) = open_header::<H>(bytes)?;
    verify_payload(&header, payload.len() as u64, fnv1a(payload))?;
    let payload_str =
        std::str::from_utf8(payload).map_err(|_| malformed("payload is not UTF-8"))?;
    let payload = serde_json::from_str(payload_str)
        .map_err(|e| malformed(format!("payload is not valid JSON: {e}")))?;
    Ok((header, payload))
}

/// Crash-safe file write: readers of `path` observe either the previous
/// content or the complete new content, never a torn prefix.
///
/// The bytes go to a same-directory temporary file, are fsynced, and the
/// temporary is renamed over `path` — rename within one filesystem is atomic
/// on POSIX. A crash mid-write leaves at worst a stale `.tmp.<pid>` sibling,
/// never a truncated snapshot, which is what lets training resume trust any
/// `.rllstate` it finds (the checksum then catches on-disk bit rot). The
/// parent directory is fsynced after the rename, so a power cut cannot lose
/// the new entry once this returns.
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let file_name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("atomic_write target {} has no file name", path.display()),
        )
    })?;
    let dir: PathBuf = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    // The pid suffix keeps concurrent writers from clobbering each other's
    // temporaries; the final rename still serializes on the target name.
    let tmp = dir.join(format!(
        ".{}.tmp.{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    let write_result = (|| {
        // lint: allow(no-nonatomic-write) — this IS the atomic writer; the
        // create targets the private temporary, not the published path.
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        // Flush file content to stable storage *before* the rename publishes
        // it; otherwise a crash could expose a complete-looking empty file.
        file.sync_all()?;
        fs::rename(&tmp, path)?;
        sync_dir(&dir)
    })();
    if write_result.is_err() {
        // Best-effort cleanup; the original error is the one worth reporting.
        let _ = fs::remove_file(&tmp);
    }
    write_result
}

/// fsyncs directory `dir`, so the entries a create, rename or delete changed
/// in it survive a power cut (a file's own fsync does not cover its name).
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_replaces_content_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join("rll_core_atomic_write_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer content").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second, longer content");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "stale temporaries: {leftovers:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_rejects_pathological_targets() {
        assert!(atomic_write(Path::new("/"), b"x").is_err());
        // Missing parent directory: the temp-file create fails cleanly.
        let missing = std::env::temp_dir()
            .join("rll_core_atomic_write_test_missing")
            .join("nested")
            .join("snap.bin");
        assert!(atomic_write(&missing, b"x").is_err());
    }
}
