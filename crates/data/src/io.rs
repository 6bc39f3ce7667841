//! Dataset persistence.
//!
//! Simulated datasets are cheap to regenerate from a seed, but persisting
//! them (a) freezes an exact corpus for cross-language comparisons and
//! (b) defines the on-disk schema a real `oral`/`class`-style corpus would
//! use to enter this pipeline: features + expert labels + the full
//! items × workers annotation table.

use crate::dataset::Dataset;
use crate::error::DataError;
use crate::Result;
use std::path::Path;

/// Serializes a dataset to pretty JSON.
pub fn to_json(dataset: &Dataset) -> Result<String> {
    serde_json::to_string_pretty(dataset).map_err(|e| DataError::InvalidConfig {
        reason: format!("serialization failed: {e}"),
    })
}

/// Parses a dataset from JSON and validates its invariants.
pub fn from_json(json: &str) -> Result<Dataset> {
    let ds: Dataset = serde_json::from_str(json).map_err(|e| DataError::InvalidConfig {
        reason: format!("deserialization failed: {e}"),
    })?;
    ds.validate()?;
    Ok(ds)
}

/// Writes a dataset to a JSON file, creating parent directories.
pub fn save(dataset: &Dataset, path: &Path) -> Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| DataError::InvalidConfig {
            reason: format!("cannot create {}: {e}", parent.display()),
        })?;
    }
    std::fs::write(path, to_json(dataset)?).map_err(|e| DataError::InvalidConfig {
        reason: format!("cannot write {}: {e}", path.display()),
    })
}

/// Loads and validates a dataset from a JSON file.
pub fn load(path: &Path) -> Result<Dataset> {
    let json = std::fs::read_to_string(path).map_err(|e| DataError::InvalidConfig {
        reason: format!("cannot read {}: {e}", path.display()),
    })?;
    from_json(&json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn json_round_trip_preserves_everything() {
        let ds = presets::oral_scaled(30, 1).unwrap();
        let json = to_json(&ds).unwrap();
        let back = from_json(&json).unwrap();
        assert_eq!(back.len(), ds.len());
        assert_eq!(back.expert_labels, ds.expert_labels);
        assert_eq!(back.annotations, ds.annotations);
        assert!(back.features.approx_eq(&ds.features, 1e-9));
        assert_eq!(back.latent_traits.len(), ds.latent_traits.len());
    }

    #[test]
    fn from_json_rejects_corrupt_data() {
        assert!(from_json("{").is_err());
        // Valid JSON but violated invariants (label count mismatch).
        let ds = presets::oral_scaled(10, 2).unwrap();
        let mut json = to_json(&ds).unwrap();
        json = json.replacen("\"expert_labels\": [", "\"expert_labels\": [0,", 1);
        assert!(from_json(&json).is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("rll_data_io_test");
        let path = dir.join("nested/oral.json");
        let _ = std::fs::remove_dir_all(&dir);
        let ds = presets::class_scaled(20, 3).unwrap();
        save(&ds, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.name, "class");
        assert_eq!(back.len(), 20);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(load(&path).is_err()); // gone now
    }
}
