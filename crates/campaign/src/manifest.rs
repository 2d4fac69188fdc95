//! The resumable campaign manifest.
//!
//! A manifest is a JSON file recording, for one matrix definition,
//! every scenario that has completed together with its serialized
//! result payload. A rerun over the same matrix loads the manifest,
//! skips the completed scenarios, and still produces the identical
//! merged output — the payloads stand in for the skipped runs. The
//! scenario entries are fully deterministic (no wall clock, index
//! order), so two campaigns over the same matrix record byte-identical
//! manifests regardless of worker count.
//!
//! Wall-clock diagnostics of a run (per-worker claims, busy time) live
//! in [`CampaignStats`](crate::CampaignStats), never here. Unknown
//! top-level keys are ignored on load, so a manifest that carries the
//! `last_run` section older revisions wrote still resumes.

use crate::json::Json;
use crate::matrix::Matrix;
use std::io;
use std::path::Path;

/// Manifest format version (bumped on breaking layout changes).
pub const MANIFEST_VERSION: u64 = 1;

/// One completed scenario: its index, its stable key, and the result
/// payload the campaign's result type serialized.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    pub index: usize,
    pub key: String,
    pub result: Json,
}

/// A campaign manifest: the matrix identity plus the completed
/// scenarios.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Campaign name (informational).
    pub name: String,
    /// [`Matrix::fingerprint`] of the matrix the entries belong to.
    pub fingerprint: String,
    /// Completed scenarios in ascending index order.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// An empty manifest for a matrix.
    pub fn new(name: &str, matrix: &Matrix) -> Self {
        Manifest {
            name: name.to_owned(),
            fingerprint: matrix.fingerprint(),
            entries: Vec::new(),
        }
    }

    /// Serializes the manifest (deterministic: entries in index order,
    /// no timestamps).
    pub fn to_json(&self, matrix: &Matrix) -> Json {
        Json::Obj(vec![
            ("version".to_owned(), Json::Num(MANIFEST_VERSION as f64)),
            ("name".to_owned(), Json::Str(self.name.clone())),
            (
                "fingerprint".to_owned(),
                Json::Str(self.fingerprint.clone()),
            ),
            ("matrix".to_owned(), matrix.to_json()),
            (
                "scenarios".to_owned(),
                Json::Arr(
                    self.entries
                        .iter()
                        .map(|e| {
                            Json::Obj(vec![
                                ("index".to_owned(), Json::Num(e.index as f64)),
                                ("key".to_owned(), Json::Str(e.key.clone())),
                                ("result".to_owned(), e.result.clone()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a manifest document.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] on malformed JSON or a missing
    /// required field.
    pub fn from_json(doc: &Json) -> io::Result<Self> {
        let bad =
            |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("manifest: {what}"));
        if doc.get("version").and_then(Json::as_u64) != Some(MANIFEST_VERSION) {
            return Err(bad("missing or unsupported version"));
        }
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing name"))?
            .to_owned();
        let fingerprint = doc
            .get("fingerprint")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing fingerprint"))?
            .to_owned();
        let mut entries = Vec::new();
        for item in doc
            .get("scenarios")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing scenarios"))?
        {
            let index = item
                .get("index")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("scenario without index"))? as usize;
            let key = item
                .get("key")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("scenario without key"))?
                .to_owned();
            let result = item
                .get("result")
                .cloned()
                .ok_or_else(|| bad("scenario without result"))?;
            entries.push(ManifestEntry { index, key, result });
        }
        Ok(Manifest {
            name,
            fingerprint,
            entries,
        })
    }

    /// Loads a manifest file. Returns `Ok(None)` if the file does not
    /// exist.
    ///
    /// # Errors
    ///
    /// I/O errors other than not-found, and malformed content.
    pub fn load(path: &Path) -> io::Result<Option<Self>> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let doc = Json::parse(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("manifest: {e}")))?;
        Self::from_json(&doc).map(Some)
    }

    /// Writes the manifest atomically (temp file + rename), so a
    /// campaign killed mid-write never leaves a truncated manifest.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating the parent directory or writing.
    pub fn save(&self, path: &Path, matrix: &Matrix) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_json(matrix).to_string_pretty())?;
        std::fs::rename(&tmp, path)
    }

    /// True if this manifest was written for `matrix` (same
    /// fingerprint) — the precondition for resuming from it.
    pub fn matches(&self, matrix: &Matrix) -> bool {
        self.fingerprint == matrix.fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> Matrix {
        Matrix::new().axis("w", ["a", "b"]).axis("k", ["1", "2"])
    }

    #[test]
    fn roundtrips_through_disk() {
        let m = matrix();
        let mut manifest = Manifest::new("test", &m);
        manifest.entries.push(ManifestEntry {
            index: 2,
            key: "w=b/k=1".to_owned(),
            result: Json::Obj(vec![("cycles".to_owned(), Json::Num(42.0))]),
        });
        let dir = std::env::temp_dir().join("hierbus_campaign_manifest_test");
        let path = dir.join("m.json");
        manifest.save(&path, &m).unwrap();
        let loaded = Manifest::load(&path).unwrap().unwrap();
        assert_eq!(loaded, manifest);
        assert!(loaded.matches(&m));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_none_and_garbage_errors() {
        let dir = std::env::temp_dir().join("hierbus_campaign_manifest_test2");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(Manifest::load(&dir.join("nope.json")).unwrap().is_none());
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "{not json").unwrap();
        assert!(Manifest::load(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_detected() {
        let manifest = Manifest::new("test", &matrix());
        let other = Matrix::new().axis("w", ["a"]);
        assert!(!manifest.matches(&other));
    }
}
