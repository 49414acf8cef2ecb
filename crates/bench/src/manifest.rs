//! The resume manifest: per-task status, artifact digests and durations,
//! checkpointed atomically next to the artifacts it describes — and the
//! one resume policy every resumable binary shares.
//!
//! The manifest is what makes a long run *resumable*: a binary rewrites it
//! (atomically — see [`crate::output::atomic_write`]) after every task, so
//! a run killed at any instant leaves a manifest describing exactly the
//! artifacts that are complete on disk. `all`, `provision` and both
//! `broker_bench` legs resume the same way: [`Manifest::open`] trusts a
//! prior manifest only when it parses and carries this run's fingerprint,
//! [`Manifest::reusable`] skips a task only when its entry is `Ok` and its
//! files still hash to the recorded digests, and everything else is
//! recomputed.
//!
//! Digests are 64-bit FNV-1a over the rendered artifact bytes — collisions
//! are irrelevant here (the digest guards against *truncation and staleness*,
//! not adversaries) and the hash needs no dependencies.
//!
//! Everything in the file is deterministic in the suite results except the
//! `duration_ms` fields; in particular the digests are byte-identical for
//! every worker count.

use crate::json;
use rsin_core::HarnessError;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

/// Manifest schema version; bump on incompatible changes so an old manifest
/// is recomputed rather than misread. Version 2 dropped the per-task
/// `attempts` and `stalled` fields of version 1.
pub const MANIFEST_VERSION: u64 = 2;

/// 64-bit FNV-1a over `bytes`.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// How a task ended, as recorded in the manifest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryStatus {
    /// The task computed and all its artifacts were persisted.
    Ok,
    /// The task panicked, or its artifacts could not be written. Resume
    /// recomputes it.
    Failed,
}

impl EntryStatus {
    fn as_str(self) -> &'static str {
        match self {
            EntryStatus::Ok => "ok",
            EntryStatus::Failed => "failed",
        }
    }
}

/// One task's record in the manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct ManifestEntry {
    /// The artifact name (`fig04`, `table2`, ...).
    pub name: String,
    /// Terminal status of the task in the recorded run.
    pub status: EntryStatus,
    /// FNV-1a digest of `<name>.txt`, when persisted.
    pub digest: Option<u64>,
    /// FNV-1a digest of `<name>.csv`, for figure tasks.
    pub csv_digest: Option<u64>,
    /// Wall-clock compute time.
    pub duration_ms: u64,
    /// The error, for failed entries.
    pub error: Option<String>,
}

impl ManifestEntry {
    /// An `Ok` entry for a task whose artifacts were persisted
    /// as `text` (and `csv`, when it has one) after `elapsed` of compute.
    #[must_use]
    pub fn ok(name: &str, text: &str, csv: Option<&str>, elapsed: Duration) -> Self {
        ManifestEntry {
            name: name.to_string(),
            status: EntryStatus::Ok,
            digest: Some(fnv1a64(text.as_bytes())),
            csv_digest: csv.map(|c| fnv1a64(c.as_bytes())),
            duration_ms: u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX),
            error: None,
        }
    }

    /// A `Failed` entry carrying the task's error.
    #[must_use]
    pub fn failed(name: &str, error: String, elapsed: Duration) -> Self {
        ManifestEntry {
            status: EntryStatus::Failed,
            digest: None,
            csv_digest: None,
            error: Some(error),
            ..ManifestEntry::ok(name, "", None, elapsed)
        }
    }
}

/// The manifest: a quality fingerprint plus one entry per finished task, in
/// suite order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Manifest {
    /// [`crate::RunQuality::fingerprint`] of the run that produced the
    /// entries. Resume ignores manifests with a different fingerprint.
    pub quality: String,
    /// Finished tasks, in suite order.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// An empty manifest for a run with the given quality fingerprint.
    #[must_use]
    pub fn new(quality_fingerprint: impl Into<String>) -> Self {
        Manifest {
            quality: quality_fingerprint.into(),
            entries: Vec::new(),
        }
    }

    /// The entry for `name`, if that task finished in the recorded run.
    #[must_use]
    pub fn entry(&self, name: &str) -> Option<&ManifestEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// The checkpoint to extend for a run fingerprinted `fingerprint`. With
    /// `resume`, the manifest at `path` is kept when it loads and carries
    /// the same fingerprint; otherwise — and always without `resume` — the
    /// run starts from an empty manifest, and a resume that starts cold
    /// says why in one stderr line.
    #[must_use]
    pub fn open(path: &Path, fingerprint: &str, resume: bool) -> Self {
        if resume {
            match Manifest::load(path) {
                Ok(m) if m.quality == fingerprint => return m,
                Ok(m) => eprintln!(
                    "resume: cold start (manifest fingerprint {:?} differs from this run's {:?})",
                    m.quality, fingerprint
                ),
                Err(e) => eprintln!("resume: cold start ({e})"),
            }
        }
        Manifest::new(fingerprint)
    }

    /// The `.txt` bytes of task `name` and its entry, when the entry is
    /// `Ok` and `dir/<stem>.txt` — plus `dir/<stem>.csv` when a CSV digest
    /// was recorded — still hash to the recorded digests. `None` means the
    /// task must be recomputed; a checkpoint that disagrees with the files
    /// on disk says why on stderr.
    #[must_use]
    pub fn reusable(&self, dir: &Path, name: &str, stem: &str) -> Option<(String, &ManifestEntry)> {
        let entry = self.entry(name).filter(|e| e.status == EntryStatus::Ok)?;
        match verified_text(dir, stem, entry) {
            Ok(text) => Some((text, entry)),
            Err(why) => {
                eprintln!("resume: recomputing {name} ({why})");
                None
            }
        }
    }

    /// Replaces the entry of the same name (the new one goes last) and
    /// atomically rewrites the manifest at `path`.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Io`] when the write or rename fails.
    pub fn record(&mut self, entry: ManifestEntry, path: &Path) -> Result<(), HarnessError> {
        self.entries.retain(|e| e.name != entry.name);
        self.entries.push(entry);
        self.save(path)
    }

    /// Serializes the manifest as JSON (one task object per line).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"version\": {MANIFEST_VERSION},");
        let _ = writeln!(s, "  \"quality\": {},", json::quote(&self.quality));
        s.push_str("  \"tasks\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"name\": {}, \"status\": \"{}\", \"digest\": {}, \"csv_digest\": {}, \
                 \"duration_ms\": {}, \"error\": {}}}{comma}",
                json::quote(&e.name),
                e.status.as_str(),
                json_digest(e.digest),
                json_digest(e.csv_digest),
                e.duration_ms,
                e.error
                    .as_deref()
                    .map_or_else(|| "null".to_string(), json::quote),
            );
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses a manifest produced by [`Manifest::to_json`] (or hand-edited
    /// equivalents).
    ///
    /// # Errors
    ///
    /// [`HarnessError::ManifestCorrupt`] when the text is not JSON, the
    /// schema version is unknown, or a required field is missing/mistyped.
    pub fn parse(text: &str, path: &Path) -> Result<Self, HarnessError> {
        let corrupt = |what: String| HarnessError::ManifestCorrupt {
            path: path.display().to_string(),
            what,
        };
        let root = json::parse(text).map_err(|e| corrupt(format!("not JSON: {e}")))?;
        let version = root
            .get("version")
            .and_then(json::Value::as_u64)
            .ok_or_else(|| corrupt("missing numeric \"version\"".into()))?;
        if version != MANIFEST_VERSION {
            return Err(corrupt(format!(
                "schema version {version}, expected {MANIFEST_VERSION}"
            )));
        }
        let quality = root
            .get("quality")
            .and_then(json::Value::as_str)
            .ok_or_else(|| corrupt("missing string \"quality\"".into()))?
            .to_string();
        let tasks = root
            .get("tasks")
            .and_then(json::Value::as_array)
            .ok_or_else(|| corrupt("missing array \"tasks\"".into()))?;
        let mut entries = Vec::with_capacity(tasks.len());
        for (i, t) in tasks.iter().enumerate() {
            let field = |k: &str| {
                t.get(k)
                    .ok_or_else(|| corrupt(format!("task #{i}: missing \"{k}\"")))
            };
            let name = field("name")?
                .as_str()
                .ok_or_else(|| corrupt(format!("task #{i}: \"name\" not a string")))?
                .to_string();
            let status = match field("status")?.as_str() {
                Some("ok") => EntryStatus::Ok,
                Some("failed") => EntryStatus::Failed,
                other => {
                    return Err(corrupt(format!("task {name}: bad status {other:?}")));
                }
            };
            let digest =
                parse_digest(field("digest")?).map_err(|e| corrupt(format!("task {name}: {e}")))?;
            let csv_digest = parse_digest(field("csv_digest")?)
                .map_err(|e| corrupt(format!("task {name}: {e}")))?;
            let duration_ms = field("duration_ms")?
                .as_u64()
                .ok_or_else(|| corrupt(format!("task {name}: bad duration_ms")))?;
            let error = match field("error")? {
                json::Value::Null => None,
                json::Value::Str(s) => Some(s.clone()),
                _ => return Err(corrupt(format!("task {name}: bad error"))),
            };
            entries.push(ManifestEntry {
                name,
                status,
                digest,
                csv_digest,
                duration_ms,
                error,
            });
        }
        Ok(Manifest { quality, entries })
    }

    /// Reads and parses the manifest at `path`.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Io`] when the file cannot be read,
    /// [`HarnessError::ManifestCorrupt`] when it cannot be parsed.
    pub fn load(path: &Path) -> Result<Self, HarnessError> {
        let text = std::fs::read_to_string(path).map_err(|e| HarnessError::Io {
            op: "read",
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Manifest::parse(&text, path)
    }

    /// Atomically writes the manifest to `path`.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Io`] when the write or rename fails.
    pub fn save(&self, path: &Path) -> Result<(), HarnessError> {
        crate::output::atomic_write(path, self.to_json().as_bytes())
    }
}

/// Re-hashes `dir/<stem>.txt` (and `dir/<stem>.csv` when `entry` recorded
/// a CSV digest) and returns the `.txt` text when every digest matches.
fn verified_text(dir: &Path, stem: &str, entry: &ManifestEntry) -> Result<String, String> {
    let read = |ext: &str, want: u64| {
        let path = dir.join(format!("{stem}.{ext}"));
        let bytes =
            std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        if fnv1a64(&bytes) == want {
            Ok(bytes)
        } else {
            Err(format!("{} does not match its digest", path.display()))
        }
    };
    let text = read("txt", entry.digest.ok_or("entry has no digest")?)?;
    if let Some(want) = entry.csv_digest {
        read("csv", want)?;
    }
    String::from_utf8(text).map_err(|_| format!("{stem}.txt is not UTF-8"))
}

/// Renders a digest as `"fnv64:<16 hex digits>"`, or `null`.
fn json_digest(d: Option<u64>) -> String {
    d.map_or_else(|| "null".to_string(), |v| format!("\"fnv64:{v:016x}\""))
}

fn parse_digest(v: &json::Value) -> Result<Option<u64>, String> {
    match v {
        json::Value::Null => Ok(None),
        json::Value::Str(s) => {
            let hex = s
                .strip_prefix("fnv64:")
                .ok_or_else(|| format!("digest {s:?} lacks fnv64: prefix"))?;
            u64::from_str_radix(hex, 16)
                .map(Some)
                .map_err(|_| format!("digest {s:?} is not hex"))
        }
        _ => Err("digest is neither null nor a string".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn sample() -> Manifest {
        Manifest {
            quality: "warmup=1000 measured=8000 reps=2 trials=2000 seed=1983".into(),
            entries: vec![
                ManifestEntry {
                    name: "fig04".into(),
                    status: EntryStatus::Ok,
                    digest: Some(0x1234_5678_9abc_def0),
                    csv_digest: Some(42),
                    duration_ms: 120,
                    error: None,
                },
                ManifestEntry {
                    name: "fig07".into(),
                    status: EntryStatus::Failed,
                    digest: None,
                    csv_digest: None,
                    duration_ms: 2_000,
                    error: Some("task fig07 panicked: chaos".into()),
                },
            ],
        }
    }

    #[test]
    fn fnv_digest_is_stable_and_discriminating() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        // Known FNV-1a test vector.
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"fig04 contents"), fnv1a64(b"fig04 content!"));
    }

    #[test]
    fn manifest_roundtrips_through_json() {
        let m = sample();
        let json = m.to_json();
        let back = Manifest::parse(&json, &PathBuf::from("m.json")).expect("parses");
        assert_eq!(back, m);
        assert_eq!(back.entry("fig07").expect("entry").duration_ms, 2_000);
        assert!(back.entry("nope").is_none());
    }

    #[test]
    fn corrupt_manifests_are_typed_errors() {
        let p = PathBuf::from("m.json");
        for bad in [
            "",
            "{",
            "not json at all",
            "{\"version\": 99, \"quality\": \"q\", \"tasks\": []}",
            "{\"version\": 1, \"quality\": \"q\", \"tasks\": []}",
            "{\"version\": 2, \"tasks\": []}",
            "{\"version\": 2, \"quality\": \"q\", \"tasks\": [{\"name\": \"x\"}]}",
        ] {
            let err = Manifest::parse(bad, &p).expect_err("must reject");
            assert!(
                matches!(err, HarnessError::ManifestCorrupt { .. }),
                "wrong error for {bad:?}: {err:?}"
            );
        }
    }

    #[test]
    fn save_and_load_are_atomic_and_faithful() {
        let dir = std::env::temp_dir().join(format!("rsin_manifest_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("manifest.json");
        let m = sample();
        m.save(&path).expect("save");
        assert_eq!(Manifest::load(&path).expect("load"), m);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serialized_bytes_are_pinned() {
        // A manifest written by an earlier build of this schema version must
        // still resume, so its exact bytes are part of the format.
        let golden = concat!(
            "{\n",
            "  \"version\": 2,\n",
            "  \"quality\": \"warmup=1000 measured=8000 reps=2 trials=2000 seed=1983\",\n",
            "  \"tasks\": [\n",
            "    {\"name\": \"fig04\", \"status\": \"ok\", \"digest\": \"fnv64:123456789abcdef0\", ",
            "\"csv_digest\": \"fnv64:000000000000002a\", \"duration_ms\": 120, \"error\": null},\n",
            "    {\"name\": \"fig07\", \"status\": \"failed\", \"digest\": null, ",
            "\"csv_digest\": null, \"duration_ms\": 2000, ",
            "\"error\": \"task fig07 panicked: chaos\"}\n",
            "  ]\n",
            "}\n",
        );
        assert_eq!(sample().to_json(), golden);
        assert_eq!(
            Manifest::parse(golden, &PathBuf::from("m.json")).expect("parses"),
            sample()
        );
    }

    /// One resume decision per row: a valid checkpoint under artifact
    /// `stem` is written, `damage` is applied to the `.txt`, `.csv` and
    /// manifest paths, and the shared helper must reuse exactly the `.txt`
    /// bytes or recompute.
    #[test]
    fn resume_reuses_only_digest_valid_checkpoints() {
        const FP: &str = "quality fingerprint";
        const TXT: &str = "report body\n";
        const CSV: &str = "x,y\n1,2\n";
        type Damage = fn(&Path, &Path, &Path);
        fn put(path: &Path, text: &str) {
            std::fs::write(path, text).expect("write");
        }
        fn rm(path: &Path) {
            std::fs::remove_file(path).expect("rm");
        }
        fn rewrite(manifest: &Path, change: fn(&mut ManifestEntry, &mut String)) {
            let mut m = Manifest::load(manifest).expect("load");
            change(&mut m.entries[0], &mut m.quality);
            m.save(manifest).expect("save");
        }
        /// Rewrites the manifest as a version-1 build wrote it: the same
        /// entries plus per-task `attempts` and `stalled` fields.
        fn downgrade_to_v1(manifest: &Path) {
            let v2 = std::fs::read_to_string(manifest).expect("read");
            let v1 = v2.replace("\"version\": 2,", "\"version\": 1,").replace(
                "\"error\":",
                "\"attempts\": 1, \"stalled\": false, \"error\":",
            );
            put(manifest, &v1);
        }
        let rows: [(&str, &str, Damage, bool); 11] = [
            ("missing manifest", "fig04", |_, _, m| rm(m), false),
            (
                "corrupt manifest",
                "fig04",
                |_, _, m| put(m, "{ \"version\": "),
                false,
            ),
            (
                "version-1 manifest",
                "fig04",
                |_, _, m| downgrade_to_v1(m),
                false,
            ),
            (
                "fingerprint mismatch",
                "fig04",
                |_, _, m| rewrite(m, |_, q| *q = "other".into()),
                false,
            ),
            (
                "failed entry",
                "fig04",
                |_, _, m| rewrite(m, |e, _| e.status = EntryStatus::Failed),
                false,
            ),
            (
                "entry without a digest",
                "fig04",
                |_, _, m| rewrite(m, |e, _| e.digest = None),
                false,
            ),
            ("tampered txt", "fig04", |t, _, _| put(t, "tampered"), false),
            ("tampered csv", "fig04", |_, c, _| put(c, "tampered"), false),
            ("recorded csv missing", "fig04", |_, c, _| rm(c), false),
            ("all digests valid", "fig04", |_, _, _| {}, true),
            ("provision-style stem", "provision_p8", |_, _, _| {}, true),
        ];
        for (i, (label, stem, damage, reused)) in rows.into_iter().enumerate() {
            let dir = std::env::temp_dir().join(format!("rsin_resume_{}_{i}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            crate::output::persist_in(&dir, stem, TXT, Some(CSV)).expect("persist");
            let name = stem.strip_prefix("provision_").unwrap_or(stem);
            let path = dir.join("manifest.json");
            let entry = ManifestEntry::ok(name, TXT, Some(CSV), Duration::from_millis(7));
            Manifest::new(FP).record(entry, &path).expect("record");
            let artifact = |ext: &str| dir.join(format!("{stem}.{ext}"));
            damage(&artifact("txt"), &artifact("csv"), &path);

            let m = Manifest::open(&path, FP, true);
            let got = m.reusable(&dir, name, stem).map(|(text, _)| text);
            assert_eq!(got.as_deref(), reused.then_some(TXT), "row: {label}");
            if reused {
                assert!(
                    Manifest::open(&path, FP, false).entries.is_empty(),
                    "row {label}: without --resume the checkpoint is ignored"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn record_replaces_an_entry_and_moves_it_last() {
        let dir = std::env::temp_dir().join(format!("rsin_record_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("manifest.json");
        let mut m = sample();
        let fresh = ManifestEntry::ok("fig04", "new", None, Duration::ZERO);
        m.record(fresh.clone(), &path).expect("record");
        let names: Vec<&str> = m.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["fig07", "fig04"]);
        assert_eq!(m.entry("fig04"), Some(&fresh));
        assert_eq!(Manifest::load(&path).expect("load"), m);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_strings_with_escapes_roundtrip() {
        let mut m = sample();
        m.entries[1].error = Some("path \"C:\\tmp\"\nline2\ttab".into());
        let back = Manifest::parse(&m.to_json(), &PathBuf::from("m.json")).expect("parses");
        assert_eq!(back.entries[1].error, m.entries[1].error);
    }
}
