//! Output handling for the experiment binaries: where artifacts go, how an
//! experiment renders as text, and how text + CSV are persisted.
//!
//! All persistence is **crash-safe**: every file is written to a temporary
//! sibling and atomically renamed into place, so a killed run never leaves a
//! half-written artifact behind — a reader (including `all --resume`) sees
//! either the complete previous version or the complete new one.

use rsin_core::experiment::Experiment;
use rsin_core::HarnessError;
use std::path::{Path, PathBuf};

/// Environment variable overriding the experiment output directory.
///
/// Takes precedence over `CARGO_TARGET_DIR`; lets CI chaos jobs and
/// concurrent local runs write to disjoint directories instead of racing on
/// `target/experiments/`.
pub const OUTPUT_DIR_ENV: &str = "RSIN_OUTPUT_DIR";

/// Directory where experiment outputs are persisted: `RSIN_OUTPUT_DIR` when
/// set, else `$CARGO_TARGET_DIR/experiments`, else `target/experiments`.
#[must_use]
pub fn output_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os(OUTPUT_DIR_ENV) {
        if !dir.is_empty() {
            return PathBuf::from(dir);
        }
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    target.join("experiments")
}

/// The full text artifact of an experiment — the tables plus the ASCII
/// chart, exactly as it is printed and persisted.
#[must_use]
pub fn render(experiment: &Experiment) -> String {
    let mut text = experiment.to_text();
    text.push('\n');
    text.push_str(&experiment.to_ascii_chart(64, 16));
    text
}

/// Writes `bytes` to `path` atomically: the content goes to a temporary
/// sibling (`<name>.tmp.<pid>`) which is then renamed over `path`, so
/// concurrent readers and interrupted runs never observe a partial file.
///
/// # Errors
///
/// [`HarnessError::Io`] naming the failing operation and path.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), HarnessError> {
    fn io_err(op: &'static str, p: &Path, e: &std::io::Error) -> HarnessError {
        HarnessError::Io {
            op,
            path: p.display().to_string(),
            message: e.to_string(),
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, bytes).map_err(|e| io_err("write", &tmp, &e))?;
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(io_err("rename into", path, &e));
    }
    Ok(())
}

/// Persists an artifact under `dir`: `<name>.txt` always, plus
/// `<name>.csv` when `csv` is given. Both writes are atomic.
///
/// # Errors
///
/// [`HarnessError::Io`] on the first failing operation; an artifact is only
/// considered persisted when every one of its files landed.
pub fn persist_in(
    dir: &Path,
    name: &str,
    text: &str,
    csv: Option<&str>,
) -> Result<(), HarnessError> {
    std::fs::create_dir_all(dir).map_err(|e| HarnessError::Io {
        op: "create dir",
        path: dir.display().to_string(),
        message: e.to_string(),
    })?;
    atomic_write(&dir.join(format!("{name}.txt")), text.as_bytes())?;
    if let Some(csv) = csv {
        atomic_write(&dir.join(format!("{name}.csv")), csv.as_bytes())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsin_core::experiment::Series;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rsin_output_test_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn persist_in_writes_text_and_csv() {
        let dir = scratch_dir("persist");
        let mut e = Experiment::new("t", "x", "y");
        let mut s = Series::new("s");
        s.push(0.1, 1.0);
        e.add(s);
        let text = render(&e);
        persist_in(&dir, "artifact", &text, Some(&e.to_csv())).expect("persists");
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).expect("written");
        assert_eq!(read("artifact.txt"), text);
        assert_eq!(read("artifact.csv"), e.to_csv());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_replaces_content_and_leaves_no_temp() {
        let dir = scratch_dir("atomic");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("artifact.txt");
        atomic_write(&path, b"first").expect("first write");
        atomic_write(&path, b"second").expect("overwrite");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("list")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_failure_is_a_typed_io_error() {
        let dir = scratch_dir("noexist").join("file-not-dir");
        std::fs::create_dir_all(dir.parent().expect("parent")).expect("mkdir");
        std::fs::write(&dir, b"a plain file where a dir is needed").expect("plant file");
        let err = persist_in(&dir, "x", "text", None).expect_err("dir is a file");
        match &err {
            HarnessError::Io { op, path, .. } => {
                assert!(!path.is_empty());
                assert!(!op.is_empty());
            }
            other => panic!("expected Io error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(dir.parent().expect("parent"));
    }
}
