//! Durable file writes: the one write path every persisted file goes
//! through.
//!
//! [`write_atomic`] replaces a file so that a crash at any instant — a
//! killed process or a power loss — leaves either the old bytes or the
//! new ones, never a torn mix: write a temp file beside the target, fsync
//! it, rename it over the target, fsync the directory. The archive
//! ([`ResultStore::put`](crate::store::ResultStore::put)), the queue
//! journal, the telemetry snapshot and the settle-log header all use it.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Replace `path` with `bytes` atomically and durably (write temp, fsync,
/// rename, fsync the directory). The temp file is `<file name>.tmp` in the
/// same directory; it is removed again when the write or the rename fails.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = temp_path(path);
    if let Err(e) = write_synced(&tmp, bytes).and_then(|()| fs::rename(&tmp, path)) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    sync_parent(path)
}

/// Create (or truncate) `path`, write `bytes` and fsync the file before
/// returning. The directory entry itself is not synced; see
/// [`sync_parent`].
pub fn write_synced(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut file = File::create(path)?;
    file.write_all(bytes)?;
    file.sync_all()
}

/// Fsync the directory holding `path`, making a create, rename or link in
/// it durable.
pub fn sync_parent(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("latest-durable-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp_file() {
        let dir = temp_dir("replace");
        let path = dir.join("state.json");
        write_atomic(&path, b"old").unwrap();
        write_atomic(&path, b"new").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new");
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec![std::ffi::OsString::from("state.json")]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_write_keeps_the_old_bytes() {
        let dir = temp_dir("fail");
        let path = dir.join("state.json");
        write_atomic(&path, b"old").unwrap();
        // A directory squatting on the temp path makes the write fail.
        fs::create_dir_all(dir.join("state.json.tmp")).unwrap();
        assert!(write_atomic(&path, b"new").is_err());
        assert_eq!(fs::read(&path).unwrap(), b"old");
        fs::remove_dir_all(&dir).ok();
    }
}
