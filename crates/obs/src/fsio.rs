//! Crash-safe file output: write-to-temp plus atomic rename.
//!
//! Every one-shot artifact the tools produce — `--report-out` JSON,
//! `--metrics-out` snapshots, workspace manifests and plans — goes
//! through [`atomic_write`]. The contract: a reader at the destination
//! path sees either the previous complete document or the new complete
//! document, never a torn prefix, even if the writer is `kill -9`ed
//! mid-write. POSIX `rename(2)` within one directory gives exactly that;
//! the temp file lives next to its destination so the rename never
//! crosses a filesystem boundary.
//!
//! The write splits in two where a caller has something to overlap with
//! the `fdatasync`: [`stage`] writes and fences the temp file, and
//! [`Staged::publish`] renames it into place. A migration session stages
//! its report while the journal's last `fdatasync` runs, and publishes it
//! once that has returned.
//!
//! Streaming outputs (event journals) need the opposite discipline —
//! durable appends whose partial prefix *is* the recovery record — and
//! use [`crate::events::open_sink`] + [`crate::events::sync_sink`]
//! instead.

use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Writes `contents` to `path` atomically: the bytes stream to a sibling
/// `<path>.tmp.<pid>` file, are fsynced, and land at `path` via rename.
/// A crash at any point leaves either the old file or the new one.
///
/// # Errors
///
/// Propagates the underlying create/write/sync/rename failure; the temp
/// file is removed on any of them.
pub fn atomic_write(path: impl AsRef<Path>, contents: &[u8]) -> std::io::Result<()> {
    stage(path, contents)?.publish()
}

/// A document written to its temp file and fenced there, not yet at its
/// path. [`publish`](Self::publish) renames it into place; dropping it
/// unpublished removes the temp file.
#[derive(Debug)]
#[must_use = "a staged file is removed unless it is published"]
pub struct Staged {
    temp: PathBuf,
    path: PathBuf,
    published: bool,
}

/// The first half of [`atomic_write`]: writes `contents` to the sibling
/// `<path>.tmp.<pid>` file and `fdatasync`s it, leaving `path` untouched.
///
/// # Errors
///
/// Propagates the create/write/sync failure; the temp file is removed.
pub fn stage(path: impl AsRef<Path>, contents: &[u8]) -> std::io::Result<Staged> {
    let path = path.as_ref().to_path_buf();
    let mut temp = path.as_os_str().to_owned();
    temp.push(format!(".tmp.{}", std::process::id()));
    let staged = Staged {
        temp: PathBuf::from(temp),
        path,
        published: false,
    };
    let mut file = std::fs::File::create(&staged.temp)?;
    file.write_all(contents)?;
    // Fence the data before the rename publishes the name: otherwise a
    // power cut could expose a named-but-empty file.
    file.sync_data()?;
    Ok(staged)
}

impl Staged {
    /// The second half of [`atomic_write`]: renames the temp file to the
    /// path.
    ///
    /// # Errors
    ///
    /// Propagates the rename failure; the temp file is removed.
    pub fn publish(mut self) -> std::io::Result<()> {
        std::fs::rename(&self.temp, &self.path)?;
        self.published = true;
        Ok(())
    }
}

impl Drop for Staged {
    fn drop(&mut self) {
        if !self.published {
            let _ = std::fs::remove_file(&self.temp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("dmig-obs-fsio-{}-{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn writes_and_replaces() {
        let path = temp("a.json");
        std::fs::remove_file(&path).ok();
        atomic_write(&path, b"{\"v\":1}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":1}\n");
        atomic_write(Path::new(&path), b"{\"v\":2}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":2}\n");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn leaves_no_temp_behind() {
        let path = temp("b.json");
        std::fs::remove_file(&path).ok();
        atomic_write(&path, b"x").unwrap();
        let dir = std::path::Path::new(&path).parent().unwrap();
        let stem = std::path::Path::new(&path)
            .file_name()
            .unwrap()
            .to_string_lossy()
            .into_owned();
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(&stem) && n.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_staged_file_appears_only_when_published() {
        let path = temp("d.json");
        std::fs::remove_file(&path).ok();
        atomic_write(&path, b"old").unwrap();
        let temp = format!("{path}.tmp.{}", std::process::id());
        let staged = stage(&path, b"new").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        assert_eq!(std::fs::read(&temp).unwrap(), b"new");
        staged.publish().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        assert!(!Path::new(&temp).exists());
        // Dropped unpublished, a staged file leaves nothing behind.
        drop(stage(&path, b"newer").unwrap());
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        assert!(!Path::new(&temp).exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_write_keeps_the_old_file() {
        let path = temp("c-dir/impossible.json");
        // The parent directory does not exist: create fails, no panic.
        assert!(atomic_write(&path, b"x").is_err());
    }
}
