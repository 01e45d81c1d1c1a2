//! Helpers shared by the in-file tests of the command modules.

use crate::{run, CliOutcome};

/// The recorder is process-global and every solve writes its
/// `live.*`/`shard.*` gauges, so no run may overlap a run that has the
/// recorder enabled: its gauge writes would land in that run's
/// snapshot (and one run's `reset` would clear another's counters).
pub(crate) fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs the CLI in-process while holding [`obs_lock`].
pub(crate) fn run_str(args: &[&str]) -> CliOutcome {
    let _g = obs_lock();
    run(&args.iter().map(ToString::to_string).collect::<Vec<_>>())
}

/// The stdout of a run that must succeed.
pub(crate) fn run_ok(args: &[&str]) -> String {
    let out = run_str(args);
    assert_eq!(out.code, 0, "{args:?}: {}", out.stdout);
    out.stdout
}

/// A path in the temp directory, unique to this test process, that reads
/// as a `&str`. Dropping it removes the file there.
pub(crate) struct TempFile(String);

impl std::ops::Deref for TempFile {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<std::path::Path> for TempFile {
    fn as_ref(&self) -> &std::path::Path {
        self.0.as_ref()
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

pub(crate) fn temp_path(name: &str) -> TempFile {
    let path = std::env::temp_dir().join(format!("dmig-cli-test-{name}-{}", std::process::id()));
    TempFile(path.to_string_lossy().into_owned())
}

pub(crate) fn write_temp(name: &str, content: &str) -> TempFile {
    let path = temp_path(name);
    std::fs::write(&path, content).unwrap();
    path
}

pub(crate) const K3: &str = "nodes 3\ncaps 2 2 2\nedge 0 1\nedge 1 2\nedge 0 2\n";
