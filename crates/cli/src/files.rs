//! Reading and writing the files a command names. Every error names the
//! file: `cannot read PATH: …` or `cannot write PATH: …`.

use std::path::Path;

use dmig_core::MigrationProblem;

use crate::args::Args;
use crate::instance;

/// The text of the file at `path`.
pub(crate) fn read_text(path: impl AsRef<Path>) -> Result<String, String> {
    let path = path.as_ref();
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// The bytes of the file at `path`.
pub(crate) fn read_bytes(path: impl AsRef<Path>) -> Result<Vec<u8>, String> {
    let path = path.as_ref();
    std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Publishes `bytes` at `path` by write-to-temp and atomic rename.
pub(crate) fn write(path: impl AsRef<Path>, bytes: &[u8]) -> Result<(), String> {
    let path = path.as_ref();
    dmig_obs::fsio::atomic_write(path, bytes)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The instance file at `path`: its text and the problem it describes.
pub(crate) fn read_instance(path: &str) -> Result<(String, MigrationProblem), String> {
    let text = read_text(path)?;
    let problem =
        instance::parse_instance(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    Ok((text, problem))
}

/// A command's output `text`: printed, or under `--out FILE` written to
/// FILE, and then the output is the line `wrote WHAT to FILE`.
pub(crate) fn print_or_write(args: &Args<'_>, text: String, what: &str) -> Result<String, String> {
    match args.value("--out") {
        Some(path) => {
            write(path, text.as_bytes())?;
            Ok(format!("wrote {what} to {path}\n"))
        }
        None => Ok(text),
    }
}
