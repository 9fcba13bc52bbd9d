//! Crash-safe file output: write to a same-directory temp file, then
//! atomically rename over the destination. A reader never observes a
//! half-written artifact, and a killed process leaves at most a stray
//! `.{name}.tmp.{pid}` file behind.

use std::io::Write;
use std::path::{Path, PathBuf};

/// The temp sibling used for atomic replacement of `path`. Same directory,
/// so the final `rename` stays within one filesystem.
pub(crate) fn tmp_sibling(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map_or_else(|| "out".to_owned(), |n| n.to_string_lossy().into_owned());
    path.with_file_name(format!(".{name}.tmp.{}", std::process::id()))
}

/// Writes `bytes` to `path` atomically: a same-directory temp file,
/// synced to disk, then renamed over `path`. Readers never observe a
/// truncated artifact, and a failed write removes its temp file.
///
/// # Errors
///
/// Propagates filesystem errors from the write, the sync or the rename.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = tmp_sibling(path);
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_replaces_without_droppings() {
        let dir = std::env::temp_dir().join(format!("lori-obs-fsio-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.json");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "no temp files left: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
