//! Crash-consistent file replacement for checkpoints and index artifacts.

use std::io::{self, Write};
use std::path::Path;

/// Replaces the file at `path` with `bytes` crash-consistently.
///
/// The bytes go to `<path>.tmp` *in the same directory* (a rename across
/// filesystems is not atomic), are fsync'd so the rename can never
/// publish a name whose data is still in the page cache, and then
/// atomically replace `path`. A crash at any point leaves the old file or
/// the new one, never a torn file under the real name.
///
/// # Errors
/// `InvalidInput` when `path` has no file name; otherwise the error of
/// the create, write, fsync or rename that failed.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no file name"))?
        .to_os_string();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replaces_through_a_same_directory_temp() {
        let dir = std::env::temp_dir().join(format!("fastz-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file.bin");
        write_atomic(&path, b"old").unwrap();
        write_atomic(&path, b"new bytes").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new bytes");
        assert!(!dir.join("file.bin.tmp").exists(), "temp file renamed away");
        let err = write_atomic(Path::new("/"), b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
