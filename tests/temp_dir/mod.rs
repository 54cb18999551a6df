//! A scratch-directory guard for tests that touch the file system.
//!
//! Shared by the root integration tests and, through a `#[path]` module,
//! by `cisgraph-persist`'s unit tests.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh, empty directory under the system temp dir, removed on drop.
/// Each call gets its own (process id plus a counter), so tests running
/// in parallel, in one process or several, never share one.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `cisgraph_{tag}_{pid}_{n}`; `tag` only names it for humans.
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cisgraph_{tag}_{}_{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create a temp dir");
        Self(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
