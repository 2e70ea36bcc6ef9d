//! Which code a result came from.
//!
//! In a git checkout this is the commit; a plain source tree (no `.git`)
//! is identified by an FNV-1a hash over its Rust sources and manifests.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Root of the repository the benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// `commit:<sha>` when git knows the tree, else `source-fnv:<hash>`.
pub fn identity() -> String {
    let root = repo_root();
    let git = Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .output();
    if let Ok(out) = git {
        let sha = String::from_utf8_lossy(&out.stdout).trim().to_string();
        if out.status.success() && !sha.is_empty() {
            return format!("commit:{sha}");
        }
    }
    format!("source-fnv:{:016x}", tree_hash(&root))
}

fn tree_hash(root: &Path) -> u64 {
    let mut files = Vec::new();
    for top in [
        "Cargo.toml",
        "Cargo.lock",
        "src",
        "crates",
        "shims",
        "perfbench",
    ] {
        collect(&root.join(top), &mut files);
    }
    files.sort();
    let mut h = Fnv::default();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            h.write(
                f.strip_prefix(root)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            h.write(&bytes);
        }
    }
    h.0
}

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        let keep = matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs" | "toml" | "lock" | "txt")
        );
        if keep {
            out.push(path.to_path_buf());
        }
        return;
    }
    let Ok(entries) = std::fs::read_dir(path) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let name = e.file_name();
        if name == "target" || name == "out" || name.to_string_lossy().starts_with('.') {
            continue;
        }
        collect(&p, out);
    }
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
