//! The rules of the two on-disk stores, the AOT kernel cache and the
//! region fingerprint index: one content hash, one atomic write and one
//! trust rule for the directory.
//!
//! A store's directory is trusted only if no other user could have put
//! a file in it ([`private_dir`]). The kernel cache holds code the
//! process runs and the fingerprint index holds verdicts that drop
//! safeguards, so a directory another user can write is never read.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// FNV-1a 64-bit offset basis.
const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV64_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV64_PRIME)
    })
}

/// 128-bit content hash as 32 hex chars: FNV-1a 64 beside a second
/// stream with another basis and multiplier. Not cryptographic: it keys
/// local caches whose directory is trusted ([`private_dir`]), and both
/// stores check what they load against more than the key.
pub fn fnv128_hex(s: &str) -> String {
    let mut h2: u64 = 0x6c62_272e_07bb_0142;
    for b in s.bytes() {
        h2 = (h2 ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    format!("{:016x}{h2:016x}", fnv64(s.as_bytes()))
}

/// Atomically replace `path` with `bytes`: write a process-unique
/// `*.tmp-<pid>-<seq>` sibling, then rename it into place, so no reader
/// ever sees a torn file and concurrent writers never share a tmp file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut os = path.as_os_str().to_os_string();
    os.push(format!(".tmp-{}-{seq}", std::process::id()));
    let tmp = PathBuf::from(os);
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

/// Create `dir` owner-only (mode 0700) if it is missing, and refuse it
/// if another user could plant a file in it: group- or world-writable,
/// or owned by a uid other than this process's. The error names the
/// directory and the mode or the owner.
pub fn private_dir(dir: &Path) -> Result<(), String> {
    let shown = dir.display();
    #[cfg(unix)]
    {
        use std::os::unix::fs::{DirBuilderExt, MetadataExt};
        extern "C" {
            fn geteuid() -> u32;
        }
        fs::DirBuilder::new()
            .recursive(true)
            .mode(0o700)
            .create(dir)
            .map_err(|e| format!("create {shown}: {e}"))?;
        let meta = fs::metadata(dir).map_err(|e| format!("stat {shown}: {e}"))?;
        let mode = meta.mode() & 0o777;
        if mode & 0o022 != 0 {
            return Err(format!(
                "{shown} is group- or world-writable (mode {mode:o})"
            ));
        }
        // SAFETY: `geteuid` takes nothing, cannot fail and touches no memory.
        let uid = unsafe { geteuid() };
        if meta.uid() != uid {
            return Err(format!("{shown} is owned by uid {}, not {uid}", meta.uid()));
        }
        Ok(())
    }
    #[cfg(not(unix))]
    fs::create_dir_all(dir).map_err(|e| format!("create {shown}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_stable_and_content_keyed() {
        // FNV-1a 64 reference values.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        let a = fnv128_hex("hello");
        assert_eq!(a.len(), 32);
        assert_eq!(a, fnv128_hex("hello"));
        assert_ne!(a, fnv128_hex("hello!"));
        assert_eq!(&a[..16], format!("{:016x}", fnv64(b"hello")));
    }
}
