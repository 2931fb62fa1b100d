//! Crash-safe checkpoint container: versioned header, CRC-32 footer,
//! atomic write-then-rename.
//!
//! This module owns the *container* — the byte format, integrity
//! checking and durable file replacement. What goes inside (the full
//! mutable state of an [`AccelPipeline`]: Q/Qmax images, the three LFSR
//! states, cycle/sample counters, in-flight write queues, and the fault
//! runtime if one is attached) is encoded by
//! [`AccelPipeline::checkpoint_bytes`] and decoded by
//! [`AccelPipeline::restore_checkpoint_bytes`], which live next to the
//! pipeline because they touch every private field.
//!
//! ## Format
//!
//! A checkpoint is a sequence of little-endian `u64` words, encoded in
//! one pass straight into the file image and decoded in place from the
//! borrowed bytes:
//!
//! ```text
//! word 0       magic  "QTACCKPT"
//! word 1       format version (this module understands version 1)
//! word 2..n    payload (pipeline-defined)
//! word n       CRC-32/ISO-HDLC of words 0..n, zero-extended to 64 bits
//! ```
//!
//! ## Durability
//!
//! [`atomic_write`] stages the bytes in a sibling `*.tmp` file, fsyncs
//! it, renames it over the destination, and fsyncs the directory. A
//! crash at any point leaves either the old complete checkpoint or the
//! new complete checkpoint — never a torn file. A torn or tampered file
//! is still *detected* (CRC/magic/version/truncation) and refused with a
//! typed [`CheckpointError`] rather than restored into a half-written
//! pipeline.
//!
//! The durable batch and lease calls save a shard whenever its
//! retired-sample count crosses a multiple of the cadence, then seal its
//! final state. The seal writes nothing when the call trained the shard
//! and its final count is a nonzero multiple of the cadence: the last
//! cadence save already wrote exactly those bytes. A call that trained
//! nothing still seals.
//!
//! [`AccelPipeline`]: crate::AccelPipeline
//! [`AccelPipeline::checkpoint_bytes`]: crate::AccelPipeline::checkpoint_bytes
//! [`AccelPipeline::restore_checkpoint_bytes`]: crate::AccelPipeline::restore_checkpoint_bytes

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// CRC-32/ISO-HDLC, the checksum sealing every checkpoint (shared with
/// the telemetry wire frames).
pub use qtaccel_telemetry::wire::crc32;

/// `"QTACCKPT"` in ASCII — the first word of every checkpoint file.
pub const MAGIC: u64 = u64::from_le_bytes(*b"QTACCKPT");

/// Container format version this build writes and understands.
pub const VERSION: u64 = 1;

/// Why a checkpoint could not be saved or restored.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem-level failure (open, read, write, rename, sync).
    Io(std::io::Error),
    /// The file ended before the declared content (or is not a whole
    /// number of words / too short to hold header + footer).
    Truncated,
    /// The first word is not the checkpoint magic — not a checkpoint.
    BadMagic,
    /// A checkpoint, but written by an incompatible format version.
    BadVersion {
        /// The version word found in the file.
        found: u64,
    },
    /// The CRC-32 footer does not match the content: torn write or
    /// corruption.
    BadCrc,
    /// The checkpoint is internally valid but was taken from a pipeline
    /// whose shape/format differs from the one restoring it.
    Mismatch {
        /// Which field disagreed (e.g. `"num_states"`, `"format"`).
        field: &'static str,
        /// The restoring pipeline's value.
        expected: String,
        /// The checkpointed value.
        found: String,
    },
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl core::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated"),
            CheckpointError::BadMagic => write!(f, "not a QTAccel checkpoint (bad magic)"),
            CheckpointError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported checkpoint version {found} (this build reads {VERSION})"
                )
            }
            CheckpointError::BadCrc => write!(f, "checkpoint CRC mismatch (corrupt file)"),
            CheckpointError::Mismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "checkpoint {field} mismatch: pipeline has {expected}, checkpoint has {found}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Encodes checkpoint words little-endian straight into the file image
/// and seals it with the CRC footer.
#[derive(Debug, Default)]
pub(crate) struct WordWriter {
    bytes: Vec<u8>,
}

impl WordWriter {
    /// A writer with the magic + version header already emitted and room
    /// reserved for `payload_words` more words plus the CRC footer, so a
    /// writer told the exact payload size never reallocates.
    pub(crate) fn with_header(payload_words: usize) -> Self {
        let mut w = Self {
            bytes: Vec::with_capacity((payload_words + 3) * 8),
        };
        w.push(MAGIC);
        w.push(VERSION);
        w
    }

    pub(crate) fn push(&mut self, word: u64) {
        self.bytes.extend_from_slice(&word.to_le_bytes());
    }

    pub(crate) fn push_f64(&mut self, x: f64) {
        self.push(x.to_bits());
    }

    /// Words [`push_str`](Self::push_str) writes for `s`.
    pub(crate) fn str_words(s: &str) -> usize {
        1 + s.len().div_ceil(8)
    }

    /// Append a length-prefixed UTF-8 string, padded to whole words.
    pub(crate) fn push_str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        self.push(bytes.len() as u64);
        self.bytes.extend_from_slice(bytes);
        let pad = bytes.len().next_multiple_of(8) - bytes.len();
        self.bytes.resize(self.bytes.len() + pad, 0);
    }

    /// Seal: append the CRC word over everything written so far.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        let crc = crc32(&self.bytes) as u64;
        self.push(crc);
        self.bytes
    }
}

/// Cursor over a verified checkpoint payload, reading words in place
/// from the borrowed file image.
#[derive(Debug)]
pub(crate) struct WordReader<'a> {
    /// The payload words not yet read (header and CRC footer excluded).
    rest: &'a [u8],
}

impl<'a> WordReader<'a> {
    /// Verify container integrity (shape, CRC, magic, version) and
    /// position the cursor on the first payload word.
    pub(crate) fn parse(bytes: &'a [u8]) -> Result<Self, CheckpointError> {
        // Header (2 words) + CRC footer (1 word) is the minimum file.
        if !bytes.len().is_multiple_of(8) || bytes.len() < 24 {
            return Err(CheckpointError::Truncated);
        }
        let (content, footer) = bytes.split_at(bytes.len() - 8);
        if word_at(footer, 0) != crc32(content) as u64 {
            return Err(CheckpointError::BadCrc);
        }
        if word_at(content, 0) != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = word_at(content, 1);
        if version != VERSION {
            return Err(CheckpointError::BadVersion { found: version });
        }
        Ok(Self {
            rest: &content[16..],
        })
    }

    pub(crate) fn next(&mut self) -> Result<u64, CheckpointError> {
        Ok(word_at(self.take(1)?, 0))
    }

    /// Read a length word, refused as truncated when no payload could
    /// hold that many items (only a forged file gets past the CRC so).
    pub(crate) fn next_len(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.next()?).map_err(|_| CheckpointError::Truncated)
    }

    /// The next `n` words' bytes as one borrowed run, refused whole
    /// when the payload holds fewer: a bulk section pays one bounds
    /// check, not one per word. Decode it with [`word_at`].
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        // A run beyond the remaining payload is corruption the CRC
        // missed only if someone forged it: refuse it before a caller
        // allocates for it.
        let len = n
            .checked_mul(8)
            .filter(|&len| len <= self.rest.len())
            .ok_or(CheckpointError::Truncated)?;
        let (run, rest) = self.rest.split_at(len);
        self.rest = rest;
        Ok(run)
    }

    pub(crate) fn next_f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.next()?))
    }

    /// Payload words still unread. Lets decoders treat a trailing
    /// optional section (added by a later writer) as absent when reading
    /// an older checkpoint, instead of erroring on `Truncated`.
    pub(crate) fn remaining(&self) -> usize {
        self.rest.len() / 8
    }

    /// Read a length-prefixed string written by [`WordWriter::push_str`].
    pub(crate) fn next_str(&mut self) -> Result<String, CheckpointError> {
        let len = self.next_len()?;
        let text = self.take(len.div_ceil(8))?;
        String::from_utf8(text[..len].to_vec()).map_err(|_| CheckpointError::BadCrc)
    }
}

/// Word `i` of a run of little-endian words (one from
/// [`WordReader::take`]).
pub(crate) fn word_at(run: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(run[8 * i..8 * i + 8].try_into().expect("8-byte word"))
}

/// Durably replace `path` with `bytes`: stage in a sibling `*.tmp`,
/// fsync, rename over the destination, fsync the directory.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let tmp = staging_path(path);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Make the rename itself durable. Directory fsync is best-effort:
    // some filesystems refuse to sync a directory handle.
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Remove orphaned `*.tmp` staging files under `dir` (non-recursive)
/// and return how many were deleted.
///
/// A process killed between [`atomic_write`]'s create and rename leaves
/// the staging file behind. The real checkpoint (old or new) is intact
/// by construction, so the orphan is pure garbage — but it must not be
/// mistaken for a checkpoint, and it must not accumulate across crash
/// loops. Restore paths call this before scanning the directory.
pub fn clean_stale_tmp(dir: &Path) -> Result<u64, CheckpointError> {
    let mut removed = 0u64;
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        // A directory that does not exist yet has nothing stale in it.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let path = entry?.path();
        let is_tmp = path
            .extension()
            .is_some_and(|ext| ext.eq_ignore_ascii_case("tmp"));
        if is_tmp && path.is_file() {
            // A concurrent saver may legitimately rename its staging
            // file away between our scan and the unlink; that is not an
            // error.
            match fs::remove_file(&path) {
                Ok(()) => removed += 1,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
    Ok(removed)
}

/// The sibling `*.tmp` file [`atomic_write`] stages `path`'s bytes in.
fn staging_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// [`clean_stale_tmp`] for a caller that owns only `path` (a lease):
/// remove just `path`'s staging orphan, never a live sibling writer's.
pub(crate) fn clean_stale_tmp_of(path: &Path) -> Result<(), CheckpointError> {
    match fs::remove_file(staging_path(path)) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.into()),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn writer_reader_round_trip() {
        let (short, long) = ("Q8.8", "a longer string spanning words");
        let mut w =
            WordWriter::with_header(2 + WordWriter::str_words(short) + WordWriter::str_words(long));
        w.push(7);
        w.push_f64(0.125);
        w.push_str(short);
        w.push_str(long);
        let bytes = w.finish();
        assert_eq!(bytes.len(), 8 * 12, "header, 9 payload words, footer");
        let mut r = WordReader::parse(&bytes).expect("valid container");
        assert_eq!(r.next().unwrap(), 7);
        assert_eq!(r.next_f64().unwrap(), 0.125);
        assert_eq!(r.next_str().unwrap(), "Q8.8");
        assert_eq!(r.next_str().unwrap(), "a longer string spanning words");
        assert!(matches!(r.next(), Err(CheckpointError::Truncated)));
    }

    #[test]
    fn truncated_and_corrupt_containers_are_refused() {
        let mut w = WordWriter::with_header(1);
        w.push(1);
        let bytes = w.finish();
        assert!(matches!(
            WordReader::parse(&bytes[..bytes.len() - 8]),
            Err(CheckpointError::BadCrc) | Err(CheckpointError::Truncated)
        ));
        assert!(matches!(
            WordReader::parse(&bytes[..7]),
            Err(CheckpointError::Truncated)
        ));
        let mut flipped = bytes.clone();
        flipped[16] ^= 1;
        assert!(matches!(
            WordReader::parse(&flipped),
            Err(CheckpointError::BadCrc)
        ));
    }

    #[test]
    fn wrong_magic_and_version_are_typed_errors() {
        // Not a checkpoint at all (but CRC-consistent).
        let mut w = WordWriter::default();
        w.push(0xDEAD_BEEF);
        w.push(VERSION);
        w.push(0);
        assert!(matches!(
            WordReader::parse(&w.finish()),
            Err(CheckpointError::BadMagic)
        ));
        // A future version.
        let mut w = WordWriter::default();
        w.push(MAGIC);
        w.push(VERSION + 9);
        w.push(0);
        assert!(matches!(
            WordReader::parse(&w.finish()),
            Err(CheckpointError::BadVersion { found }) if found == VERSION + 9
        ));
    }

    #[test]
    fn atomic_write_leaves_no_tmp_file() {
        let dir = std::env::temp_dir().join("qtaccel-ckpt-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.ckpt");
        atomic_write(&path, b"hello").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"hello");
        atomic_write(&path, b"world").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"world");
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        assert!(!PathBuf::from(tmp).exists(), "staging file must be gone");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_stale_tmp_removes_orphans_and_spares_checkpoints() {
        let dir = std::env::temp_dir().join("qtaccel-ckpt-tmpclean");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        atomic_write(&dir.join("shard0.ckpt"), b"real").unwrap();
        fs::write(dir.join("shard1.ckpt.tmp"), b"torn").unwrap();
        fs::write(dir.join("other.tmp"), b"junk").unwrap();
        assert_eq!(clean_stale_tmp(&dir).unwrap(), 2);
        assert!(dir.join("shard0.ckpt").exists(), "real checkpoint spared");
        assert!(!dir.join("shard1.ckpt.tmp").exists());
        assert!(!dir.join("other.tmp").exists());
        // Idempotent, and a missing directory is simply empty.
        assert_eq!(clean_stale_tmp(&dir).unwrap(), 0);
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(clean_stale_tmp(&dir).unwrap(), 0);
    }

    #[test]
    fn errors_render_and_chain() {
        let e = CheckpointError::BadVersion { found: 3 };
        assert!(e.to_string().contains("version 3"));
        let io = CheckpointError::from(std::io::Error::other("disk on fire"));
        assert!(io.to_string().contains("disk on fire"));
        use std::error::Error as _;
        assert!(io.source().is_some());
        let m = CheckpointError::Mismatch {
            field: "num_states",
            expected: "64".into(),
            found: "128".into(),
        };
        assert!(m.to_string().contains("num_states"));
    }
}
