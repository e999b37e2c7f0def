//! Fault-tolerant checkpointing.
//!
//! Two surfaces live here:
//!
//! 1. The original **JSON state-dict** API ([`save_state_dict`] /
//!    [`load_state_dict`]) used to hand a pre-trained encoder to the
//!    fine-tuning stage (paper Fig. 3b). Saves now go through the same
//!    atomic write path as binary checkpoints, so a crash mid-save can no
//!    longer leave a corrupt file at the target path.
//! 2. A **versioned binary training-checkpoint format** ([`Checkpoint`])
//!    that captures *everything* a killed pre-training run needs to resume
//!    bit-exactly: model parameters, optimizer moments, scheduler state,
//!    and RNG stream state, each in its own CRC32-guarded section.
//!
//! ## Binary layout (version 1, all integers little-endian)
//!
//! ```text
//! header (36 bytes):
//!   magic        [u8; 8]  = b"AIMTSCKP"
//!   version      u32      = 1
//!   step         u64        optimizer steps taken
//!   epoch        u64        epochs completed
//!   n_sections   u32
//!   header_crc   u32        CRC32 of the 32 bytes above
//! section (repeated n_sections times):
//!   name_len     u32
//!   name         [u8; name_len]   UTF-8
//!   payload_len  u64
//!   section_crc  u32        CRC32 of name_len ‖ name ‖ payload_len ‖ payload
//!   payload      [u8; payload_len]
//! ```
//!
//! Every load validates the magic, version, header CRC, and each section's
//! CRC before returning; any truncation or bit corruption yields a typed
//! [`CheckpointError`] naming the failing section — never a panic, never a
//! silently-garbage model. Floats are stored as raw IEEE-754 bit patterns,
//! so `NaN` payloads and `±inf` round-trip bit-exactly.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use aimts_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::optim::AdamState;
use crate::scheduler::SchedulerState;

/// Current binary format version.
pub const FORMAT_VERSION: u32 = 1;

/// File magic identifying an AimTS binary checkpoint.
pub const MAGIC: [u8; 8] = *b"AIMTSCKP";

/// Fixed header length in bytes (magic + version + step + epoch + count + CRC).
pub const HEADER_LEN: usize = 36;

/// Conventional section names used by the training loops.
pub mod sections {
    /// Named model parameters.
    pub const PARAMS: &str = "params";
    /// Adam moments + step counter.
    pub const ADAM: &str = "adam";
    /// Learning-rate schedule state.
    pub const SCHEDULER: &str = "scheduler";
    /// Training-loop bookkeeping (RNG stream, counters, loss history).
    pub const TRAIN: &str = "train";
    /// Model architecture hyper-parameters (serving bundles): enough to
    /// reconstruct the module tree before applying [`PARAMS`].
    pub const ARCH: &str = "arch";
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a checkpoint failed to save, load, or apply.
///
/// Loads are total: every variant is returned, never panicked. Corruption
/// variants name the section (or byte region) that failed validation so
/// fault reports are actionable.
#[must_use]
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// The file does not start with [`MAGIC`] — not an AimTS checkpoint.
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion { found: u32, supported: u32 },
    /// The fixed header failed its CRC32 check.
    HeaderCorrupt,
    /// The file ends before `context` could be read in full.
    Truncated { context: String },
    /// Section `section` failed its CRC32 check (bit corruption).
    ChecksumMismatch { section: String },
    /// A section decoded to structurally invalid contents.
    Malformed { context: String, detail: String },
    /// A required section is absent from the file.
    MissingSection { section: String },
    /// The checkpoint is valid but does not fit the consumer (shape or
    /// layout mismatch, wrong scheduler kind, wrong worker topology, …).
    Incompatible { detail: String },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => write!(f, "not an AimTS checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported checkpoint format version {found} (this build reads <= {supported})"
            ),
            CheckpointError::HeaderCorrupt => write!(f, "checkpoint header failed CRC32 check"),
            CheckpointError::Truncated { context } => {
                write!(f, "checkpoint truncated while reading {context}")
            }
            CheckpointError::ChecksumMismatch { section } => {
                write!(f, "section `{section}` failed CRC32 check (corrupt)")
            }
            CheckpointError::Malformed { context, detail } => {
                write!(f, "malformed {context}: {detail}")
            }
            CheckpointError::MissingSection { section } => {
                write!(f, "checkpoint has no `{section}` section")
            }
            CheckpointError::Incompatible { detail } => {
                write!(f, "checkpoint incompatible with this run: {detail}")
            }
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

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, table-driven)
// ---------------------------------------------------------------------------

/// CRC32 (IEEE) of `bytes` — the checksum guarding every section.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Atomic writes
// ---------------------------------------------------------------------------

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_path_for(path: &Path) -> PathBuf {
    let file = path
        .file_name()
        .map(|f| f.to_string_lossy().into_owned())
        .unwrap_or_else(|| "checkpoint".to_string());
    let tag = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    path.with_file_name(format!(".{file}.{}.{tag}.tmp", std::process::id()))
}

/// Durably replace the file at `path` with `bytes`: write a sibling temp
/// file, `fsync` it, atomically rename over the target, and `fsync` the
/// parent directory. A crash (or error) at any point leaves either the old
/// file or the new file at `path` — never a partial mix.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    atomic_write_inner(path, bytes, None)
}

/// Fault-injection variant of [`atomic_write`] that simulates a crash by
/// failing after `fail_after` bytes have been written to the temp file.
/// Exists so crash-consistency tests can prove a failed save never touches
/// the previous checkpoint; not intended for production use.
pub fn atomic_write_failing_after(path: &Path, bytes: &[u8], fail_after: usize) -> io::Result<()> {
    atomic_write_inner(path, bytes, Some(fail_after))
}

fn atomic_write_inner(path: &Path, bytes: &[u8], fail_after: Option<usize>) -> io::Result<()> {
    let tmp = temp_path_for(path);
    let result = (|| -> io::Result<()> {
        let mut f = fs::File::create(&tmp)?;
        match fail_after {
            Some(limit) if limit < bytes.len() => {
                f.write_all(&bytes[..limit])?;
                return Err(io::Error::other(
                    "injected crash: write interrupted mid-checkpoint",
                ));
            }
            _ => f.write_all(bytes)?,
        }
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)?;
        // Make the rename itself durable. Failing to open the parent (e.g.
        // an exotic filesystem) is not worth failing the save over, but a
        // failed sync on an opened directory is a real durability error.
        if let Some(parent) = path.parent() {
            let dir = if parent.as_os_str().is_empty() {
                Path::new(".")
            } else {
                parent
            };
            if let Ok(d) = fs::File::open(dir) {
                d.sync_all()?;
            }
        }
        Ok(())
    })();
    if result.is_err() {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "best-effort cleanup: the write already failed and its error is returned"
        )]
        let _ = fs::remove_file(&tmp);
    }
    result
}

// ---------------------------------------------------------------------------
// Section byte codecs
// ---------------------------------------------------------------------------

/// Append-only little-endian encoder for section payloads.
#[derive(Debug, Default)]
pub struct SectionWriter {
    buf: Vec<u8>,
}

impl SectionWriter {
    pub fn new() -> Self {
        SectionWriter::default()
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Store a float as its raw bit pattern (bit-exact for all values).
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn put_f32_slice(&mut self, xs: &[f32]) {
        self.put_u64(xs.len() as u64);
        self.buf.reserve(xs.len() * 4);
        for x in xs {
            self.buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }

    pub fn put_u32_slice(&mut self, xs: &[u32]) {
        self.put_u64(xs.len() as u64);
        self.buf.reserve(xs.len() * 4);
        for x in xs {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian decoder for section payloads. Every method
/// returns a typed error naming the owning section instead of panicking.
pub struct SectionReader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'a str,
}

/// First 4 bytes of a slice as an array. Callers pass slices whose length
/// was just checked (or produced by `chunks_exact(4)`), so indexing cannot
/// fail; this avoids `try_into().unwrap()` in load paths that must never
/// panic (`clippy::unwrap_used`).
#[inline]
fn le4(b: &[u8]) -> [u8; 4] {
    [b[0], b[1], b[2], b[3]]
}

/// First 8 bytes of a slice as an array; see [`le4`].
#[inline]
fn le8(b: &[u8]) -> [u8; 8] {
    [b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]
}

impl<'a> SectionReader<'a> {
    pub fn new(buf: &'a [u8], section: &'a str) -> Self {
        SectionReader {
            buf,
            pos: 0,
            section,
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CheckpointError> {
        if self.buf.len() - self.pos < n {
            return Err(CheckpointError::Truncated {
                context: format!("section `{}` ({what})", self.section),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn get_u32(&mut self, what: &str) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(le4(self.take(4, what)?)))
    }

    pub fn get_u64(&mut self, what: &str) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(le8(self.take(8, what)?)))
    }

    pub fn get_f32(&mut self, what: &str) -> Result<f32, CheckpointError> {
        Ok(f32::from_bits(self.get_u32(what)?))
    }

    pub fn get_usize(&mut self, what: &str) -> Result<usize, CheckpointError> {
        let v = self.get_u64(what)?;
        usize::try_from(v).map_err(|_| CheckpointError::Malformed {
            context: format!("section `{}`", self.section),
            detail: format!("{what} = {v} does not fit in usize"),
        })
    }

    pub fn get_str(&mut self, what: &str) -> Result<String, CheckpointError> {
        let len = self.get_u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CheckpointError::Malformed {
            context: format!("section `{}`", self.section),
            detail: format!("{what} is not valid UTF-8"),
        })
    }

    /// A length-prefixed f32 slice. The length is validated against the
    /// remaining bytes *before* allocating.
    pub fn get_f32_slice(&mut self, what: &str) -> Result<Vec<f32>, CheckpointError> {
        let len = self.get_usize(what)?;
        let bytes = self.take(len.saturating_mul(4), what)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes(le4(c))))
            .collect())
    }

    pub fn get_u32_slice(&mut self, what: &str) -> Result<Vec<u32>, CheckpointError> {
        let len = self.get_usize(what)?;
        let bytes = self.take(len.saturating_mul(4), what)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(le4(c)))
            .collect())
    }

    /// Assert the payload was consumed exactly.
    pub fn finish(self) -> Result<(), CheckpointError> {
        if self.pos != self.buf.len() {
            return Err(CheckpointError::Malformed {
                context: format!("section `{}`", self.section),
                detail: format!(
                    "{} trailing bytes after the last field",
                    self.buf.len() - self.pos
                ),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The container
// ---------------------------------------------------------------------------

/// An in-memory binary checkpoint: header counters plus named, ordered,
/// individually-checksummed sections.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Optimizer steps taken when this snapshot was cut.
    pub step: u64,
    /// Epochs completed when this snapshot was cut.
    pub epoch: u64,
    sections: Vec<(String, Vec<u8>)>,
}

impl Checkpoint {
    pub fn new(step: u64, epoch: u64) -> Self {
        Checkpoint {
            step,
            epoch,
            sections: Vec::new(),
        }
    }

    /// Append a named section. Names should be unique; lookups return the
    /// first match.
    pub fn push_section(&mut self, name: &str, payload: Vec<u8>) {
        self.sections.push((name.to_string(), payload));
    }

    /// Section payload by name.
    pub fn section(&self, name: &str) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p.as_slice())
    }

    /// Section payload by name, or a typed [`CheckpointError::MissingSection`].
    pub fn require_section(&self, name: &str) -> Result<&[u8], CheckpointError> {
        self.section(name)
            .ok_or_else(|| CheckpointError::MissingSection {
                section: name.to_string(),
            })
    }

    /// Names in file order.
    pub fn section_names(&self) -> Vec<&str> {
        self.sections.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Serialize to the on-disk byte layout (header + CRC-guarded sections).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            HEADER_LEN
                + self
                    .sections
                    .iter()
                    .map(|(n, p)| 16 + n.len() + p.len())
                    .sum::<usize>(),
        );
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.step.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        let hcrc = crc32(&out);
        out.extend_from_slice(&hcrc.to_le_bytes());
        for (name, payload) in &self.sections {
            let name_len = (name.len() as u32).to_le_bytes();
            let payload_len = (payload.len() as u64).to_le_bytes();
            let mut crc_input = Vec::with_capacity(4 + name.len() + 8 + payload.len());
            crc_input.extend_from_slice(&name_len);
            crc_input.extend_from_slice(name.as_bytes());
            crc_input.extend_from_slice(&payload_len);
            crc_input.extend_from_slice(payload);
            let crc = crc32(&crc_input);
            out.extend_from_slice(&name_len);
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&payload_len);
            out.extend_from_slice(&crc.to_le_bytes());
            out.extend_from_slice(payload);
        }
        out
    }

    /// Parse and fully validate an on-disk byte buffer. Every CRC is
    /// checked before any payload is handed out.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        if bytes.len() < HEADER_LEN {
            return Err(CheckpointError::Truncated {
                context: "header".to_string(),
            });
        }
        if bytes[..8] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let u32_at = |off: usize| u32::from_le_bytes(le4(&bytes[off..off + 4]));
        let u64_at = |off: usize| u64::from_le_bytes(le8(&bytes[off..off + 8]));
        let version = u32_at(8);
        if version != FORMAT_VERSION {
            return Err(CheckpointError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        if crc32(&bytes[..HEADER_LEN - 4]) != u32_at(HEADER_LEN - 4) {
            return Err(CheckpointError::HeaderCorrupt);
        }
        let step = u64_at(12);
        let epoch = u64_at(20);
        let n_sections = u32_at(28) as usize;

        let mut sections = Vec::with_capacity(n_sections.min(64));
        let mut pos = HEADER_LEN;
        for i in 0..n_sections {
            let ordinal = format!("section {} of {n_sections}", i + 1);
            let take = |pos: &mut usize, n: usize, what: &str| -> Result<&[u8], CheckpointError> {
                if bytes.len() - *pos < n {
                    return Err(CheckpointError::Truncated {
                        context: format!("{ordinal} ({what})"),
                    });
                }
                let out = &bytes[*pos..*pos + n];
                *pos += n;
                Ok(out)
            };
            let record_start = pos;
            let name_len = u32::from_le_bytes(le4(take(&mut pos, 4, "name length")?)) as usize;
            let name_bytes = take(&mut pos, name_len, "name")?;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| CheckpointError::Malformed {
                    context: ordinal.clone(),
                    detail: "section name is not valid UTF-8".to_string(),
                })?
                .to_string();
            let payload_len = u64::from_le_bytes(le8(take(&mut pos, 8, "payload length")?));
            let payload_len =
                usize::try_from(payload_len).map_err(|_| CheckpointError::Malformed {
                    context: format!("{ordinal} (`{name}`)"),
                    detail: format!("payload length {payload_len} does not fit in usize"),
                })?;
            let stored_crc = u32::from_le_bytes(le4(take(&mut pos, 4, "checksum")?));
            if bytes.len() - pos < payload_len {
                return Err(CheckpointError::Truncated {
                    context: format!("section `{name}` payload"),
                });
            }
            let payload = &bytes[pos..pos + payload_len];
            pos += payload_len;
            // CRC covers the whole record sans the checksum field itself, so
            // corruption in the section *header* is caught too.
            let mut crc_input = Vec::with_capacity(4 + name_len + 8 + payload_len);
            crc_input.extend_from_slice(&bytes[record_start..record_start + 4 + name_len]);
            crc_input.extend_from_slice(&(payload_len as u64).to_le_bytes());
            crc_input.extend_from_slice(payload);
            if crc32(&crc_input) != stored_crc {
                return Err(CheckpointError::ChecksumMismatch { section: name });
            }
            sections.push((name, payload.to_vec()));
        }
        if pos != bytes.len() {
            return Err(CheckpointError::Malformed {
                context: "file".to_string(),
                detail: format!(
                    "{} trailing bytes after the last section",
                    bytes.len() - pos
                ),
            });
        }
        Ok(Checkpoint {
            step,
            epoch,
            sections,
        })
    }

    /// Serialize and atomically persist to `path` (see [`atomic_write`]).
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        atomic_write(path, &self.to_bytes())?;
        Ok(())
    }

    /// Read and fully validate the checkpoint at `path`.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let bytes = fs::read(path)?;
        Checkpoint::from_bytes(&bytes)
    }
}

/// Byte span of one section inside a serialized checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionSpan {
    pub name: String,
    /// Offset of the section record (its `name_len` field).
    pub start: usize,
    /// Offset of the payload bytes.
    pub payload_start: usize,
    /// One past the payload's final byte.
    pub end: usize,
}

/// Map a *valid* serialized checkpoint's section boundaries — used by
/// tooling and by the fault-injection suite to corrupt precise regions.
pub fn layout(bytes: &[u8]) -> Result<(usize, Vec<SectionSpan>), CheckpointError> {
    let ckpt = Checkpoint::from_bytes(bytes)?; // full validation first
    let mut spans = Vec::with_capacity(ckpt.sections.len());
    let mut pos = HEADER_LEN;
    for (name, payload) in &ckpt.sections {
        let start = pos;
        let payload_start = pos + 4 + name.len() + 8 + 4;
        let end = payload_start + payload.len();
        spans.push(SectionSpan {
            name: name.clone(),
            start,
            payload_start,
            end,
        });
        pos = end;
    }
    Ok((HEADER_LEN, spans))
}

// ---------------------------------------------------------------------------
// Typed section codecs
// ---------------------------------------------------------------------------

/// Encode named tensors (bit-exact) for a [`sections::PARAMS`] section.
pub fn encode_named_tensors(named: &[(String, Tensor)]) -> Vec<u8> {
    let mut w = SectionWriter::new();
    w.put_u32(named.len() as u32);
    for (name, t) in named {
        w.put_str(name);
        let shape = t.shape();
        w.put_u32(shape.len() as u32);
        for &d in shape {
            w.put_u64(d as u64);
        }
        w.put_u32_slice(&t.data_bits());
    }
    w.finish()
}

/// A decoded tensor entry: name, shape, raw f32 bit patterns.
pub type TensorEntry = (String, Vec<usize>, Vec<u32>);

/// Decode a [`sections::PARAMS`] payload.
pub fn decode_named_tensors(
    bytes: &[u8],
    section: &str,
) -> Result<Vec<TensorEntry>, CheckpointError> {
    let mut r = SectionReader::new(bytes, section);
    let count = r.get_u32("tensor count")? as usize;
    let mut out = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let name = r.get_str("tensor name")?;
        let ndim = r.get_u32("rank")? as usize;
        let mut shape = Vec::with_capacity(ndim.min(16));
        for _ in 0..ndim {
            let d = r.get_u64("dimension")?;
            shape.push(usize::try_from(d).map_err(|_| CheckpointError::Malformed {
                context: format!("section `{section}`"),
                detail: format!("dimension {d} of `{name}` does not fit in usize"),
            })?);
        }
        let bits = r.get_u32_slice("tensor data")?;
        let numel: usize = shape.iter().product();
        if bits.len() != numel {
            return Err(CheckpointError::Malformed {
                context: format!("section `{section}`"),
                detail: format!(
                    "`{name}` has {} values but shape {shape:?} implies {numel}",
                    bits.len()
                ),
            });
        }
        out.push((name, shape, bits));
    }
    r.finish()?;
    Ok(out)
}

/// Copy decoded tensors into matching live parameters. Every parameter in
/// `named` must be present with an identical shape; extra checkpoint
/// entries are ignored (so an encoder can be pulled out of a full-model
/// checkpoint).
pub fn apply_named_tensors(
    entries: &[TensorEntry],
    named: &[(String, Tensor)],
) -> Result<(), CheckpointError> {
    let by_name: BTreeMap<&str, &TensorEntry> = entries.iter().map(|e| (e.0.as_str(), e)).collect();
    // Validate everything before mutating anything, so a mismatch cannot
    // leave the model half-loaded.
    for (name, tensor) in named {
        let (_, shape, _) =
            by_name
                .get(name.as_str())
                .ok_or_else(|| CheckpointError::Incompatible {
                    detail: format!("checkpoint has no parameter `{name}`"),
                })?;
        if shape != tensor.shape() {
            return Err(CheckpointError::Incompatible {
                detail: format!(
                    "shape mismatch for `{name}`: checkpoint {:?} vs model {:?}",
                    shape,
                    tensor.shape()
                ),
            });
        }
    }
    for (name, tensor) in named {
        let (_, _, bits) = by_name[name.as_str()];
        tensor.set_data_bits(bits);
    }
    Ok(())
}

/// Encode an [`AdamState`] for a [`sections::ADAM`] section.
pub fn encode_adam_state(state: &AdamState) -> Vec<u8> {
    let mut w = SectionWriter::new();
    w.put_f32(state.lr);
    w.put_f32(state.beta1);
    w.put_f32(state.beta2);
    w.put_f32(state.eps);
    w.put_f32(state.weight_decay);
    w.put_u64(state.t);
    w.put_u32(state.m.len() as u32);
    for buf in &state.m {
        w.put_f32_slice(buf);
    }
    w.put_u32(state.v.len() as u32);
    for buf in &state.v {
        w.put_f32_slice(buf);
    }
    w.finish()
}

/// Decode a [`sections::ADAM`] payload.
pub fn decode_adam_state(bytes: &[u8], section: &str) -> Result<AdamState, CheckpointError> {
    let mut r = SectionReader::new(bytes, section);
    let lr = r.get_f32("lr")?;
    let beta1 = r.get_f32("beta1")?;
    let beta2 = r.get_f32("beta2")?;
    let eps = r.get_f32("eps")?;
    let weight_decay = r.get_f32("weight_decay")?;
    let t = r.get_u64("step counter")?;
    let n_m = r.get_u32("first-moment buffer count")? as usize;
    let mut m = Vec::with_capacity(n_m.min(1024));
    for _ in 0..n_m {
        m.push(r.get_f32_slice("first moment")?);
    }
    let n_v = r.get_u32("second-moment buffer count")? as usize;
    let mut v = Vec::with_capacity(n_v.min(1024));
    for _ in 0..n_v {
        v.push(r.get_f32_slice("second moment")?);
    }
    r.finish()?;
    Ok(AdamState {
        lr,
        beta1,
        beta2,
        eps,
        weight_decay,
        t,
        m,
        v,
    })
}

/// Encode a [`SchedulerState`] for a [`sections::SCHEDULER`] section.
pub fn encode_scheduler_state(state: &SchedulerState) -> Vec<u8> {
    let mut w = SectionWriter::new();
    match *state {
        SchedulerState::Step {
            base_lr,
            step_size,
            gamma,
            epoch,
        } => {
            w.put_u32(0);
            w.put_f32(base_lr);
            w.put_u64(step_size as u64);
            w.put_f32(gamma);
            w.put_u64(epoch as u64);
        }
        SchedulerState::Cosine {
            base_lr,
            min_lr,
            total_epochs,
            epoch,
        } => {
            w.put_u32(1);
            w.put_f32(base_lr);
            w.put_f32(min_lr);
            w.put_u64(total_epochs as u64);
            w.put_u64(epoch as u64);
        }
    }
    w.finish()
}

/// Decode a [`sections::SCHEDULER`] payload.
pub fn decode_scheduler_state(
    bytes: &[u8],
    section: &str,
) -> Result<SchedulerState, CheckpointError> {
    let mut r = SectionReader::new(bytes, section);
    let kind = r.get_u32("scheduler kind")?;
    let state = match kind {
        0 => SchedulerState::Step {
            base_lr: r.get_f32("base_lr")?,
            step_size: r.get_usize("step_size")?,
            gamma: r.get_f32("gamma")?,
            epoch: r.get_usize("epoch")?,
        },
        1 => SchedulerState::Cosine {
            base_lr: r.get_f32("base_lr")?,
            min_lr: r.get_f32("min_lr")?,
            total_epochs: r.get_usize("total_epochs")?,
            epoch: r.get_usize("epoch")?,
        },
        other => {
            return Err(CheckpointError::Malformed {
                context: format!("section `{section}`"),
                detail: format!("unknown scheduler kind tag {other}"),
            })
        }
    };
    r.finish()?;
    Ok(state)
}

// ---------------------------------------------------------------------------
// JSON state dicts (original API, now crash-safe)
// ---------------------------------------------------------------------------

/// Serialized tensor: shape + row-major data.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct TensorState {
    pub shape: Vec<usize>,
    pub data: Vec<f32>,
}

/// Name → tensor state, ordered for reproducible files.
pub type StateDict = BTreeMap<String, TensorState>;

/// Snapshot named parameters into a [`StateDict`].
pub fn state_dict_of(named: &[(String, Tensor)]) -> StateDict {
    named
        .iter()
        .map(|(n, t)| {
            (
                n.clone(),
                TensorState {
                    shape: t.shape().to_vec(),
                    data: t.to_vec(),
                },
            )
        })
        .collect()
}

/// Write a state dict as JSON via [`atomic_write`], so a crash mid-save
/// leaves any previous checkpoint at `path` intact.
pub fn save_state_dict(path: &Path, named: &[(String, Tensor)]) -> io::Result<()> {
    let sd = state_dict_of(named);
    let json = serde_json::to_string(&sd).map_err(io::Error::other)?;
    atomic_write(path, json.as_bytes())
}

/// Read a state dict from JSON and copy values into matching parameters.
///
/// Every parameter in `named` must be present in the file with the same
/// shape; extra file entries are ignored (allows loading an encoder out of
/// a larger model checkpoint).
pub fn load_state_dict(path: &Path, named: &[(String, Tensor)]) -> io::Result<()> {
    let json = fs::read_to_string(path)?;
    let sd: StateDict = serde_json::from_str(&json).map_err(io::Error::other)?;
    apply_state_dict(&sd, named)
}

/// Copy a [`StateDict`]'s values into matching parameters.
pub fn apply_state_dict(sd: &StateDict, named: &[(String, Tensor)]) -> io::Result<()> {
    for (name, tensor) in named {
        let state = sd.get(name).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("missing parameter `{name}`"),
            )
        })?;
        if state.shape != tensor.shape() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "shape mismatch for `{name}`: checkpoint {:?} vs model {:?}",
                    state.shape,
                    tensor.shape()
                ),
            ));
        }
        tensor.set_data(&state.data);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, Module};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aimts_nn_ckpt_{tag}"));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Reference values of the IEEE polynomial.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn roundtrip_preserves_weights() {
        let path = tmp_dir("json").join("lin.json");

        let a = Linear::new(3, 2, true, 42);
        let mut named = Vec::new();
        a.named_parameters("enc", &mut named);
        save_state_dict(&path, &named).unwrap();

        let b = Linear::new(3, 2, true, 7);
        let mut named_b = Vec::new();
        b.named_parameters("enc", &mut named_b);
        assert_ne!(named[0].1.to_vec(), named_b[0].1.to_vec());
        load_state_dict(&path, &named_b).unwrap();
        assert_eq!(named[0].1.to_vec(), named_b[0].1.to_vec());
        assert_eq!(named[1].1.to_vec(), named_b[1].1.to_vec());
    }

    #[test]
    fn missing_parameter_errors() {
        let sd = StateDict::new();
        let lin = Linear::new(2, 2, false, 0);
        let mut named = Vec::new();
        lin.named_parameters("x", &mut named);
        assert!(apply_state_dict(&sd, &named).is_err());
    }

    #[test]
    fn shape_mismatch_errors() {
        let a = Linear::new(3, 2, false, 0);
        let mut named = Vec::new();
        a.named_parameters("m", &mut named);
        let sd = state_dict_of(&named);
        let b = Linear::new(3, 4, false, 0);
        let mut named_b = Vec::new();
        b.named_parameters("m", &mut named_b);
        assert!(apply_state_dict(&sd, &named_b).is_err());
    }

    #[test]
    fn binary_container_roundtrip() {
        let mut ck = Checkpoint::new(123, 7);
        ck.push_section("alpha", vec![1, 2, 3]);
        ck.push_section("beta", Vec::new());
        ck.push_section("gamma", (0u8..255).collect());
        let bytes = ck.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ck);
        assert_eq!(back.step, 123);
        assert_eq!(back.epoch, 7);
        assert_eq!(back.section("beta"), Some(&[][..]));
        assert!(back.section("delta").is_none());
        assert!(matches!(
            back.require_section("delta"),
            Err(CheckpointError::MissingSection { .. })
        ));
    }

    #[test]
    fn binary_save_load_roundtrip_on_disk() {
        let path = tmp_dir("bin").join("ck.aimts");
        let mut ck = Checkpoint::new(1, 2);
        ck.push_section("s", vec![9; 64]);
        ck.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ck);
        // No temp litter left behind.
        let litter: Vec<_> = fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(litter.is_empty(), "temp files left behind: {litter:?}");
    }

    #[test]
    fn layout_reports_section_spans() {
        let mut ck = Checkpoint::new(0, 0);
        ck.push_section("one", vec![0; 10]);
        ck.push_section("two", vec![0; 20]);
        let bytes = ck.to_bytes();
        let (header_end, spans) = layout(&bytes).unwrap();
        assert_eq!(header_end, HEADER_LEN);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "one");
        assert_eq!(spans[0].start, HEADER_LEN);
        assert_eq!(spans[0].end - spans[0].payload_start, 10);
        assert_eq!(spans[1].start, spans[0].end);
        assert_eq!(spans[1].end, bytes.len());
    }

    #[test]
    fn tensor_codec_roundtrips_including_nonfinite() {
        let t = Tensor::from_vec(
            vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1.5e-42],
            &[5],
        );
        let named = vec![("w".to_string(), t)];
        let bytes = encode_named_tensors(&named);
        let entries = decode_named_tensors(&bytes, "params").unwrap();
        let target = vec![("w".to_string(), Tensor::from_vec(vec![0.0; 5], &[5]))];
        apply_named_tensors(&entries, &target).unwrap();
        assert_eq!(target[0].1.data_bits(), named[0].1.data_bits());
    }

    #[test]
    fn apply_named_tensors_rejects_mismatches_without_mutating() {
        let src = vec![("w".to_string(), Tensor::from_vec(vec![1.0, 2.0], &[2]))];
        let entries = decode_named_tensors(&encode_named_tensors(&src), "params").unwrap();
        // Missing name.
        let other = vec![("x".to_string(), Tensor::from_vec(vec![0.0, 0.0], &[2]))];
        assert!(matches!(
            apply_named_tensors(&entries, &other),
            Err(CheckpointError::Incompatible { .. })
        ));
        assert_eq!(other[0].1.to_vec(), vec![0.0, 0.0]);
        // Wrong shape.
        let other = vec![("w".to_string(), Tensor::from_vec(vec![0.0; 3], &[3]))];
        assert!(matches!(
            apply_named_tensors(&entries, &other),
            Err(CheckpointError::Incompatible { .. })
        ));
        assert_eq!(other[0].1.to_vec(), vec![0.0; 3]);
    }

    #[test]
    fn adam_and_scheduler_codecs_roundtrip() {
        let adam = AdamState {
            lr: 0.1,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.01,
            t: 42,
            m: vec![vec![1.0, f32::NAN], vec![]],
            v: vec![vec![2.0, f32::INFINITY], vec![]],
        };
        let back = decode_adam_state(&encode_adam_state(&adam), "adam").unwrap();
        assert_eq!(back.t, adam.t);
        assert_eq!(back.lr.to_bits(), adam.lr.to_bits());
        assert_eq!(back.m[0][1].to_bits(), adam.m[0][1].to_bits());
        assert_eq!(back.v, adam.v);

        for state in [
            SchedulerState::Step {
                base_lr: 0.1,
                step_size: 3,
                gamma: 0.5,
                epoch: 9,
            },
            SchedulerState::Cosine {
                base_lr: 1.0,
                min_lr: 0.01,
                total_epochs: 50,
                epoch: 13,
            },
        ] {
            let back =
                decode_scheduler_state(&encode_scheduler_state(&state), "scheduler").unwrap();
            assert_eq!(back, state);
        }
    }

    #[test]
    fn load_rejects_garbage_and_wrong_versions() {
        assert!(matches!(
            Checkpoint::from_bytes(&[]),
            Err(CheckpointError::Truncated { .. })
        ));
        assert!(matches!(
            Checkpoint::from_bytes(&[0u8; 64]),
            Err(CheckpointError::BadMagic)
        ));
        let mut bytes = Checkpoint::new(0, 0).to_bytes();
        bytes[8] = 99; // version
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::UnsupportedVersion { found: 99, .. })
        ));
        // Header flip (step counter) trips the header CRC.
        let mut bytes = Checkpoint::new(0, 0).to_bytes();
        bytes[13] ^= 0x40;
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::HeaderCorrupt)
        ));
        // Trailing garbage is rejected.
        let mut bytes = Checkpoint::new(0, 0).to_bytes();
        bytes.push(0);
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::Malformed { .. })
        ));
    }

    #[test]
    fn failed_save_preserves_previous_file_and_cleans_temp() {
        let dir = tmp_dir("atomic");
        let path = dir.join("ck.aimts");
        let mut first = Checkpoint::new(1, 1);
        first.push_section("s", vec![7; 128]);
        first.save(&path).unwrap();
        let original = fs::read(&path).unwrap();

        let mut second = Checkpoint::new(2, 2);
        second.push_section("s", vec![8; 128]);
        let err = atomic_write_failing_after(&path, &second.to_bytes(), 40);
        assert!(err.is_err(), "injected crash must surface as an error");
        assert_eq!(
            fs::read(&path).unwrap(),
            original,
            "failed save clobbered the previous checkpoint"
        );
        let litter: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(litter.is_empty(), "temp files left behind: {litter:?}");
        // And the still-valid original loads.
        assert_eq!(Checkpoint::load(&path).unwrap(), first);
    }

    #[test]
    fn error_display_names_sections() {
        let e = CheckpointError::ChecksumMismatch {
            section: "adam".to_string(),
        };
        assert!(e.to_string().contains("`adam`"));
        let e = CheckpointError::Truncated {
            context: "section `params` payload".to_string(),
        };
        assert!(e.to_string().contains("params"));
    }
}
