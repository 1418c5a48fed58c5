//! The versioned, checksummed on-disk profile format.
//!
//! ```text
//! +---------+----------+-------------+----------------+-----------+
//! | "HPMP"  | version  | payload_len |    payload     | checksum  |
//! | 4 bytes | u32 LE   | u64 LE      | payload_len B  | u64 LE    |
//! +---------+----------+-------------+----------------+-----------+
//! ```
//!
//! The checksum is FNV-1a over the payload bytes, so any bit flip in
//! the body is caught before the payload is parsed. The payload itself
//! is length-prefixed throughout, so a parse of corrupt-but-checksummed
//! data can only fail cleanly ([`ProfileError::Truncated`] /
//! [`ProfileError::Malformed`]), never panic or over-allocate: every
//! element count is bounded by the remaining payload size before a
//! vector is reserved.
//!
//! Payload layout (all integers LE):
//!
//! ```text
//! program_hash u64 · config_hash u64 · workload str
//! runs u32
//! field_count u32 · { class str · field str · weight f64 · last_run u64 }*
//! decision_count u32 · { class str · field str · kind u8 · cycles u64 }*
//! hot_method_count u32 · { name str }*          (v2+; absent in v1)
//! ```

use hpmopt_prim::fnv1a;

use crate::wire::{ByteReader, ByteWriter};
use crate::{DecisionKind, DecisionRecord, FieldProfile, Fingerprint, Profile};

/// File magic: "HPMP" (HPM Profile).
pub const MAGIC: [u8; 4] = *b"HPMP";

/// Current format version. Version 1 files (no hot-method section) are
/// still readable — they load with an empty hot-method list. Anything
/// else is [`ProfileError::UnsupportedVersion`] and degrades to a cold
/// start.
pub const FORMAT_VERSION: u32 = 2;

/// Why a profile file could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileError {
    /// Fewer bytes than a structurally complete file requires.
    Truncated,
    /// The magic number is not `HPMP` — not a profile file.
    BadMagic,
    /// The format version is not [`FORMAT_VERSION`].
    UnsupportedVersion,
    /// The payload checksum does not match (bit rot, partial write).
    ChecksumMismatch,
    /// Checksummed but structurally invalid payload (invalid UTF-8,
    /// unknown decision kind, trailing garbage). In practice this means
    /// the file was written by something else entirely.
    Malformed,
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ProfileError::Truncated => "truncated profile file",
            ProfileError::BadMagic => "not a profile file (bad magic)",
            ProfileError::UnsupportedVersion => "unsupported profile format version",
            ProfileError::ChecksumMismatch => "profile checksum mismatch",
            ProfileError::Malformed => "malformed profile payload",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ProfileError {}

/// Smallest possible encoding of a string: the `u32` length prefix.
/// Used to bound element counts before allocating.
const MIN_STR: usize = 4;
/// Minimum encoded size of one field record.
const MIN_FIELD: usize = MIN_STR * 2 + 8 + 8;
/// Minimum encoded size of one decision record.
const MIN_DECISION: usize = MIN_STR * 2 + 1 + 8;

impl Profile {
    /// Serialize to the on-disk format.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut p = ByteWriter::new();
        p.put_u64(self.fingerprint.program_hash);
        p.put_u64(self.fingerprint.config_hash);
        p.put_str(&self.fingerprint.workload);
        p.put_u32(self.runs);
        p.put_u32(self.fields.len() as u32);
        for f in &self.fields {
            p.put_str(&f.class);
            p.put_str(&f.field);
            p.put_f64(f.weight);
            p.put_u64(f.last_run_misses);
        }
        p.put_u32(self.decisions.len() as u32);
        for d in &self.decisions {
            p.put_str(&d.class);
            p.put_str(&d.field);
            p.put_u8(d.kind as u8);
            p.put_u64(d.cycles);
        }
        p.put_u32(self.hot_methods.len() as u32);
        for m in &self.hot_methods {
            p.put_str(m);
        }
        let payload = p.finish();

        let mut w = ByteWriter::new();
        w.put_u8(MAGIC[0]);
        w.put_u8(MAGIC[1]);
        w.put_u8(MAGIC[2]);
        w.put_u8(MAGIC[3]);
        w.put_u32(FORMAT_VERSION);
        w.put_u64(payload.len() as u64);
        let mut out = w.finish();
        out.extend_from_slice(&payload);
        out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        out
    }

    /// Parse the on-disk format.
    ///
    /// # Errors
    ///
    /// Any [`ProfileError`]; decoding never panics on hostile input.
    pub fn decode(bytes: &[u8]) -> Result<Profile, ProfileError> {
        let mut r = ByteReader::new(bytes);
        let magic = [r.get_u8()?, r.get_u8()?, r.get_u8()?, r.get_u8()?];
        if magic != MAGIC {
            return Err(ProfileError::BadMagic);
        }
        let version = r.get_u32()?;
        if version != FORMAT_VERSION && version != 1 {
            return Err(ProfileError::UnsupportedVersion);
        }
        let payload_len = r.get_u64()? as usize;
        // checksum (8 bytes) must follow the payload.
        if r.remaining() < payload_len + 8 {
            return Err(ProfileError::Truncated);
        }
        if r.remaining() > payload_len + 8 {
            return Err(ProfileError::Malformed);
        }
        let header = bytes.len() - r.remaining();
        let payload = &bytes[header..header + payload_len];
        let stored = u64::from_le_bytes(bytes[header + payload_len..].try_into().unwrap());
        if fnv1a(payload) != stored {
            return Err(ProfileError::ChecksumMismatch);
        }

        let mut r = ByteReader::new(payload);
        let program_hash = r.get_u64()?;
        let config_hash = r.get_u64()?;
        let workload = r.get_str()?;
        let runs = r.get_u32()?;

        let field_count = r.get_u32()? as usize;
        if field_count > r.remaining() / MIN_FIELD {
            return Err(ProfileError::Malformed);
        }
        let mut fields = Vec::with_capacity(field_count);
        for _ in 0..field_count {
            fields.push(FieldProfile {
                class: r.get_str()?,
                field: r.get_str()?,
                weight: r.get_f64()?,
                last_run_misses: r.get_u64()?,
            });
        }

        let decision_count = r.get_u32()? as usize;
        if decision_count > r.remaining() / MIN_DECISION {
            return Err(ProfileError::Malformed);
        }
        let mut decisions = Vec::with_capacity(decision_count);
        for _ in 0..decision_count {
            decisions.push(DecisionRecord {
                class: r.get_str()?,
                field: r.get_str()?,
                kind: DecisionKind::from_u8(r.get_u8()?).ok_or(ProfileError::Malformed)?,
                cycles: r.get_u64()?,
            });
        }

        // v2 appends the hot-method list; v1 files simply end here.
        let mut hot_methods = Vec::new();
        if version >= 2 {
            let hot_count = r.get_u32()? as usize;
            if hot_count > r.remaining() / MIN_STR {
                return Err(ProfileError::Malformed);
            }
            hot_methods.reserve(hot_count);
            for _ in 0..hot_count {
                hot_methods.push(r.get_str()?);
            }
        }
        if r.remaining() != 0 {
            return Err(ProfileError::Malformed);
        }

        Ok(Profile {
            fingerprint: Fingerprint {
                program_hash,
                config_hash,
                workload,
            },
            runs,
            fields,
            decisions,
            hot_methods,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Profile {
        let mut p = Profile::new(Fingerprint::new(0x1111, 0x2222, "db"));
        p.record_field("String", "value", 97);
        p.record_field("Node", "next", 12);
        p.record_decision("String", "value", DecisionKind::Enabled, 41_000);
        p.record_decision("String", "", DecisionKind::Reverted, 90_000);
        p.seal_run();
        p
    }

    #[test]
    fn encode_decode_round_trips() {
        let p = sample();
        assert_eq!(Profile::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn hot_methods_round_trip() {
        let mut p = sample();
        p.record_hot_method("main");
        p.record_hot_method("inner");
        p.record_hot_method("main"); // deduplicated
        let back = Profile::decode(&p.encode()).unwrap();
        assert_eq!(back.hot_methods, vec!["main", "inner"]);
        assert_eq!(back, p);
    }

    #[test]
    fn version_1_files_load_with_empty_hot_methods() {
        // Hand-roll a v1 file: identical payload minus the trailing
        // hot-method section, version byte 1.
        let p = sample();
        let mut w = ByteWriter::new();
        w.put_u64(p.fingerprint.program_hash);
        w.put_u64(p.fingerprint.config_hash);
        w.put_str(&p.fingerprint.workload);
        w.put_u32(p.runs);
        w.put_u32(p.fields.len() as u32);
        for f in &p.fields {
            w.put_str(&f.class);
            w.put_str(&f.field);
            w.put_f64(f.weight);
            w.put_u64(f.last_run_misses);
        }
        w.put_u32(p.decisions.len() as u32);
        for d in &p.decisions {
            w.put_str(&d.class);
            w.put_str(&d.field);
            w.put_u8(d.kind as u8);
            w.put_u64(d.cycles);
        }
        let payload = w.finish();
        let mut file = ByteWriter::new();
        for b in MAGIC {
            file.put_u8(b);
        }
        file.put_u32(1);
        file.put_u64(payload.len() as u64);
        let mut bytes = file.finish();
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&fnv1a(&payload).to_le_bytes());

        let back = Profile::decode(&bytes).unwrap();
        assert_eq!(back, p, "v1 payload decodes identically");
        assert!(back.hot_methods.is_empty());
    }

    #[test]
    fn empty_profile_round_trips() {
        let p = Profile::new(Fingerprint::new(0, 0, ""));
        assert_eq!(Profile::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn every_truncation_point_fails_cleanly() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            let err = Profile::decode(&bytes[..len]).unwrap_err();
            assert!(
                matches!(err, ProfileError::Truncated | ProfileError::Malformed),
                "prefix of {len} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn any_payload_bit_flip_is_caught() {
        let good = sample().encode();
        // Flip one bit in every payload byte (skipping the 16-byte
        // header) and require the checksum to catch it.
        for i in 16..good.len() - 8 {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert_eq!(
                Profile::decode(&bad).unwrap_err(),
                ProfileError::ChecksumMismatch,
                "flip at byte {i}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_detected() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert_eq!(Profile::decode(&bytes).unwrap_err(), ProfileError::BadMagic);

        let mut bytes = sample().encode();
        bytes[4] = 99;
        assert_eq!(
            Profile::decode(&bytes).unwrap_err(),
            ProfileError::UnsupportedVersion
        );
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert_eq!(
            Profile::decode(&bytes).unwrap_err(),
            ProfileError::Malformed
        );
    }

    #[test]
    fn absurd_counts_do_not_allocate() {
        // A payload claiming u32::MAX fields must be rejected by the
        // size bound, not by an OOM in Vec::with_capacity.
        let mut p = ByteWriter::new();
        p.put_u64(1);
        p.put_u64(2);
        p.put_str("w");
        p.put_u32(1);
        p.put_u32(u32::MAX); // field count
        let payload = p.finish();
        let mut w = ByteWriter::new();
        w.put_u8(b'H');
        w.put_u8(b'P');
        w.put_u8(b'M');
        w.put_u8(b'P');
        w.put_u32(FORMAT_VERSION);
        w.put_u64(payload.len() as u64);
        let mut bytes = w.finish();
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        assert_eq!(
            Profile::decode(&bytes).unwrap_err(),
            ProfileError::Malformed
        );
    }
}
