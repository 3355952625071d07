//! The versioned checkpoint word-stream format.
//!
//! A checkpoint is a flat `Vec<u64>`: a magic word, a format version, a
//! payload length, the payload, and a trailing CRC over everything
//! before it. Flat words keep the format trivially deterministic (no
//! maps, no padding, no endianness games — the words *are* the
//! canonical encoding; byte serialization is little-endian word dump),
//! diffable in tests, and addressable by the fault injector.

use std::error::Error;
use std::fmt;

use faultsim::FaultTarget;

/// First word of every checkpoint: "WFQCKPT" packed into a u64.
const MAGIC: u64 = 0x5746_5143_4b50_5431;

/// Current checkpoint format version. Bump on any layout change; old
/// versions are refused at restore, never reinterpreted. Version 2
/// dropped the per-entry quantizer tick and FIFO stamp, which the
/// scheduler no longer keeps. Version 3 gives each hierarchical-WFQ
/// class clock only its member flows, which shortens that policy's
/// state.
pub const VERSION: u64 = 3;

/// Header words before the payload (magic, version, payload length).
const HEADER_WORDS: usize = 3;

/// Why a checkpoint could not be read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The first word is not the checkpoint magic.
    BadMagic {
        /// The word found where the magic belongs.
        found: u64,
    },
    /// The format version is not [`VERSION`].
    BadVersion {
        /// The version the checkpoint claims.
        found: u64,
    },
    /// The word stream is shorter than its header promises.
    Truncated {
        /// Words expected (header + payload + CRC).
        expected: usize,
        /// Words present.
        found: usize,
    },
    /// The trailing CRC does not match the words before it — the
    /// checkpoint was corrupted (or faulted) in flight.
    Corrupt {
        /// CRC recomputed over the stored words.
        expected: u64,
        /// CRC word actually stored.
        found: u64,
    },
    /// A reader ran past the end of the payload — the payload is valid
    /// but does not contain what the caller tried to decode.
    Exhausted,
    /// A decoded word is out of range for the state it restores (a tag
    /// outside the geometry, an unconfigured flow, a queue longer than
    /// the buffer).
    OutOfRange {
        /// What the word encodes.
        field: &'static str,
        /// The word found.
        value: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic { found } => {
                write!(f, "not a checkpoint (leading word {found:#x})")
            }
            CheckpointError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported checkpoint version {found} (expected {VERSION})"
                )
            }
            CheckpointError::Truncated { expected, found } => {
                write!(
                    f,
                    "truncated checkpoint: {found} words, header promises {expected}"
                )
            }
            CheckpointError::Corrupt { expected, found } => {
                write!(
                    f,
                    "checkpoint CRC mismatch: stored {found:#x}, computed {expected:#x}"
                )
            }
            CheckpointError::Exhausted => f.write_str("checkpoint payload exhausted"),
            CheckpointError::OutOfRange { field, value } => {
                write!(f, "checkpoint {field} {value} is out of range")
            }
        }
    }
}

impl Error for CheckpointError {}

/// FNV-1a over the little-endian bytes of `words` — the same hash the
/// campaign runner pins departure sequences with, reused as the
/// checkpoint seal.
fn crc(words: &[u64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
    hash
}

/// Serializes scheduler state into checkpoint words.
///
/// # Example
///
/// ```
/// use statesync::{Checkpoint, CheckpointBuilder};
///
/// let mut b = CheckpointBuilder::new();
/// b.word(7);
/// b.float(1.5);
/// let ckpt = b.finish();
/// let mut r = ckpt.reader().unwrap();
/// assert_eq!(r.word().unwrap(), 7);
/// assert_eq!(r.float().unwrap(), 1.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CheckpointBuilder {
    payload: Vec<u64>,
}

impl CheckpointBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one raw word.
    pub fn word(&mut self, w: u64) {
        self.payload.push(w);
    }

    /// Appends a float as its IEEE-754 bit pattern (exact round trip).
    pub fn float(&mut self, f: f64) {
        self.payload.push(f.to_bits());
    }

    /// Appends a length-prefixed word slice.
    pub fn slice(&mut self, ws: &[u64]) {
        self.payload.push(ws.len() as u64);
        self.payload.extend_from_slice(ws);
    }

    /// Seals the payload into a checkpoint (header + payload + CRC).
    pub fn finish(self) -> Checkpoint {
        let mut words = Vec::with_capacity(HEADER_WORDS + self.payload.len() + 1);
        words.push(MAGIC);
        words.push(VERSION);
        words.push(self.payload.len() as u64);
        words.extend_from_slice(&self.payload);
        words.push(crc(&words));
        Checkpoint { words }
    }
}

/// A sealed checkpoint: the canonical word stream of one scheduler's
/// full state at one instant.
///
/// Two checkpoints of identical logical state compare equal word for
/// word — the byte-diff determinism gate in CI rests on exactly that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    words: Vec<u64>,
}

impl Checkpoint {
    /// Rewraps raw words (a file load, a channel transfer) without
    /// validation; [`Checkpoint::verify`] or [`Checkpoint::reader`]
    /// validate on use.
    pub fn from_words(words: Vec<u64>) -> Self {
        Self { words }
    }

    /// The canonical word stream, header and CRC included.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Size of the canonical little-endian byte encoding.
    pub fn byte_len(&self) -> usize {
        self.words.len() * 8
    }

    /// The canonical little-endian byte encoding (what a byte-diff gate
    /// compares).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// Checks magic, version, length, and CRC.
    ///
    /// # Errors
    ///
    /// The first [`CheckpointError`] found, in that order.
    pub fn verify(&self) -> Result<(), CheckpointError> {
        let Some(&magic) = self.words.first() else {
            return Err(CheckpointError::Truncated {
                expected: HEADER_WORDS + 1,
                found: 0,
            });
        };
        if magic != MAGIC {
            return Err(CheckpointError::BadMagic { found: magic });
        }
        if self.words.len() < HEADER_WORDS {
            return Err(CheckpointError::Truncated {
                expected: HEADER_WORDS + 1,
                found: self.words.len(),
            });
        }
        if self.words[1] != VERSION {
            return Err(CheckpointError::BadVersion {
                found: self.words[1],
            });
        }
        // A length word past the address space can never be met: it
        // saturates instead of overflowing.
        let expected = usize::try_from(self.words[2])
            .unwrap_or(usize::MAX)
            .saturating_add(HEADER_WORDS + 1);
        if self.words.len() != expected {
            return Err(CheckpointError::Truncated {
                expected,
                found: self.words.len(),
            });
        }
        let body = &self.words[..self.words.len() - 1];
        let stored = *self.words.last().expect("non-empty");
        let computed = crc(body);
        if stored != computed {
            return Err(CheckpointError::Corrupt {
                expected: computed,
                found: stored,
            });
        }
        Ok(())
    }

    /// Verifies the checkpoint and opens a payload reader.
    ///
    /// # Errors
    ///
    /// As for [`Checkpoint::verify`].
    pub fn reader(&self) -> Result<CheckpointReader<'_>, CheckpointError> {
        self.verify()?;
        let payload_len = self.words[2] as usize;
        Ok(CheckpointReader {
            payload: &self.words[HEADER_WORDS..HEADER_WORDS + payload_len],
            pos: 0,
        })
    }
}

/// Checkpoint words are themselves corruptible state: a checkpoint held
/// for restore (or shipped between shards) can take an SEU like any
/// SRAM. Flips land anywhere in the stream — payload, header, or the
/// CRC word itself — and every case surfaces as a structured
/// [`CheckpointError`] at restore time instead of silently restoring
/// the wrong schedule.
impl FaultTarget for Checkpoint {
    fn fault_words(&self) -> usize {
        self.words.len()
    }

    fn fault_word_bits(&self, _word: usize) -> u32 {
        64
    }

    fn inject_fault(&mut self, word: usize, mask: u64) -> u64 {
        let old = self.words[word];
        self.words[word] ^= mask;
        old
    }
}

/// Sequential decoder over a verified checkpoint payload.
#[derive(Debug, Clone)]
pub struct CheckpointReader<'a> {
    payload: &'a [u64],
    pos: usize,
}

impl CheckpointReader<'_> {
    /// Reads one raw word.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Exhausted`] past the payload end.
    pub fn word(&mut self) -> Result<u64, CheckpointError> {
        let w = self
            .payload
            .get(self.pos)
            .copied()
            .ok_or(CheckpointError::Exhausted)?;
        self.pos += 1;
        Ok(w)
    }

    /// Reads a float stored by [`CheckpointBuilder::float`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Exhausted`] past the payload end.
    pub fn float(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.word()?))
    }

    /// Reads a slice stored by [`CheckpointBuilder::slice`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Exhausted`] if the prefix or body overruns.
    pub fn slice(&mut self) -> Result<Vec<u64>, CheckpointError> {
        let len = usize::try_from(self.word()?)
            .ok()
            .filter(|&len| len <= self.remaining())
            .ok_or(CheckpointError::Exhausted)?;
        let out = self.payload[self.pos..self.pos + len].to_vec();
        self.pos += len;
        Ok(out)
    }

    /// Words left unread.
    pub fn remaining(&self) -> usize {
        self.payload.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut b = CheckpointBuilder::new();
        b.word(42);
        b.float(-0.125);
        b.slice(&[1, 2, 3]);
        b.finish()
    }

    #[test]
    fn round_trips_words_floats_and_slices() {
        let ckpt = sample();
        ckpt.verify().unwrap();
        let mut r = ckpt.reader().unwrap();
        assert_eq!(r.word().unwrap(), 42);
        assert_eq!(r.float().unwrap(), -0.125);
        assert_eq!(r.slice().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.word(), Err(CheckpointError::Exhausted));
    }

    #[test]
    fn identical_payloads_are_byte_identical() {
        assert_eq!(sample().to_bytes(), sample().to_bytes());
        assert_eq!(sample().byte_len(), sample().words().len() * 8);
    }

    #[test]
    fn distinct_payloads_differ() {
        let mut b = CheckpointBuilder::new();
        b.word(43);
        b.float(-0.125);
        b.slice(&[1, 2, 3]);
        assert_ne!(b.finish(), sample());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        // The fault-injection contract: no SEU on a checkpoint word may
        // survive verification, wherever it lands — payload, length,
        // version, magic, or the CRC word itself.
        let reference = sample();
        for word in 0..reference.fault_words() {
            for bit in [0u32, 17, 63] {
                let mut hit = reference.clone();
                let old = hit.inject_fault(word, 1u64 << bit);
                assert_eq!(old, reference.words()[word]);
                assert!(
                    hit.verify().is_err(),
                    "flip of word {word} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncation_and_foreign_data_are_refused() {
        let mut words = sample().words().to_vec();
        words.pop();
        assert!(matches!(
            Checkpoint::from_words(words).verify(),
            Err(CheckpointError::Truncated { .. })
        ));
        assert!(matches!(
            Checkpoint::from_words(vec![0xdead_beef, 1, 0, 0]).verify(),
            Err(CheckpointError::BadMagic { .. })
        ));
        assert!(matches!(
            Checkpoint::from_words(Vec::new()).verify(),
            Err(CheckpointError::Truncated { .. })
        ));
    }

    #[test]
    fn future_versions_are_refused_not_reinterpreted() {
        let mut words = sample().words().to_vec();
        words[1] = VERSION + 1;
        // Re-seal so only the version check can object.
        let last = words.len() - 1;
        words[last] = crc(&words[..last]);
        assert_eq!(
            Checkpoint::from_words(words).verify(),
            Err(CheckpointError::BadVersion { found: VERSION + 1 })
        );
    }

    #[test]
    fn slice_overrun_is_exhausted_not_panic() {
        let mut b = CheckpointBuilder::new();
        b.word(100); // claims a 100-word slice that is not there
        let ckpt = b.finish();
        let mut r = ckpt.reader().unwrap();
        assert_eq!(r.slice(), Err(CheckpointError::Exhausted));
    }

    #[test]
    fn slice_length_near_the_word_limit_is_exhausted_not_panic() {
        for len in [u64::MAX, u64::MAX - 1, 1 << 63] {
            let mut b = CheckpointBuilder::new();
            b.word(len);
            b.word(1);
            let ckpt = b.finish();
            let mut r = ckpt.reader().unwrap();
            assert_eq!(r.slice(), Err(CheckpointError::Exhausted), "length {len}");
        }
    }

    #[test]
    fn header_length_at_the_word_limit_is_truncated_not_panic() {
        for len in [u64::MAX, u64::MAX - 3] {
            let mut words = sample().words().to_vec();
            words[2] = len;
            let last = words.len() - 1;
            words[last] = crc(&words[..last]);
            assert!(matches!(
                Checkpoint::from_words(words).verify(),
                Err(CheckpointError::Truncated { .. })
            ));
        }
    }
}
