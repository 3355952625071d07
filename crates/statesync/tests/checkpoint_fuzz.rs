//! Seeded fuzzing of the checkpoint parser: [`Checkpoint::verify`] and
//! the [`CheckpointReader`] behind [`Checkpoint::reader`].
//!
//! A bit flip anywhere in a checkpoint breaks its CRC, so random
//! corruption alone never reaches the decoding paths. Each case here
//! therefore mutates a valid image and reseals it: payload mutations go
//! back through [`CheckpointBuilder`], header mutations get a recomputed
//! CRC. The mutations overwrite words with boundary values (0, 1, the
//! payload length, `u64::MAX`, 2^63, …), flip bits, and truncate,
//! extend, insert and delete words. Whatever the image, `verify` and
//! every reader call must return `Ok` or `Err`; they must never panic or
//! abort. The seed and the case count are fixed, so a failure
//! reproduces exactly, and the budget stays well under a second in a
//! debug build.
//!
//! The same holds one level up, for [`HwScheduler::restore`]: a resealed
//! scheduler image whose queue words are out of range (a tag outside
//! the geometry, an unconfigured or over-wide flow id, an over-wide
//! size, more entries than the buffer holds) or whose rank-policy state
//! does not fit the policy (a wrong length, a non-finite float) is
//! refused with [`CheckpointError::OutOfRange`].

use fairq::AnyPolicy;
use scheduler::{HwScheduler, SchedulerConfig};
use statesync::{Checkpoint, CheckpointBuilder, CheckpointError};
use tagsort::SortRetrieveCircuit;
use traffic::{FlowId, FlowSpec, Packet, Time};

const SEED: u64 = 0x5eed_c4e9_2006_0003;
const CASES: usize = 4_000;

/// xorshift64*: small, seedable, and good enough to pick mutations.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The checkpoint seal: FNV-1a over the little-endian bytes of the
/// words before it.
fn seal(words: &mut Vec<u64>) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words.iter() {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
    words.push(hash);
}

/// A word a length or count field may meet at its limits.
fn boundary(rng: &mut Rng, len: usize) -> u64 {
    let len = len as u64;
    let pool = [
        0,
        1,
        2,
        7,
        len,
        len.wrapping_sub(1),
        len + 1,
        u64::from(u32::MAX),
        1 << 32,
        1 << 40,
        1 << 63,
        u64::MAX - 3,
        u64::MAX - 1,
        u64::MAX,
    ];
    pool[rng.below(pool.len())]
}

/// A valid payload of words, floats and length-prefixed slices.
fn payload(rng: &mut Rng) -> Vec<u64> {
    let mut b = CheckpointBuilder::new();
    for _ in 0..rng.below(12) {
        match rng.below(3) {
            0 => b.word(rng.next()),
            1 => b.float(f64::from_bits(rng.next())),
            _ => {
                let body: Vec<u64> = (0..rng.below(6)).map(|_| rng.next()).collect();
                b.slice(&body);
            }
        }
    }
    let words = b.finish().words().to_vec();
    words[3..words.len() - 1].to_vec()
}

fn mutate(rng: &mut Rng, words: &mut Vec<u64>) {
    let at = |rng: &mut Rng, len: usize| rng.below(len.max(1));
    match rng.below(6) {
        0 if !words.is_empty() => {
            let i = at(rng, words.len());
            words[i] = boundary(rng, words.len());
        }
        1 if !words.is_empty() => {
            let i = at(rng, words.len());
            words[i] ^= 1 << rng.below(64);
        }
        2 => words.truncate(rng.below(words.len() + 1)),
        3 => {
            let i = rng.below(words.len() + 1);
            let w = boundary(rng, words.len());
            words.insert(i, w);
        }
        4 if !words.is_empty() => {
            let i = at(rng, words.len());
            words.remove(i);
        }
        _ => {
            for _ in 0..rng.below(4) {
                let w = rng.next();
                words.push(w);
            }
        }
    }
}

/// Decodes `ckpt` with a random read program until the reader refuses.
fn read_all(rng: &mut Rng, ckpt: &Checkpoint) {
    let verified = ckpt.verify();
    let Ok(mut r) = ckpt.reader() else {
        assert!(verified.is_err(), "verify passed but reader refused");
        return;
    };
    assert_eq!(verified, Ok(()));
    for _ in 0..32 {
        let before = r.remaining();
        let step = match rng.below(3) {
            0 => r.word().map(|_| ()),
            1 => r.float().map(|_| ()),
            _ => r.slice().map(|_| ()),
        };
        match step {
            Ok(()) => assert!(r.remaining() < before, "a read consumed nothing"),
            Err(e) => {
                assert_eq!(e, CheckpointError::Exhausted);
                break;
            }
        }
    }
}

#[test]
fn resealed_payload_mutations_never_panic() {
    let mut rng = Rng(SEED);
    for _ in 0..CASES {
        let mut words = payload(&mut rng);
        for _ in 0..1 + rng.below(3) {
            mutate(&mut rng, &mut words);
        }
        let mut b = CheckpointBuilder::new();
        words.iter().for_each(|&w| b.word(w));
        let ckpt = b.finish();
        assert_eq!(ckpt.verify(), Ok(()), "a resealed payload verifies");
        read_all(&mut rng, &ckpt);
    }
}

#[test]
fn resealed_header_mutations_never_panic() {
    let mut rng = Rng(SEED ^ 0x4ead);
    for _ in 0..CASES {
        let mut b = CheckpointBuilder::new();
        payload(&mut rng).iter().for_each(|&w| b.word(w));
        let mut words = b.finish().words().to_vec();
        words.pop();
        let field = rng.below(3);
        words[field] = boundary(&mut rng, words.len());
        if rng.below(2) == 0 {
            mutate(&mut rng, &mut words);
        }
        seal(&mut words);
        read_all(&mut rng, &Checkpoint::from_words(words));
    }
}

const FLOWS: u32 = 3;
const CAPACITY: usize = 4;

fn flows() -> Vec<FlowSpec> {
    (0..FLOWS)
        .map(|i| FlowSpec::new(FlowId(i), 1.0, 1e6))
        .collect()
}

fn config() -> SchedulerConfig {
    SchedulerConfig {
        capacity: CAPACITY,
        ..SchedulerConfig::default()
    }
}

/// A scheduler ranking with any library policy.
type Scheduler = HwScheduler<SortRetrieveCircuit, AnyPolicy>;

/// The payload of a `policy` scheduler's checkpoint holding `packets`
/// packets; its last `7 * packets` words are the queue entries (tag,
/// finish, enqueue cycle, flow, seq, size, arrival), preceded by their
/// count.
fn scheduler_payload(policy: &str, packets: usize) -> Vec<u64> {
    let proto = AnyPolicy::by_name(policy).expect("a library policy");
    let mut s = Scheduler::with_backend_and_policy(&flows(), 1e6, config(), &proto);
    for seq in 0..packets as u64 {
        s.enqueue(Packet {
            flow: FlowId(seq as u32 % FLOWS),
            size_bytes: 100,
            arrival: Time(seq as f64 * 1e-4),
            seq,
        })
        .unwrap();
    }
    let words = s.checkpoint().words().to_vec();
    words[3..words.len() - 1].to_vec()
}

fn restore(policy: &str, payload: &[u64]) -> Result<Scheduler, CheckpointError> {
    let proto = AnyPolicy::by_name(policy).expect("a library policy");
    let mut b = CheckpointBuilder::new();
    payload.iter().for_each(|&w| b.word(w));
    Scheduler::restore(&flows(), 1e6, config(), &proto, &b.finish())
}

#[test]
fn resealed_out_of_range_queue_words_are_refused() {
    let clean = scheduler_payload("wfq", 1);
    assert!(restore("wfq", &clean).is_ok());
    let entry = clean.len() - 7;
    let tag_space = 1u64 << 12;
    for (offset, field, value) in [
        (0, "tag", 1 << 33),
        (0, "tag", 1 << 30),
        (0, "tag", tag_space),
        (3, "flow id", 1 << 33),
        (3, "flow id", u64::from(FLOWS)),
        (5, "packet size", 1 << 33),
    ] {
        let mut words = clean.clone();
        words[entry + offset] = value;
        assert_eq!(
            restore("wfq", &words).err(),
            Some(CheckpointError::OutOfRange { field, value }),
            "{field} word {value}"
        );
    }
}

#[test]
fn a_resealed_queue_longer_than_the_buffer_is_refused() {
    let mut words = scheduler_payload("wfq", CAPACITY);
    let count = words.len() - 7 * CAPACITY - 1;
    assert_eq!(words[count], CAPACITY as u64);
    let last: Vec<u64> = words[words.len() - 7..].to_vec();
    words.extend(last);
    words[count] += 1;
    assert_eq!(
        restore("wfq", &words).err(),
        Some(CheckpointError::OutOfRange {
            field: "queue length",
            value: CAPACITY as u64 + 1,
        })
    );
}

#[test]
fn a_resealed_quantizer_state_of_the_wrong_length_is_refused() {
    let mut words = scheduler_payload("wfq", 0);
    // Thirteen scalar words, then the quantizer slice: length, then
    // four words.
    assert_eq!(words[13], 4);
    words[13] = 3;
    words.remove(14);
    assert_eq!(
        restore("wfq", &words).err(),
        Some(CheckpointError::OutOfRange {
            field: "quantizer state length",
            value: 3,
        })
    );
}

/// Thirteen scalar words and the five-word quantizer slice precede the
/// rank-policy slice: its length, then its words.
const POLICY_SLICE: usize = 18;

#[test]
fn resealed_rank_policy_state_that_does_not_fit_is_refused() {
    let refused = |r: Result<Scheduler, CheckpointError>| {
        matches!(r, Err(CheckpointError::OutOfRange { .. }))
    };
    for name in AnyPolicy::NAMES {
        let clean = scheduler_payload(name, 3);
        assert!(restore(name, &clean).is_ok(), "{name}");
        let len = clean[POLICY_SLICE] as usize;
        // One word short, or one word long for a stateless policy.
        let mut words = clean.clone();
        if len == 0 {
            words[POLICY_SLICE] = 1;
            words.insert(POLICY_SLICE + 1, 0);
        } else {
            words[POLICY_SLICE] -= 1;
            words.remove(POLICY_SLICE + len);
        }
        let err = restore(name, &words).err();
        assert!(
            matches!(err, Some(CheckpointError::OutOfRange { field, .. }) if field.ends_with("length")),
            "{name}: wrong length gave {err:?}"
        );
        for at in POLICY_SLICE + 1..=POLICY_SLICE + len {
            let mut words = clean.clone();
            words[at] = f64::NAN.to_bits();
            assert!(refused(restore(name, &words)), "{name}: NaN at word {at}");
        }
    }
}

#[test]
fn resealed_queue_word_mutations_never_panic_restore() {
    let mut rng = Rng(SEED ^ 0x5c4e);
    let clean = scheduler_payload("wfq", CAPACITY - 1);
    let entries = clean.len() - 7 * (CAPACITY - 1);
    for _ in 0..CASES / 8 {
        let mut words = clean.clone();
        for _ in 0..1 + rng.below(3) {
            let i = entries + rng.below(words.len() - entries);
            words[i] = if rng.below(2) == 0 {
                boundary(&mut rng, words.len())
            } else {
                words[i] ^ 1 << rng.below(64)
            };
        }
        let _ = restore("wfq", &words);
    }
}
