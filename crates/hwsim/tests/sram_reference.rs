//! The paged `Sram` word array against a plain-array reference model.
//!
//! An [`Sram`] allocates its words lazily in pages of 4096 words; its
//! contract is that of a zero-initialized `Vec<u64>` with one parity bit
//! per word, with residency as the only visible difference. Random op
//! programs drive a memory and the reference side by side: functional
//! reads (with their parity alarms), writes, peeks, and corruption must
//! all observe the same words, and residency must follow the pages that
//! hold a non-zero word.

use hwsim::{Clock, PagedArray, Sram, SramConfig};
use proptest::prelude::*;

/// The page size of the word array behind an `Sram`.
const PAGE: usize = PagedArray::<u64>::PAGE;
/// Two full pages and a short tail page.
const WORDS: usize = 2 * PAGE + 50;
const WIDTH: u32 = 16;

/// A zero-initialized word array with per-word parity, the alarm
/// latch, and the page residency a lazy array must show.
struct Reference {
    words: Vec<u64>,
    parity: Vec<bool>,
    alarmed: Vec<bool>,
    resident: Vec<bool>,
}

impl Reference {
    fn new() -> Self {
        Self {
            words: vec![0; WORDS],
            parity: vec![false; WORDS],
            alarmed: vec![false; WORDS],
            resident: vec![false; WORDS.div_ceil(PAGE)],
        }
    }

    /// Stores a word as the array sees it (a write or a corruption);
    /// a non-zero word needs its page resident.
    fn store(&mut self, addr: usize, value: u64) {
        self.words[addr] = value;
        self.resident[addr / PAGE] |= value != 0;
    }

    fn resident_words(&self) -> usize {
        let pages = self.resident.iter().filter(|&&r| r).count();
        (pages * PAGE).min(WORDS)
    }
}

/// `(op, addr, value)`: 0–1 write, 2 functional read, 3 peek,
/// 4 corrupt.
fn program() -> impl Strategy<Value = Vec<(u8, usize, u64)>> {
    proptest::collection::vec((0u8..5, 0usize..WORDS, 0u64..1 << 20), 1..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn paged_sram_matches_a_plain_vector(program in program()) {
        let mut clk = Clock::new();
        let mut mem = Sram::new(SramConfig::single_port(WORDS, WIDTH));
        let mut model = Reference::new();
        let mut peak = 0;
        for (op, addr, value) in program {
            clk.tick();
            match op {
                0 | 1 => {
                    // Zero writes land too: they must not page anything in.
                    let value = if op == 1 { 0 } else { value & 0xffff };
                    mem.write(clk.now(), addr, value).unwrap();
                    model.store(addr, value);
                    model.parity[addr] = value.count_ones() % 2 == 1;
                    model.alarmed[addr] = false;
                }
                2 => {
                    prop_assert_eq!(mem.read(clk.now(), addr).unwrap(), model.words[addr]);
                    let mismatch = (model.words[addr].count_ones() % 2 == 1) != model.parity[addr];
                    let alarms = mem.take_parity_alarms();
                    if mismatch && !model.alarmed[addr] {
                        model.alarmed[addr] = true;
                        prop_assert_eq!(alarms.len(), 1);
                        prop_assert_eq!(alarms[0].addr, addr);
                        prop_assert_eq!(alarms[0].cycle, clk.now());
                    } else {
                        prop_assert!(alarms.is_empty(), "spurious alarm at {}", addr);
                    }
                }
                3 => prop_assert_eq!(mem.peek(addr).unwrap(), model.words[addr]),
                _ => {
                    // Corruption truncates the mask to the word width.
                    let old = mem.corrupt(addr, value);
                    prop_assert_eq!(old, model.words[addr]);
                    model.store(addr, old ^ (value & 0xffff));
                }
            }
            let (resident, peak_resident, total) = mem.resident_words();
            peak = peak.max(model.resident_words());
            prop_assert_eq!((resident, peak_resident, total), (model.resident_words(), peak, WORDS));
        }
        for (addr, &want) in model.words.iter().enumerate() {
            prop_assert_eq!(mem.peek(addr).unwrap(), want, "word {}", addr);
        }
    }
}
