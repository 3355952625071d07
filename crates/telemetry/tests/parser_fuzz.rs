//! Seeded fuzzing of the two telemetry parsers of outside bytes,
//! [`parse_compact_event_log`] and [`parse_flat_json`].
//!
//! Each parser is fed random text and mutations of valid inputs —
//! truncations, flipped digits, huge numbers, extra fields, dropped and
//! duplicated spans. Whatever the input, a parser must return a value or
//! an `Err`/`None`; it must never panic or abort. The seed and the case
//! count are fixed, so a failure reproduces exactly, and the budget stays
//! well under a second in a debug build.

use telemetry::{
    parse_compact_event_log, parse_flat_json, CompactEncoder, Event, EventKind, GaugeMerge,
    Histogram, Snapshot,
};

const SEED: u64 = 0x5eed_f00d_2006_0001;
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

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len())]
    }
}

/// Numbers at and past every integer and float boundary the parsers
/// meet.
const HUGE: &[&str] = &[
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999999",
    "-1",
    "-0",
    "+7",
    "007",
    "1e400",
    "-1e400",
    "NaN",
    "inf",
    "0x10",
    "",
];

/// A valid compact log of 1 to `max` random events over a few shards.
fn compact_log(rng: &mut Rng, max: usize) -> String {
    let n = 1 + rng.below(max);
    let mut enc = CompactEncoder::new();
    let mut cycle = [0u64; 4];
    let mut text = String::new();
    for _ in 0..n {
        let shard = rng.below(4);
        cycle[shard] += rng.next() % 64;
        let kind = EventKind::from_code(rng.below(4) as u8).expect("codes 0-3 are kinds");
        let e = Event {
            shard: shard as u32,
            cycle: cycle[shard],
            kind,
            a: rng.next() % 1000,
            b: rng.next(),
        };
        text.push_str(&enc.encode(&e));
        text.push('\n');
    }
    text
}

/// A valid flat-JSON snapshot with counters, gauges and histograms.
fn snapshot_json(rng: &mut Rng) -> String {
    let mut served = [0u64; 2];
    let mut depth = [0u64; 2];
    let mut lat = [Histogram::new(), Histogram::new()];
    for _ in 0..rng.below(16) {
        let shard = rng.below(2);
        served[shard] += rng.next() % 100;
        depth[shard] = depth[shard].max(rng.next() % 100);
        lat[shard].observe(rng.next() % 5000);
    }
    let shards = (0..2)
        .map(|i| {
            let mut snap = Snapshot::empty(1);
            snap.add_counter("served".into(), vec![served[i]]);
            snap.add_gauge("depth".into(), GaugeMerge::Max, vec![depth[i]]);
            snap.add_histogram(lat[i].snapshot("lat_cycles"));
            snap.set_events(Vec::new(), 0);
            snap
        })
        .collect();
    let mut snap = Snapshot::join(shards);
    snap.put("hw_ratio", rng.next() as f64 / 3.0);
    snap.to_json()
}

/// One random mutation of `s`, kept on `char` boundaries (the parsers
/// take `&str`).
fn mutate(rng: &mut Rng, s: &str) -> String {
    let cut = |rng: &mut Rng, s: &str| {
        let mut i = rng.below(s.len() + 1);
        while !s.is_char_boundary(i) {
            i -= 1;
        }
        i
    };
    match rng.below(7) {
        // Truncate.
        0 => s[..cut(rng, s)].to_string(),
        // Flip a digit to another digit or a stray character.
        1 => {
            let digits: Vec<usize> = s
                .char_indices()
                .filter(|(_, c)| c.is_ascii_digit())
                .map(|(i, _)| i)
                .collect();
            if digits.is_empty() {
                return s.to_string();
            }
            let at = digits[rng.below(digits.len())];
            let with = rng.pick(&["0", "9", "5", "-", ".", "e", " ", ",", "\"", "x"]);
            format!("{}{with}{}", &s[..at], &s[at + 1..])
        }
        // Splice in a huge or odd number.
        2 => {
            let at = cut(rng, s);
            format!("{}{}{}", &s[..at], rng.pick(HUGE), &s[at..])
        }
        // Replace a whole token with a huge or odd number.
        3 => {
            let tokens: Vec<&str> = s.split([' ', ':', ',', '\n']).collect();
            let target = tokens[rng.below(tokens.len())];
            if target.is_empty() {
                return s.to_string();
            }
            s.replacen(target, rng.pick(HUGE), 1)
        }
        // Extra fields.
        4 => {
            let at = cut(rng, s);
            let extra = rng.pick(&[" 5", " 1 2", ",\"x\":1", ",", ":", "\n", "{", "}", "\"\""]);
            format!("{}{extra}{}", &s[..at], &s[at..])
        }
        // Drop a span.
        5 => {
            let (a, b) = (cut(rng, s), cut(rng, s));
            let (a, b) = (a.min(b), a.max(b));
            format!("{}{}", &s[..a], &s[b..])
        }
        // Duplicate a span.
        _ => {
            let (a, b) = (cut(rng, s), cut(rng, s));
            let (a, b) = (a.min(b), a.max(b));
            format!("{}{}", &s[..b], &s[a..])
        }
    }
}

/// Random bytes, read as text the way a file of garbage would be.
fn noise(rng: &mut Rng) -> String {
    let alphabet = b"0123456789 \n\r\t,:{}\"-+.eE";
    let bytes: Vec<u8> = (0..rng.below(64))
        .map(|_| {
            if rng.below(4) == 0 {
                rng.next() as u8
            } else {
                alphabet[rng.below(alphabet.len())]
            }
        })
        .collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Feeds one input to both parsers and checks what an `Ok` promises.
fn check(input: &str) {
    if let Ok(events) = parse_compact_event_log(input) {
        assert_eq!(events.len(), input.lines().count(), "{input:?}");
    }
    if let Some(entries) = parse_flat_json(input) {
        assert!(input.trim().starts_with('{'), "{input:?}");
        assert!(entries.len() <= input.matches(':').count(), "{input:?}");
    }
}

#[test]
fn valid_inputs_parse() {
    let mut rng = Rng(SEED);
    for _ in 0..32 {
        let log = compact_log(&mut rng, 20);
        let events = parse_compact_event_log(&log).expect("a valid log parses");
        assert_eq!(events.len(), log.lines().count());
        let json = snapshot_json(&mut rng);
        assert!(parse_flat_json(&json).is_some(), "{json}");
    }
}

#[test]
fn parsers_never_panic_on_mutated_or_random_input() {
    let mut rng = Rng(SEED);
    for case in 0..CASES {
        let mut input = match case % 3 {
            0 => compact_log(&mut rng, 8),
            1 => snapshot_json(&mut rng),
            _ => noise(&mut rng),
        };
        let rounds = 1 + rng.below(3);
        for _ in 0..rounds {
            input = mutate(&mut rng, &input);
        }
        check(&input);
    }
}

#[test]
fn boundary_numbers_in_every_compact_field_are_typed_errors_or_values() {
    for field in 0..5 {
        for huge in HUGE {
            let mut fields = ["0", "0", "5", "1", "2"];
            fields[field] = huge;
            let line = fields.join(" ");
            check(&line);
            if field == 0 && huge.parse::<u64>().is_ok_and(|v| v > u64::from(u32::MAX)) {
                let err = parse_compact_event_log(&line).unwrap_err();
                assert!(err.ends_with("out of range"), "{err}");
            }
        }
    }
}
