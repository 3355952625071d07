//! Streaming event sinks.
//!
//! The per-shard rings keep only the *tail* of a run — fine for
//! post-mortems, useless for offline analysis of a long run. Attaching
//! an [`EventSink`] ([`crate::Telemetry::set_sink`]) streams **every**
//! event out at emit time instead: the ring still keeps its tail for
//! snapshots, but nothing is lost (the eviction counter stays at zero
//! while a sink is attached).
//!
//! [`FileSink`] writes line-delimited JSON (one flat object per event)
//! or the delta-encoded compact format ([`EventLogFormat`]), the
//! formats `wfqsim --event-log` writes. I/O errors are deferred and
//! surfaced by [`EventSink::flush`] so the hot emit path never
//! propagates `Result`s. [`crate::EventJoiner`] is a sink too.

use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::num::IntErrorKind;
use std::path::Path;
use std::str::FromStr;

use crate::trace::{Event, EventKind};

/// A streaming consumer of traced events.
///
/// [`record`](EventSink::record) is called once per event, at emit time,
/// in emit order (time-ordered per shard; across shards, the order in
/// which the run's schedulers emitted them).
pub trait EventSink {
    /// Consumes one event.
    fn record(&mut self, event: &Event);

    /// Flushes buffered output and reports any deferred I/O error.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Formats one event as the flat JSON object [`FileSink`] writes per
/// line — stable field order, so identical runs produce byte-identical
/// logs.
pub fn event_to_json(e: &Event) -> String {
    format!(
        "{{\"shard\":{},\"cycle\":{},\"kind\":\"{}\",\"a\":{},\"b\":{}}}",
        e.shard,
        e.cycle,
        e.kind.name(),
        e.a,
        e.b
    )
}

/// On-disk encoding of an event-log file.
///
/// The JSON format is self-describing NDJSON (~60 bytes/event); the
/// compact format delta-encodes per-shard cycle stamps into short
/// space-separated integer lines (typically under 15 bytes/event) and
/// round-trips exactly through [`parse_compact_event_log`]. Both are
/// byte-deterministic for identical event streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EventLogFormat {
    /// One flat JSON object per line ([`event_to_json`]).
    #[default]
    Json,
    /// One `shard kind_code cycle_delta a b` integer line per event.
    Compact,
}

impl EventLogFormat {
    /// Stable lowercase name (the CLI flag value).
    pub fn name(&self) -> &'static str {
        match self {
            EventLogFormat::Json => "json",
            EventLogFormat::Compact => "compact",
        }
    }
}

impl fmt::Display for EventLogFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for EventLogFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "json" => Ok(EventLogFormat::Json),
            "compact" => Ok(EventLogFormat::Compact),
            other => Err(format!(
                "unknown event log format {other:?} (expected json or compact)"
            )),
        }
    }
}

/// Stateful encoder for [`EventLogFormat::Compact`] lines.
///
/// Each line is `shard kind_code cycle_delta a b` in decimal, where
/// `cycle_delta` is the cycle distance to the *previous encoded event of
/// the same shard* (the first event of a shard encodes its absolute
/// cycle). Per-shard cycle stamps are monotone, so deltas are small
/// non-negative integers — the point of the encoding.
#[derive(Debug, Clone, Default)]
pub struct CompactEncoder {
    last_cycle: Vec<u64>,
}

impl CompactEncoder {
    /// An encoder with no history (the state a decoder must mirror).
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes one event as a compact line (no trailing newline).
    pub fn encode(&mut self, e: &Event) -> String {
        let shard = e.shard as usize;
        if self.last_cycle.len() <= shard {
            self.last_cycle.resize(shard + 1, 0);
        }
        let delta = e.cycle.wrapping_sub(self.last_cycle[shard]);
        self.last_cycle[shard] = e.cycle;
        format!("{} {} {} {} {}", e.shard, e.kind.code(), delta, e.a, e.b)
    }
}

/// Decodes a whole [`EventLogFormat::Compact`] log back into events —
/// the inverse of streaming through [`CompactEncoder`].
///
/// # Errors
///
/// Returns a description of the first malformed line (wrong field count,
/// non-integer field, shard id beyond `u32`, or unknown kind code).
pub fn parse_compact_event_log(text: &str) -> Result<Vec<Event>, String> {
    // Keyed by shard id, so a sparse large id costs one entry.
    let mut last_cycle: HashMap<u32, u64> = HashMap::new();
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let fields: Vec<&str> = line.split(' ').collect();
        if fields.len() != 5 {
            return Err(format!(
                "line {}: expected 5 fields, got {}",
                lineno + 1,
                fields.len()
            ));
        }
        let int = |s: &str, what: &str| -> Result<u64, String> {
            s.parse::<u64>()
                .map_err(|_| format!("line {}: bad {what} {s:?}", lineno + 1))
        };
        let shard = fields[0].parse::<u32>().map_err(|e| match e.kind() {
            IntErrorKind::PosOverflow => {
                format!("line {}: shard {} out of range", lineno + 1, fields[0])
            }
            _ => format!("line {}: bad shard {:?}", lineno + 1, fields[0]),
        })?;
        let code = int(fields[1], "kind code")?;
        let delta = int(fields[2], "cycle delta")?;
        let a = int(fields[3], "argument")?;
        let b = int(fields[4], "argument")?;
        let kind = u8::try_from(code)
            .ok()
            .and_then(EventKind::from_code)
            .ok_or_else(|| format!("line {}: unknown kind code {code}", lineno + 1))?;
        let last = last_cycle.entry(shard).or_insert(0);
        *last = last.wrapping_add(delta);
        events.push(Event {
            shard,
            cycle: *last,
            kind,
            a,
            b,
        });
    }
    Ok(events)
}

/// Streams events to a file as line-delimited JSON (see
/// [`event_to_json`] for the per-line shape) or as compact
/// delta-encoded lines ([`EventLogFormat::Compact`]).
///
/// Writes are buffered; the first I/O error stops further writing and is
/// reported by [`EventSink::flush`] (call it before dropping — the
/// implicit flush on drop swallows errors, as `BufWriter`'s must).
#[derive(Debug)]
pub struct FileSink {
    out: BufWriter<File>,
    format: EventLogFormat,
    encoder: CompactEncoder,
    error: Option<io::Error>,
    written: u64,
}

impl FileSink {
    /// Creates (truncating) `path` and returns a JSON-format sink.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::create_with_format(path, EventLogFormat::Json)
    }

    /// Creates (truncating) `path` with an explicit line format.
    pub fn create_with_format(path: impl AsRef<Path>, format: EventLogFormat) -> io::Result<Self> {
        Ok(Self {
            out: BufWriter::new(File::create(path)?),
            format,
            encoder: CompactEncoder::new(),
            error: None,
            written: 0,
        })
    }

    /// Number of events successfully written so far.
    pub fn written(&self) -> u64 {
        self.written
    }
}

impl EventSink for FileSink {
    fn record(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        let line = match self.format {
            EventLogFormat::Json => event_to_json(event),
            EventLogFormat::Compact => self.encoder.encode(event),
        };
        match writeln!(self.out, "{line}") {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::EventKind;

    fn ev(shard: u32, cycle: u64) -> Event {
        Event {
            shard,
            cycle,
            kind: EventKind::Enqueue,
            a: 7,
            b: 9,
        }
    }

    #[test]
    fn event_json_has_stable_field_order() {
        assert_eq!(
            event_to_json(&ev(3, 42)),
            "{\"shard\":3,\"cycle\":42,\"kind\":\"enqueue\",\"a\":7,\"b\":9}"
        );
    }

    #[test]
    fn file_sink_writes_one_json_line_per_event() {
        let path =
            std::env::temp_dir().join(format!("telemetry_sink_test_{}.ndjson", std::process::id()));
        {
            let mut sink = FileSink::create(&path).unwrap();
            sink.record(&ev(0, 1));
            sink.record(&ev(1, 2));
            assert_eq!(sink.written(), 2);
            sink.flush().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], event_to_json(&ev(0, 1)));
        assert_eq!(lines[1], event_to_json(&ev(1, 2)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn event_log_format_parses_and_rejects() {
        assert_eq!(
            "json".parse::<EventLogFormat>().unwrap(),
            EventLogFormat::Json
        );
        assert_eq!(
            "compact".parse::<EventLogFormat>().unwrap(),
            EventLogFormat::Compact
        );
        let err = "yaml".parse::<EventLogFormat>().unwrap_err();
        assert!(err.contains("expected json or compact"), "{err}");
        assert_eq!(EventLogFormat::Compact.to_string(), "compact");
    }

    #[test]
    fn compact_lines_delta_encode_per_shard_cycles() {
        let mut enc = CompactEncoder::new();
        // First event of each shard carries its absolute cycle; later
        // events carry the distance to the previous event of that shard.
        assert_eq!(enc.encode(&ev(0, 100)), "0 0 100 7 9");
        assert_eq!(enc.encode(&ev(1, 250)), "1 0 250 7 9");
        assert_eq!(enc.encode(&ev(0, 103)), "0 0 3 7 9");
        assert_eq!(enc.encode(&ev(1, 251)), "1 0 1 7 9");
    }

    #[test]
    fn compact_log_round_trips_exactly() {
        let events = vec![
            Event {
                shard: 0,
                cycle: 12,
                kind: EventKind::Enqueue,
                a: 5,
                b: 17,
            },
            Event {
                shard: 2,
                cycle: 40,
                kind: EventKind::FaultInject,
                a: u64::MAX,
                b: 3,
            },
            Event {
                shard: 0,
                cycle: 12,
                kind: EventKind::Dequeue,
                a: 5,
                b: 0,
            },
            Event {
                shard: 2,
                cycle: 77,
                kind: EventKind::Repair,
                a: 9,
                b: 256,
            },
        ];
        let mut enc = CompactEncoder::new();
        let text: String = events.iter().map(|e| enc.encode(e) + "\n").collect();
        let decoded = parse_compact_event_log(&text).unwrap();
        assert_eq!(decoded, events);
    }

    #[test]
    fn compact_parser_reports_malformed_lines() {
        let err = parse_compact_event_log("1 2 3\n").unwrap_err();
        assert!(err.contains("line 1: expected 5 fields"), "{err}");
        let err = parse_compact_event_log("0 0 x 0 0\n").unwrap_err();
        assert!(err.contains("bad cycle delta"), "{err}");
        let err = parse_compact_event_log("0 99 0 0 0\n").unwrap_err();
        assert!(err.contains("unknown kind code 99"), "{err}");
        let err = parse_compact_event_log("-1 0 0 0 0\n").unwrap_err();
        assert!(err.contains("bad shard"), "{err}");
    }

    #[test]
    fn compact_parser_rejects_shard_ids_beyond_u32() {
        // Shard ids are `u32`: a larger id is a typed error, never a
        // per-shard table sized by it, an index panic or a truncated id.
        for id in ["4294967296", "18446744073709551615", "99999999999999999999"] {
            let err = parse_compact_event_log(&format!("{id} 0 5 1 2")).unwrap_err();
            assert_eq!(err, format!("line 1: shard {id} out of range"));
            let err = parse_compact_event_log(&format!("0 0 1 0 0\n{id} 0 5 1 2\n")).unwrap_err();
            assert_eq!(err, format!("line 2: shard {id} out of range"));
        }
    }

    #[test]
    fn compact_parser_keeps_sparse_large_shard_ids_cheaply() {
        let text = "4294967295 0 5 1 2\n7 0 3 0 0\n4294967295 1 2 1 2\n";
        let events = parse_compact_event_log(text).unwrap();
        let stamps: Vec<(u32, u64)> = events.iter().map(|e| (e.shard, e.cycle)).collect();
        assert_eq!(stamps, vec![(u32::MAX, 5), (7, 3), (u32::MAX, 7)]);
    }

    #[test]
    fn file_sink_honors_the_compact_format() {
        let path = std::env::temp_dir().join(format!(
            "telemetry_sink_compact_test_{}.log",
            std::process::id()
        ));
        {
            let mut sink = FileSink::create_with_format(&path, EventLogFormat::Compact).unwrap();
            sink.record(&ev(0, 10));
            sink.record(&ev(0, 12));
            sink.flush().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "0 0 10 7 9\n0 0 2 7 9\n");
        let decoded = parse_compact_event_log(&text).unwrap();
        assert_eq!(decoded, vec![ev(0, 10), ev(0, 12)]);
        std::fs::remove_file(&path).ok();
    }
}
