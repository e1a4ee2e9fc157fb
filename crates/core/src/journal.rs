//! The write-ahead trial journal: crash-safe sweep state as append-only
//! JSONL.
//!
//! A sweep is hours of compute whose unit of progress is one
//! `(configuration, trial)` cell. The journal makes that progress
//! durable: before the sweep moves past a cell, its [`TrialRecord`] is
//! appended as one JSON line and fsync'd, so a crash, OOM-kill, or
//! Ctrl-C loses at most the cell in flight. `sweep --resume <journal>`
//! replays the journal, skips every recorded cell, and — because trials
//! are deterministic functions of `(config, trial, attempt)` — produces
//! a final table bit-identical to an uninterrupted run.
//!
//! # Format
//!
//! Line 1 is a header; every further line is one record of the
//! journal's [`JournalRecord`] kind — a sweep's trial records, or
//! `nqp-serve`'s `serve-cell` records:
//!
//! ```text
//! {"v":1,"kind":"header","fp":"<16-hex grid fingerprint>","grid":"<description>"}
//! {"v":1,"kind":"trial","fp":"<fingerprint>","config":"tuned","trial":0,
//!  "outcome":"ok","attempts":1,"cycles":123,"evacuated_pages":0,"error":null}
//! ```
//!
//! The fingerprint hashes the requested grid (configs × trials ×
//! workload parameters); resuming against a journal whose fingerprint
//! does not match the requested sweep is an error — mixing cells from
//! different grids would silently corrupt the table. A torn tail (a
//! record cut mid-line by the crash — either missing its newline or
//! undecodable as the last line) is discarded on read and truncated on
//! append, so the interrupted cell simply re-runs.
//!
//! Records are hand-serialised: the schema is small, owned by this
//! crate, and DESIGN.md §5 keeps serde out of the workspace.

use crate::runner::{Outcome, TrialRecord};
use nqp_sim::SimError;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;

/// Journal schema version (the `v` field of every line).
pub const JOURNAL_VERSION: u64 = 1;

/// 16-hex-digit fingerprint of a sweep grid description (FNV-1a 64 with
/// a splitmix finalizer). Stable across runs and platforms.
#[must_use]
pub fn grid_fingerprint(desc: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in desc.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    format!("{h:016x}")
}

/// Append-only journal handle; one fsync per record.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    fingerprint: String,
}

impl JournalWriter {
    /// Start a fresh journal at `path` (truncating any existing file),
    /// writing and syncing the header line.
    pub fn create(path: &Path, fingerprint: &str, grid_desc: &str) -> io::Result<Self> {
        let mut file = File::create(path)?;
        let line = format!(
            "{{\"v\":{JOURNAL_VERSION},\"kind\":\"header\",\"fp\":\"{}\",\"grid\":\"{}\"}}\n",
            esc(fingerprint),
            esc(grid_desc)
        );
        file.write_all(line.as_bytes())?;
        file.sync_data()?;
        Ok(JournalWriter { file, fingerprint: fingerprint.to_string() })
    }

    /// Open an existing journal for resumption: read it back (discarding
    /// a torn tail), truncate the file to the last intact record, and
    /// return the writer positioned for appending plus the recovered
    /// records of type `R`.
    pub fn append_to<R: JournalRecord>(path: &Path) -> io::Result<(Self, JournalContents<R>)> {
        let contents = read_journal(path)?;
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(contents.valid_len)?;
        file.seek(SeekFrom::End(0))?;
        let writer =
            JournalWriter { file, fingerprint: contents.fingerprint.clone() };
        Ok((writer, contents))
    }

    /// The grid fingerprint this journal was created for.
    #[must_use]
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// Append one record and fsync it — the write-ahead step that makes
    /// the cell durable. The envelope (`v`, `kind`, `fp`) is owned here
    /// so every journal line stays resumable and fingerprint-checked.
    pub fn record<R: JournalRecord>(&mut self, rec: &R) -> io::Result<()> {
        let line = format!(
            "{{\"v\":{JOURNAL_VERSION},\"kind\":\"{}\",\"fp\":\"{}\",{}}}\n",
            esc(R::KIND),
            esc(&self.fingerprint),
            rec.fields_json()
        );
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()
    }
}

/// A record type a journal carries: trial records here, serve cells in
/// `nqp-serve`. One journal holds records of one kind.
pub trait JournalRecord: Sized {
    /// The `kind` tag of this record's journal lines.
    const KIND: &'static str;
    /// The record's JSON fields (no braces, no journal envelope).
    fn fields_json(&self) -> String;
    /// Decode a record from its parsed journal line (envelope fields
    /// included); `None` marks the line as corrupt.
    fn from_obj(obj: &[(String, JVal)]) -> Option<Self>;
}

impl JournalRecord for TrialRecord {
    const KIND: &'static str = "trial";

    fn fields_json(&self) -> String {
        let cycles = self.cycles.map_or_else(|| "null".to_string(), |c| c.to_string());
        let error = self.error.as_ref().map_or_else(|| "null".to_string(), error_json);
        format!(
            "\"config\":\"{}\",\"trial\":{},\"outcome\":\"{}\",\"attempts\":{},\
             \"cycles\":{},\"evacuated_pages\":{},\"error\":{}",
            esc(&self.config),
            self.trial,
            self.outcome.label(),
            self.attempts,
            cycles,
            self.evacuated_pages,
            error
        )
    }

    fn from_obj(obj: &[(String, JVal)]) -> Option<Self> {
        let cycles = match get(obj, "cycles")? {
            JVal::Num(n) => Some(*n),
            JVal::Null => None,
            _ => return None,
        };
        let error = match get(obj, "error")? {
            JVal::Obj(o) => Some(error_from_obj(o)?),
            JVal::Null => None,
            _ => return None,
        };
        Some(TrialRecord {
            config: get_str(obj, "config")?.to_string(),
            trial: get_num(obj, "trial")? as usize,
            outcome: Outcome::parse(get_str(obj, "outcome")?)?,
            cycles,
            attempts: get_num(obj, "attempts")? as u32,
            evacuated_pages: get_num(obj, "evacuated_pages")?,
            error,
        })
    }
}

/// Everything recovered from a journal file.
#[derive(Debug, Clone)]
pub struct JournalContents<R> {
    /// The grid fingerprint from the header.
    pub fingerprint: String,
    /// The human-readable grid description from the header.
    pub grid_desc: String,
    /// Intact records, in append order.
    pub records: Vec<R>,
    /// A torn tail (crash mid-append) was discarded.
    pub torn: bool,
    /// File length in bytes up to the last intact record (the append
    /// point after truncating the torn tail).
    valid_len: u64,
}

/// Read a journal of `R` records back. The last line is allowed to be
/// torn (missing newline, or not an `R` record of this journal's
/// version and fingerprint) and is discarded; such a line anywhere
/// *before* the tail is an `InvalidData` error.
pub fn read_journal<R: JournalRecord>(path: &Path) -> io::Result<JournalContents<R>> {
    let data = std::fs::read(path)?;
    let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);

    // Split into complete (newline-terminated) lines with byte offsets.
    let mut lines: Vec<(usize, &str)> = Vec::new();
    let mut torn = false;
    let mut start = 0usize;
    for (i, &b) in data.iter().enumerate() {
        if b == b'\n' {
            let line = std::str::from_utf8(&data[start..i])
                .map_err(|_| bad(format!("journal is not UTF-8 at byte {start}")))?;
            lines.push((start, line));
            start = i + 1;
        }
    }
    if start < data.len() {
        torn = true; // Tail without a newline: crash mid-append.
    }
    let mut valid_len = start as u64;

    let Some(&(_, header_line)) = lines.first() else {
        return Err(bad("journal has no header line".to_string()));
    };
    let header = parse_json_obj(header_line)
        .ok_or_else(|| bad("journal header is not valid JSON".to_string()))?;
    if get_str(&header, "kind") != Some("header") {
        return Err(bad("journal's first line is not a header".to_string()));
    }
    match get_num(&header, "v") {
        Some(JOURNAL_VERSION) => {}
        v => return Err(bad(format!("unsupported journal version {v:?}"))),
    }
    let fingerprint = get_str(&header, "fp")
        .ok_or_else(|| bad("journal header has no fingerprint".to_string()))?
        .to_string();
    let grid_desc = get_str(&header, "grid").unwrap_or_default().to_string();

    let mut records = Vec::new();
    for (idx, &(offset, line)) in lines.iter().enumerate().skip(1) {
        let parsed = parse_json_obj(line).and_then(|obj| {
            if get_str(&obj, "kind") != Some(R::KIND)
                || get_num(&obj, "v") != Some(JOURNAL_VERSION)
                || get_str(&obj, "fp") != Some(fingerprint.as_str())
            {
                return None;
            }
            R::from_obj(&obj)
        });
        match parsed {
            Some(rec) => records.push(rec),
            None if idx == lines.len() - 1 => {
                // An undecodable final line is a torn write too (e.g. a
                // partial record that happens to end in a newline from
                // pre-crash buffered data).
                torn = true;
                valid_len = offset as u64;
            }
            None => {
                return Err(bad(format!(
                    "corrupt journal record on line {}",
                    idx + 1
                )));
            }
        }
    }
    Ok(JournalContents { fingerprint, grid_desc, records, torn, valid_len })
}

/// Serialise a `SimError` structurally so it round-trips exactly — the
/// outcome table renders errors, and a resumed table must be
/// bit-identical to an uninterrupted one.
fn error_json(e: &SimError) -> String {
    match e {
        SimError::OutOfMemory { node, requested_pages } => format!(
            "{{\"tag\":\"oom\",\"node\":{node},\"requested_pages\":{requested_pages}}}"
        ),
        SimError::InvalidMapping { addr } => {
            format!("{{\"tag\":\"invalid-mapping\",\"addr\":{addr}}}")
        }
        SimError::InjectedAllocFault { region, attempt } => format!(
            "{{\"tag\":\"alloc-fault\",\"region\":{region},\"attempt\":{attempt}}}"
        ),
        SimError::Timeout { budget_cycles, elapsed_cycles } => format!(
            "{{\"tag\":\"timeout\",\"budget_cycles\":{budget_cycles},\
             \"elapsed_cycles\":{elapsed_cycles}}}"
        ),
        SimError::DeadlineExceeded { deadline_cycles, elapsed_cycles } => format!(
            "{{\"tag\":\"deadline\",\"deadline_cycles\":{deadline_cycles},\
             \"elapsed_cycles\":{elapsed_cycles}}}"
        ),
        SimError::NodeOffline { node } => {
            format!("{{\"tag\":\"node-offline\",\"node\":{node}}}")
        }
        SimError::Harness { what } => {
            format!("{{\"tag\":\"harness\",\"what\":\"{}\"}}", esc(what))
        }
        SimError::BadSpec { flag, token, why } => format!(
            "{{\"tag\":\"bad-spec\",\"flag\":\"{}\",\"token\":\"{}\",\"why\":\"{}\"}}",
            esc(flag),
            esc(token),
            esc(why)
        ),
    }
}

fn error_from_obj(obj: &[(String, JVal)]) -> Option<SimError> {
    let num = |k: &str| get_num(obj, k);
    match get_str(obj, "tag")? {
        "oom" => Some(SimError::OutOfMemory {
            node: num("node")? as usize,
            requested_pages: num("requested_pages")?,
        }),
        "invalid-mapping" => Some(SimError::InvalidMapping { addr: num("addr")? }),
        "alloc-fault" => Some(SimError::InjectedAllocFault {
            region: num("region")?,
            attempt: num("attempt")? as u32,
        }),
        "timeout" => Some(SimError::Timeout {
            budget_cycles: num("budget_cycles")?,
            elapsed_cycles: num("elapsed_cycles")?,
        }),
        "deadline" => Some(SimError::DeadlineExceeded {
            deadline_cycles: num("deadline_cycles")?,
            elapsed_cycles: num("elapsed_cycles")?,
        }),
        "node-offline" => Some(SimError::NodeOffline { node: num("node")? as usize }),
        "harness" => Some(SimError::Harness { what: get_str(obj, "what")?.to_string() }),
        "bad-spec" => Some(SimError::BadSpec {
            flag: get_str(obj, "flag")?.to_string(),
            token: get_str(obj, "token")?.to_string(),
            why: get_str(obj, "why")?.to_string(),
        }),
        _ => None,
    }
}

/// JSON string escaping for the subset journal lines emit.
#[must_use]
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

// ---- minimal JSON scanner ------------------------------------------
//
// Objects of strings / unsigned integers / bools / null, shallow
// arrays, and a few nesting levels. Enough for the self-owned journal
// schemas (trial records here, serve cells in `nqp-serve`); rejects
// everything else. Public so sibling crates can round-trip their own
// journal lines without pulling in a JSON dependency (DESIGN.md §5).

/// A parsed JSON value from the journal scanner.
#[derive(Debug, Clone, PartialEq)]
pub enum JVal {
    /// A JSON string.
    Str(String),
    /// An unsigned integer (the only number form journals emit).
    Num(u64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// An object, in source field order.
    Obj(Vec<(String, JVal)>),
    /// An array.
    Arr(Vec<JVal>),
}

/// Field lookup in a parsed object.
#[must_use]
pub fn get<'a>(obj: &'a [(String, JVal)], key: &str) -> Option<&'a JVal> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// String-typed field lookup.
#[must_use]
pub fn get_str<'a>(obj: &'a [(String, JVal)], key: &str) -> Option<&'a str> {
    match get(obj, key)? {
        JVal::Str(s) => Some(s),
        _ => None,
    }
}

/// Integer-typed field lookup.
#[must_use]
pub fn get_num(obj: &[(String, JVal)], key: &str) -> Option<u64> {
    match get(obj, key)? {
        JVal::Num(n) => Some(*n),
        _ => None,
    }
}

/// Parse one line as a JSON object; `None` on any syntax error or
/// trailing garbage.
#[must_use]
pub fn parse_json_obj(line: &str) -> Option<Vec<(String, JVal)>> {
    let b = line.as_bytes();
    let mut i = 0usize;
    let v = parse_value(b, &mut i, 0)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return None;
    }
    match v {
        JVal::Obj(o) => Some(o),
        _ => None,
    }
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\r' | b'\n') {
        *i += 1;
    }
}

fn parse_value(b: &[u8], i: &mut usize, depth: u32) -> Option<JVal> {
    if depth > 4 {
        return None;
    }
    skip_ws(b, i);
    match b.get(*i)? {
        b'{' => parse_obj(b, i, depth),
        b'[' => parse_arr(b, i, depth),
        b'"' => parse_string(b, i).map(JVal::Str),
        b'0'..=b'9' => parse_num(b, i).map(JVal::Num),
        b't' => parse_lit(b, i, "true").then_some(JVal::Bool(true)),
        b'f' => parse_lit(b, i, "false").then_some(JVal::Bool(false)),
        b'n' => parse_lit(b, i, "null").then_some(JVal::Null),
        _ => None,
    }
}

fn parse_arr(b: &[u8], i: &mut usize, depth: u32) -> Option<JVal> {
    if b.get(*i) != Some(&b'[') {
        return None;
    }
    *i += 1;
    let mut items = Vec::new();
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Some(JVal::Arr(items));
    }
    loop {
        items.push(parse_value(b, i, depth + 1)?);
        skip_ws(b, i);
        match b.get(*i)? {
            b',' => *i += 1,
            b']' => {
                *i += 1;
                return Some(JVal::Arr(items));
            }
            _ => return None,
        }
    }
}

fn parse_lit(b: &[u8], i: &mut usize, lit: &str) -> bool {
    if b[*i..].starts_with(lit.as_bytes()) {
        *i += lit.len();
        true
    } else {
        false
    }
}

fn parse_num(b: &[u8], i: &mut usize) -> Option<u64> {
    let start = *i;
    while *i < b.len() && b[*i].is_ascii_digit() {
        *i += 1;
    }
    if *i == start {
        return None;
    }
    std::str::from_utf8(&b[start..*i]).ok()?.parse().ok()
}

fn parse_string(b: &[u8], i: &mut usize) -> Option<String> {
    if b.get(*i) != Some(&b'"') {
        return None;
    }
    *i += 1;
    let mut out = Vec::new();
    loop {
        match *b.get(*i)? {
            b'"' => {
                *i += 1;
                return String::from_utf8(out).ok();
            }
            b'\\' => {
                *i += 1;
                match *b.get(*i)? {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b'r' => out.push(b'\r'),
                    b't' => out.push(b'\t'),
                    b'u' => {
                        let hex = b.get(*i + 1..*i + 5)?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).ok()?,
                            16,
                        )
                        .ok()?;
                        let c = char::from_u32(code)?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        *i += 4;
                    }
                    _ => return None,
                }
                *i += 1;
            }
            c => {
                out.push(c);
                *i += 1;
            }
        }
    }
}

fn parse_obj(b: &[u8], i: &mut usize, depth: u32) -> Option<JVal> {
    if b.get(*i) != Some(&b'{') {
        return None;
    }
    *i += 1;
    let mut fields = Vec::new();
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Some(JVal::Obj(fields));
    }
    loop {
        skip_ws(b, i);
        let key = parse_string(b, i)?;
        skip_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return None;
        }
        *i += 1;
        let value = parse_value(b, i, depth + 1)?;
        fields.push((key, value));
        skip_ws(b, i);
        match b.get(*i)? {
            b',' => *i += 1,
            b'}' => {
                *i += 1;
                return Some(JVal::Obj(fields));
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "nqp-journal-{}-{tag}-{n}.jsonl",
            std::process::id()
        ))
    }

    fn rec(config: &str, trial: usize, error: Option<SimError>) -> TrialRecord {
        let outcome = error.as_ref().map_or(Outcome::Ok, Outcome::of_error);
        TrialRecord {
            config: config.to_string(),
            trial,
            outcome,
            cycles: error.is_none().then_some(1234 + trial as u64),
            attempts: 2,
            evacuated_pages: 7,
            error,
        }
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let a = grid_fingerprint("machine=B threads=8 trials=3");
        assert_eq!(a, grid_fingerprint("machine=B threads=8 trials=3"));
        assert_eq!(a.len(), 16);
        assert_ne!(a, grid_fingerprint("machine=B threads=8 trials=4"));
    }

    #[test]
    fn every_error_variant_round_trips() {
        let errors = [
            SimError::OutOfMemory { node: 3, requested_pages: 512 },
            SimError::InvalidMapping { addr: 0xdead_beef },
            SimError::InjectedAllocFault { region: 9, attempt: 2 },
            SimError::Timeout { budget_cycles: 10, elapsed_cycles: 20 },
            SimError::NodeOffline { node: 1 },
            SimError::Harness { what: "weird \"quoted\"\npath\\x".to_string() },
        ];
        for e in errors {
            let json = error_json(&e);
            let obj = parse_json_obj(&json).unwrap();
            assert_eq!(error_from_obj(&obj), Some(e.clone()), "{json}");
        }
    }

    #[test]
    fn journal_round_trips_records() {
        let path = temp_path("roundtrip");
        let fp = grid_fingerprint("grid");
        let mut w = JournalWriter::create(&path, &fp, "grid desc, with comma").unwrap();
        let records = vec![
            rec("tuned", 0, None),
            rec("tuned", 1, Some(SimError::OutOfMemory { node: 0, requested_pages: 1 })),
            rec("os \"default\"", 0, Some(SimError::NodeOffline { node: 2 })),
        ];
        for r in &records {
            w.record(r).unwrap();
        }
        drop(w);
        let back = read_journal::<TrialRecord>(&path).unwrap();
        assert_eq!(back.fingerprint, fp);
        assert_eq!(back.grid_desc, "grid desc, with comma");
        assert!(!back.torn);
        assert_eq!(back.records, records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_discarded_and_truncated_on_append() {
        let path = temp_path("torn");
        let fp = grid_fingerprint("g");
        let mut w = JournalWriter::create(&path, &fp, "g").unwrap();
        w.record(&rec("a", 0, None)).unwrap();
        w.record(&rec("a", 1, None)).unwrap();
        drop(w);
        // Tear the last record mid-line.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 9]).unwrap();

        let (mut w, contents) = JournalWriter::append_to::<TrialRecord>(&path).unwrap();
        assert!(contents.torn, "truncated tail must be detected");
        assert_eq!(contents.records.len(), 1, "torn record is discarded");
        assert_eq!(contents.records[0].trial, 0);
        // Appending after recovery lands on a clean line boundary.
        w.record(&rec("a", 1, None)).unwrap();
        drop(w);
        let back = read_journal::<TrialRecord>(&path).unwrap();
        assert!(!back.torn);
        assert_eq!(back.records.len(), 2);
        assert_eq!(back.records[1].trial, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_before_the_tail_is_an_error() {
        let path = temp_path("corrupt");
        let fp = grid_fingerprint("g");
        let mut w = JournalWriter::create(&path, &fp, "g").unwrap();
        w.record(&rec("a", 0, None)).unwrap();
        w.record(&rec("a", 1, None)).unwrap();
        drop(w);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let mangled = format!("{}\nnot json at all\n{}\n", lines[0], lines[2]);
        std::fs::write(&path, mangled).unwrap();
        let err = read_journal::<TrialRecord>(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_mismatch_in_records_is_an_error() {
        let path = temp_path("fpmix");
        let mut w = JournalWriter::create(&path, "aaaa", "g").unwrap();
        w.record(&rec("a", 0, None)).unwrap();
        drop(w);
        let text = std::fs::read_to_string(&path).unwrap();
        let swapped = text.replacen("\"fp\":\"aaaa\"", "\"fp\":\"bbbb\"", 2);
        // Both header and record now say bbbb... make ONLY the record
        // mismatch by rewriting just the second occurrence.
        let header_fixed = swapped.replacen("\"fp\":\"bbbb\"", "\"fp\":\"aaaa\"", 1);
        std::fs::write(&path, header_fixed).unwrap();
        // The mismatching record is the last line → treated as torn and
        // discarded rather than fatal.
        let back = read_journal::<TrialRecord>(&path).unwrap();
        assert!(back.torn);
        assert!(back.records.is_empty());
        std::fs::remove_file(&path).ok();
    }

    /// A minimal `serve-cell` record: the journal owns the envelope and
    /// the torn-tail rule, whatever crate owns the record kind.
    #[derive(Debug, PartialEq)]
    struct Cell {
        config: String,
    }

    impl JournalRecord for Cell {
        const KIND: &'static str = "serve-cell";

        fn fields_json(&self) -> String {
            format!("\"config\":\"{}\"", esc(&self.config))
        }

        fn from_obj(obj: &[(String, JVal)]) -> Option<Self> {
            Some(Cell { config: get_str(obj, "config")?.to_string() })
        }
    }

    #[test]
    fn undecodable_serve_cell_is_an_error_before_the_tail_and_torn_at_it() {
        let path = temp_path("serve-cell");
        let mut w = JournalWriter::create(&path, "ffff", "g").unwrap();
        for config in ["os-default", "tuned", "online"] {
            w.record(&Cell { config: config.to_string() }).unwrap();
        }
        drop(w);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Same envelope, but the body no longer decodes as a cell.
        let broken = lines[2].replace("\"config\"", "\"konfig\"");

        let middle = format!("{}\n{}\n{broken}\n{}\n", lines[0], lines[1], lines[3]);
        std::fs::write(&path, middle).unwrap();
        let err = read_journal::<Cell>(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 3"), "{err}");

        let tail = format!("{}\n{}\n{broken}\n", lines[0], lines[1]);
        std::fs::write(&path, tail).unwrap();
        let back = read_journal::<Cell>(&path).unwrap();
        assert!(back.torn, "an undecodable last line is a torn tail");
        assert_eq!(back.records, vec![Cell { config: "os-default".to_string() }]);

        // A trial journal's reader rejects serve cells outright.
        let err = read_journal::<TrialRecord>(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_or_bad_header_is_an_error() {
        let path = temp_path("hdr");
        std::fs::write(&path, "").unwrap();
        assert!(read_journal::<TrialRecord>(&path).is_err(), "empty journal has no header");
        std::fs::write(&path, "{\"v\":1,\"kind\":\"trial\"}\n").unwrap();
        assert!(read_journal::<TrialRecord>(&path).is_err(), "first line must be a header");
        std::fs::write(&path, "{\"v\":99,\"kind\":\"header\",\"fp\":\"x\"}\n").unwrap();
        assert!(read_journal::<TrialRecord>(&path).is_err(), "unknown version must be rejected");
        std::fs::remove_file(&path).ok();
    }
}
