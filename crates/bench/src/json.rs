//! Minimal JSON support for experiment results.
//!
//! The container this repo builds in has no network access, so instead
//! of `serde_json` we carry a small hand-rolled JSON value type with a
//! writer and a recursive-descent parser — enough to emit and re-read
//! the flat records in `results/bench.json` (one JSON object per line,
//! i.e. JSON Lines, so concurrent binaries can append without a merge
//! step).

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// A JSON value. Objects use a [`BTreeMap`] so output key order is
/// deterministic, which keeps `results/bench.json` diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integers are emitted without a fractional part).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with deterministic (sorted) key order.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value under `key`, when this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// This value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as an integer (exact numbers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// This value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parses one JSON value from a string.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::at(p.pos, "trailing characters"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        '\r' => f.write_str("\\r")?,
                        '\t' => f.write_str("\\t")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => write!(f, "{c}")?,
                    }
                }
                f.write_str("\"")
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", Json::Str(k.clone()))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A parse error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    fn at(pos: usize, message: impl Into<String>) -> Self {
        JsonError { pos, message: message.into() }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(self.pos, format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(JsonError::at(self.pos, format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(JsonError::at(self.pos, "expected a value")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(JsonError::at(start, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| JsonError::at(self.pos, "bad \\u escape"))?;
                            // Surrogate pairs are not needed for our
                            // ASCII-labelled records; reject them.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| JsonError::at(self.pos, "bad \\u code point"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(JsonError::at(self.pos, "bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance over one UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| JsonError::at(self.pos, "invalid UTF-8"))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError::at(start, format!("bad number '{text}'")))
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(JsonError::at(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(JsonError::at(self.pos, "expected ',' or '}'")),
            }
        }
    }
}

/// One measured `(config, workload)` cell, as recorded in
/// `results/bench.json`.
///
/// The schema is flat on purpose: each line is independent, so files
/// from different binaries/runs concatenate cleanly and ad-hoc tooling
/// (`grep`, `jq`, a five-line Python script) can slice them.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Which experiment binary produced the record, e.g.
    /// `"mpki_generations"`.
    pub experiment: String,
    /// Predictor or configuration label, e.g. `"z15"` or `"gshare-8KB"`.
    pub config: String,
    /// Workload label within the suite.
    pub workload: String,
    /// Instruction budget the workload was generated with.
    pub instrs: u64,
    /// Workload generator seed.
    pub seed: u64,
    /// Mispredictions per thousand instructions.
    pub mpki: f64,
    /// Direction accuracy in `[0, 1]`.
    pub dir_acc: f64,
    /// Dynamic (BTB-hit) prediction coverage in `[0, 1]`.
    pub coverage: f64,
    /// Dynamic branches measured.
    pub branches: u64,
    /// Restart-causing mispredictions.
    pub mispredicts: u64,
    /// Pipeline flushes delivered to the predictor.
    pub flushes: u64,
    /// Wall-clock time for this cell, in milliseconds.
    pub wall_ms: f64,
    /// Worker threads the parent experiment ran with.
    pub threads: u64,
    /// Telemetry summary for this cell (schema 2): counters and
    /// histogram aggregates as produced by [`telemetry_json`]. `None`
    /// when the run was not traced.
    pub telemetry: Option<Json>,
}

impl BenchRecord {
    /// Converts the record to a JSON object.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("schema", Json::Num(2.0)),
            ("experiment", Json::Str(self.experiment.clone())),
            ("config", Json::Str(self.config.clone())),
            ("workload", Json::Str(self.workload.clone())),
            ("instrs", Json::Num(self.instrs as f64)),
            ("seed", Json::Num(self.seed as f64)),
            ("mpki", Json::Num(self.mpki)),
            ("dir_acc", Json::Num(self.dir_acc)),
            ("coverage", Json::Num(self.coverage)),
            ("branches", Json::Num(self.branches as f64)),
            ("mispredicts", Json::Num(self.mispredicts as f64)),
            ("flushes", Json::Num(self.flushes as f64)),
            ("wall_ms", Json::Num(self.wall_ms)),
            ("threads", Json::Num(self.threads as f64)),
        ];
        if let Some(tel) = &self.telemetry {
            pairs.push(("telemetry", tel.clone()));
        }
        Json::obj(pairs)
    }

    /// Reconstructs a record from a JSON object (as written by
    /// [`to_json`](Self::to_json)); `None` unless the line declares
    /// `schema: 1` or `schema: 2`. Schema-1 lines, which lack the
    /// `telemetry` field, parse with `telemetry: None`.
    pub fn from_json(v: &Json) -> Option<BenchRecord> {
        if !matches!(v.get("schema")?.as_u64()?, 1 | 2) {
            return None;
        }
        Some(BenchRecord {
            experiment: v.get("experiment")?.as_str()?.to_string(),
            config: v.get("config")?.as_str()?.to_string(),
            workload: v.get("workload")?.as_str()?.to_string(),
            instrs: v.get("instrs")?.as_u64()?,
            seed: v.get("seed")?.as_u64()?,
            mpki: v.get("mpki")?.as_f64()?,
            dir_acc: v.get("dir_acc")?.as_f64()?,
            coverage: v.get("coverage")?.as_f64()?,
            branches: v.get("branches")?.as_u64()?,
            mispredicts: v.get("mispredicts")?.as_u64()?,
            flushes: v.get("flushes")?.as_u64()?,
            wall_ms: v.get("wall_ms")?.as_f64()?,
            threads: v.get("threads")?.as_u64()?,
            telemetry: v.get("telemetry").cloned(),
        })
    }
}

/// One load-generator run against the sharded prediction service, as
/// recorded in `results/bench.json` (schema 3).
///
/// Schema-3 lines coexist with schema-2 [`BenchRecord`] lines in the
/// same JSON Lines file; readers dispatch on the `schema` field.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRecord {
    /// Which binary produced the record, e.g. `"loadgen"`.
    pub experiment: String,
    /// Predictor configuration label the streams ran with.
    pub config: String,
    /// Predictor shards in the pool.
    pub shards: u64,
    /// Concurrent client connections.
    pub clients: u64,
    /// Peak concurrently-open streams across all connections (soak
    /// mode multiplexes many streams per connection; 0 on records
    /// written before the field existed).
    pub concurrent: u64,
    /// Sessions completed across all clients.
    pub sessions: u64,
    /// Branch records served in total.
    pub records: u64,
    /// Feed/open/close attempts rejected with `Busy` (then retried).
    pub busy_rejections: u64,
    /// End-to-end wall time, in milliseconds.
    pub wall_ms: f64,
    /// Served records per second over the whole run.
    pub throughput_rps: f64,
    /// Median per-session completion latency, in microseconds.
    pub lat_p50_us: f64,
    /// 90th-percentile session latency, in microseconds.
    pub lat_p90_us: f64,
    /// 99th-percentile session latency, in microseconds.
    pub lat_p99_us: f64,
    /// Worst session latency, in microseconds.
    pub lat_max_us: f64,
}

impl ServeRecord {
    /// Converts the record to a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Num(3.0)),
            ("experiment", Json::Str(self.experiment.clone())),
            ("config", Json::Str(self.config.clone())),
            ("shards", Json::Num(self.shards as f64)),
            ("clients", Json::Num(self.clients as f64)),
            ("concurrent", Json::Num(self.concurrent as f64)),
            ("sessions", Json::Num(self.sessions as f64)),
            ("records", Json::Num(self.records as f64)),
            ("busy_rejections", Json::Num(self.busy_rejections as f64)),
            ("wall_ms", Json::Num(self.wall_ms)),
            ("throughput_rps", Json::Num(self.throughput_rps)),
            ("lat_p50_us", Json::Num(self.lat_p50_us)),
            ("lat_p90_us", Json::Num(self.lat_p90_us)),
            ("lat_p99_us", Json::Num(self.lat_p99_us)),
            ("lat_max_us", Json::Num(self.lat_max_us)),
        ])
    }

    /// Reconstructs a record from a JSON object; `None` unless the line
    /// declares `schema: 3`.
    pub fn from_json(v: &Json) -> Option<ServeRecord> {
        if v.get("schema")?.as_u64()? != 3 {
            return None;
        }
        Some(ServeRecord {
            experiment: v.get("experiment")?.as_str()?.to_string(),
            config: v.get("config")?.as_str()?.to_string(),
            shards: v.get("shards")?.as_u64()?,
            clients: v.get("clients")?.as_u64()?,
            // Absent on schema-3 lines written before soak mode.
            concurrent: v.get("concurrent").and_then(Json::as_u64).unwrap_or(0),
            sessions: v.get("sessions")?.as_u64()?,
            records: v.get("records")?.as_u64()?,
            busy_rejections: v.get("busy_rejections")?.as_u64()?,
            wall_ms: v.get("wall_ms")?.as_f64()?,
            throughput_rps: v.get("throughput_rps")?.as_f64()?,
            lat_p50_us: v.get("lat_p50_us")?.as_f64()?,
            lat_p90_us: v.get("lat_p90_us")?.as_f64()?,
            lat_p99_us: v.get("lat_p99_us")?.as_f64()?,
            lat_max_us: v.get("lat_max_us")?.as_f64()?,
        })
    }
}

/// One hard-to-predict branch inside an [`ArenaRecord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArenaH2p {
    /// Static branch address.
    pub addr: u64,
    /// Dynamic executions of the branch.
    pub execs: u64,
    /// Times it resolved taken.
    pub taken: u64,
    /// Restart-causing mispredictions charged to it.
    pub mispredicts: u64,
}

/// One `(predictor, workload)` cell of a tournament run by the `arena`
/// binary, as recorded in `results/bench.json` (schema 4).
///
/// Schema-4 lines coexist with schema-2 [`BenchRecord`] and schema-3
/// [`ServeRecord`] lines in the same JSON Lines file; readers dispatch
/// on the `schema` field.
#[derive(Debug, Clone, PartialEq)]
pub struct ArenaRecord {
    /// Which binary produced the record (normally `"arena"`).
    pub experiment: String,
    /// Predictor label — a registry name or `"z15"`.
    pub predictor: String,
    /// Workload label within the suite.
    pub workload: String,
    /// Workload generator seed.
    pub seed: u64,
    /// Instruction budget the workload was generated with.
    pub instrs: u64,
    /// Modelled predictor storage in bits (0 = no modelled budget).
    pub storage_bits: u64,
    /// Mispredictions per thousand instructions.
    pub mpki: f64,
    /// Direction accuracy in `[0, 1]`.
    pub dir_acc: f64,
    /// Dynamic (BTB-hit) prediction coverage in `[0, 1]`.
    pub coverage: f64,
    /// Dynamic branches measured.
    pub branches: u64,
    /// Restart-causing mispredictions.
    pub mispredicts: u64,
    /// Pipeline flushes delivered to the predictor.
    pub flushes: u64,
    /// Distinct static branch addresses profiled in this cell.
    pub static_branches: u64,
    /// The cell's hardest-to-predict branches, most mispredicted
    /// first (ties broken by ascending address).
    pub h2p: Vec<ArenaH2p>,
}

impl ArenaRecord {
    /// Converts the record to a JSON object.
    pub fn to_json(&self) -> Json {
        let h2p = Json::Arr(
            self.h2p
                .iter()
                .map(|h| {
                    Json::obj([
                        ("addr", Json::Num(h.addr as f64)),
                        ("execs", Json::Num(h.execs as f64)),
                        ("taken", Json::Num(h.taken as f64)),
                        ("mispredicts", Json::Num(h.mispredicts as f64)),
                    ])
                })
                .collect(),
        );
        Json::obj([
            ("schema", Json::Num(4.0)),
            ("experiment", Json::Str(self.experiment.clone())),
            ("predictor", Json::Str(self.predictor.clone())),
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("instrs", Json::Num(self.instrs as f64)),
            ("storage_bits", Json::Num(self.storage_bits as f64)),
            ("mpki", Json::Num(self.mpki)),
            ("dir_acc", Json::Num(self.dir_acc)),
            ("coverage", Json::Num(self.coverage)),
            ("branches", Json::Num(self.branches as f64)),
            ("mispredicts", Json::Num(self.mispredicts as f64)),
            ("flushes", Json::Num(self.flushes as f64)),
            ("static_branches", Json::Num(self.static_branches as f64)),
            ("h2p", h2p),
        ])
    }

    /// Reconstructs a record from a JSON object; `None` unless the line
    /// declares `schema: 4`.
    pub fn from_json(v: &Json) -> Option<ArenaRecord> {
        if v.get("schema")?.as_u64()? != 4 {
            return None;
        }
        let h2p = match v.get("h2p")? {
            Json::Arr(items) => items
                .iter()
                .map(|h| {
                    Some(ArenaH2p {
                        addr: h.get("addr")?.as_u64()?,
                        execs: h.get("execs")?.as_u64()?,
                        taken: h.get("taken")?.as_u64()?,
                        mispredicts: h.get("mispredicts")?.as_u64()?,
                    })
                })
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        Some(ArenaRecord {
            experiment: v.get("experiment")?.as_str()?.to_string(),
            predictor: v.get("predictor")?.as_str()?.to_string(),
            workload: v.get("workload")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_u64()?,
            instrs: v.get("instrs")?.as_u64()?,
            storage_bits: v.get("storage_bits")?.as_u64()?,
            mpki: v.get("mpki")?.as_f64()?,
            dir_acc: v.get("dir_acc")?.as_f64()?,
            coverage: v.get("coverage")?.as_f64()?,
            branches: v.get("branches")?.as_u64()?,
            mispredicts: v.get("mispredicts")?.as_u64()?,
            flushes: v.get("flushes")?.as_u64()?,
            static_branches: v.get("static_branches")?.as_u64()?,
            h2p,
        })
    }
}

/// One SimPoint weighted-replay validation row, as recorded in
/// `results/bench.json` (schema 5).
///
/// The `simpoint` binary writes one row per workload plus one
/// suite-merged row (`workload: "suite"`); the suite row additionally
/// carries end-to-end wall times for the full and sampled runs
/// (per-workload rows leave them at `0`). Schema-5 lines coexist with
/// schemas 2–4 in the same JSON Lines file; readers dispatch on the
/// `schema` field.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPointRecord {
    /// Which binary produced the record (normally `"simpoint"`).
    pub experiment: String,
    /// Predictor configuration label.
    pub config: String,
    /// Workload label, or `"suite"` for the merged row.
    pub workload: String,
    /// Workload generator seed (suite base seed on the suite row).
    pub seed: u64,
    /// Worker threads the run used.
    pub threads: u64,
    /// BBV interval granularity, in instructions.
    pub interval_instrs: u64,
    /// Intervals the trace(s) sliced into.
    pub intervals: u64,
    /// Representative slices selected (≤ the requested cluster count).
    pub slices: u64,
    /// Source instructions a full replay would simulate.
    pub total_instrs: u64,
    /// Measured instructions across the selected slices.
    pub simulated_instrs: u64,
    /// Instructions actually replayed (warmup included).
    pub fed_instrs: u64,
    /// MPKI of the full replay.
    pub full_mpki: f64,
    /// MPKI reconstructed from the weighted slices.
    pub est_mpki: f64,
    /// `|est - full| / full`, in `[0, 1]` (0 when `full_mpki` is 0).
    pub err_frac: f64,
    /// Full-replay wall time in milliseconds (suite row only).
    pub full_wall_ms: f64,
    /// Weighted-replay wall time in milliseconds (suite row only).
    pub sampled_wall_ms: f64,
}

impl SimPointRecord {
    /// Converts the record to a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Num(5.0)),
            ("experiment", Json::Str(self.experiment.clone())),
            ("config", Json::Str(self.config.clone())),
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("threads", Json::Num(self.threads as f64)),
            ("interval_instrs", Json::Num(self.interval_instrs as f64)),
            ("intervals", Json::Num(self.intervals as f64)),
            ("slices", Json::Num(self.slices as f64)),
            ("total_instrs", Json::Num(self.total_instrs as f64)),
            ("simulated_instrs", Json::Num(self.simulated_instrs as f64)),
            ("fed_instrs", Json::Num(self.fed_instrs as f64)),
            ("full_mpki", Json::Num(self.full_mpki)),
            ("est_mpki", Json::Num(self.est_mpki)),
            ("err_frac", Json::Num(self.err_frac)),
            ("full_wall_ms", Json::Num(self.full_wall_ms)),
            ("sampled_wall_ms", Json::Num(self.sampled_wall_ms)),
        ])
    }

    /// Reconstructs a record from a JSON object; `None` unless the line
    /// declares `schema: 5`.
    pub fn from_json(v: &Json) -> Option<SimPointRecord> {
        if v.get("schema")?.as_u64()? != 5 {
            return None;
        }
        Some(SimPointRecord {
            experiment: v.get("experiment")?.as_str()?.to_string(),
            config: v.get("config")?.as_str()?.to_string(),
            workload: v.get("workload")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_u64()?,
            threads: v.get("threads")?.as_u64()?,
            interval_instrs: v.get("interval_instrs")?.as_u64()?,
            intervals: v.get("intervals")?.as_u64()?,
            slices: v.get("slices")?.as_u64()?,
            total_instrs: v.get("total_instrs")?.as_u64()?,
            simulated_instrs: v.get("simulated_instrs")?.as_u64()?,
            fed_instrs: v.get("fed_instrs")?.as_u64()?,
            full_mpki: v.get("full_mpki")?.as_f64()?,
            est_mpki: v.get("est_mpki")?.as_f64()?,
            err_frac: v.get("err_frac")?.as_f64()?,
            full_wall_ms: v.get("full_wall_ms")?.as_f64()?,
            sampled_wall_ms: v.get("sampled_wall_ms")?.as_f64()?,
        })
    }
}

/// Appends SimPoint records to a JSON Lines file (same appending
/// contract as [`append_records`]).
pub fn append_simpoint_records(path: &Path, records: &[SimPointRecord]) -> std::io::Result<()> {
    if records.is_empty() {
        return Ok(());
    }
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut buf = String::new();
    for r in records {
        buf.push_str(&r.to_json().to_string());
        buf.push('\n');
    }
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    f.write_all(buf.as_bytes())
}

/// Reads every parseable schema-5 record from a JSON Lines file,
/// skipping lines of every other schema.
pub fn read_simpoint_records(path: &Path) -> std::io::Result<Vec<SimPointRecord>> {
    let text = std::fs::read_to_string(path)?;
    Ok(text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| Json::parse(l).ok())
        .filter_map(|v| SimPointRecord::from_json(&v))
        .collect())
}

/// One replay-throughput measurement row from the `throughput` binary
/// (experiment E23), as recorded in `results/bench.json` (schema 6).
///
/// The binary writes one row per workload plus one suite-aggregate row
/// (`workload: "suite"`), all with `path: "generic"`: the streaming
/// session every served stream runs. Older files also hold `"fast"`
/// rows, from a buffered replay path that has since been deleted;
/// readers keep parsing them. Wall times are
/// best-of-`reps`: on shared CI machines a single timing can be 25–40%
/// off, and the minimum over a few repetitions is the stable estimator
/// of the achievable rate (PERFORMANCE.md §Measurement protocol).
/// Schema-6 lines coexist with schemas 2–5 in the same JSON Lines
/// file; readers dispatch on the `schema` field.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRecord {
    /// Which binary produced the record (normally `"throughput"`).
    pub experiment: String,
    /// Predictor configuration label.
    pub config: String,
    /// Stable fingerprint of the full configuration (FNV-1a over its
    /// canonical debug rendering), so rate comparisons across commits
    /// only pair up runs of identical configs.
    pub config_hash: String,
    /// Workload label, or `"suite"` for the aggregate row.
    pub workload: String,
    /// Workload generator seed (suite base seed on the suite row).
    pub seed: u64,
    /// Replay threads the measured rate is normalized to (the binary
    /// measures single-threaded, so rates are per-thread by
    /// construction).
    pub threads: u64,
    /// `"generic"` (streaming session). `"fast"` appears only in rows
    /// written before the buffered path was deleted.
    pub path: String,
    /// Timing repetitions the best-of wall time was taken over.
    pub reps: u64,
    /// Instructions replayed per timed run.
    pub instrs: u64,
    /// Best-of-`reps` wall time, in milliseconds.
    pub wall_ms: f64,
    /// Replay rate: `instrs / wall`, in instructions per second per
    /// thread.
    pub instrs_per_s: f64,
    /// MPKI of the measured run — the determinism echo: identical
    /// across paths and reps or the measurement is invalid.
    pub mpki: f64,
}

impl ThroughputRecord {
    /// Converts the record to a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Num(6.0)),
            ("experiment", Json::Str(self.experiment.clone())),
            ("config", Json::Str(self.config.clone())),
            ("config_hash", Json::Str(self.config_hash.clone())),
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("threads", Json::Num(self.threads as f64)),
            ("path", Json::Str(self.path.clone())),
            ("reps", Json::Num(self.reps as f64)),
            ("instrs", Json::Num(self.instrs as f64)),
            ("wall_ms", Json::Num(self.wall_ms)),
            ("instrs_per_s", Json::Num(self.instrs_per_s)),
            ("mpki", Json::Num(self.mpki)),
        ])
    }

    /// Reconstructs a record from a JSON object; `None` unless the line
    /// declares `schema: 6`.
    pub fn from_json(v: &Json) -> Option<ThroughputRecord> {
        if v.get("schema")?.as_u64()? != 6 {
            return None;
        }
        Some(ThroughputRecord {
            experiment: v.get("experiment")?.as_str()?.to_string(),
            config: v.get("config")?.as_str()?.to_string(),
            config_hash: v.get("config_hash")?.as_str()?.to_string(),
            workload: v.get("workload")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_u64()?,
            threads: v.get("threads")?.as_u64()?,
            path: v.get("path")?.as_str()?.to_string(),
            reps: v.get("reps")?.as_u64()?,
            instrs: v.get("instrs")?.as_u64()?,
            wall_ms: v.get("wall_ms")?.as_f64()?,
            instrs_per_s: v.get("instrs_per_s")?.as_f64()?,
            mpki: v.get("mpki")?.as_f64()?,
        })
    }
}

/// Appends throughput records to a JSON Lines file (same appending
/// contract as [`append_records`]).
pub fn append_throughput_records(path: &Path, records: &[ThroughputRecord]) -> std::io::Result<()> {
    if records.is_empty() {
        return Ok(());
    }
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut buf = String::new();
    for r in records {
        buf.push_str(&r.to_json().to_string());
        buf.push('\n');
    }
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    f.write_all(buf.as_bytes())
}

/// Reads every parseable schema-6 record from a JSON Lines file,
/// skipping lines of every other schema.
pub fn read_throughput_records(path: &Path) -> std::io::Result<Vec<ThroughputRecord>> {
    let text = std::fs::read_to_string(path)?;
    Ok(text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| Json::parse(l).ok())
        .filter_map(|v| ThroughputRecord::from_json(&v))
        .collect())
}

/// One chaos-campaign row from the `chaos` binary (experiment E24), as
/// recorded in `results/bench.json` (schema 7).
///
/// Each row is one campaign of one fault kind through the TCP serve
/// path. `parity_failures` is the headline: it must be 0 — every
/// stream the fault interrupted recovered to a byte-identical report.
/// Schema-7 lines coexist with schemas 2–6 in the same JSON Lines
/// file; readers dispatch on the `schema` field.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRecord {
    /// Which binary produced the record (normally `"chaos"`).
    pub experiment: String,
    /// Fault tag: `"shard-kill"`, `"busy-storm"`, `"orphan-connection"`.
    pub fault: String,
    /// Predictor configuration label the streams ran with.
    pub config: String,
    /// Predictor shards in the pool.
    pub shards: u64,
    /// Streams multiplexed over the campaign connection.
    pub streams: u64,
    /// Times the fault fired.
    pub faults_injected: u64,
    /// Streams that died and were replayed from scratch.
    pub recoveries: u64,
    /// `Busy` replies absorbed by the client retry loop.
    pub busy_retries: u64,
    /// Streams whose final report diverged from the isolated local
    /// baseline (the pass criterion is 0).
    pub parity_failures: u64,
    /// End-to-end campaign wall time, in milliseconds.
    pub wall_ms: f64,
}

impl ChaosRecord {
    /// Converts the record to a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Num(7.0)),
            ("experiment", Json::Str(self.experiment.clone())),
            ("fault", Json::Str(self.fault.clone())),
            ("config", Json::Str(self.config.clone())),
            ("shards", Json::Num(self.shards as f64)),
            ("streams", Json::Num(self.streams as f64)),
            ("faults_injected", Json::Num(self.faults_injected as f64)),
            ("recoveries", Json::Num(self.recoveries as f64)),
            ("busy_retries", Json::Num(self.busy_retries as f64)),
            ("parity_failures", Json::Num(self.parity_failures as f64)),
            ("wall_ms", Json::Num(self.wall_ms)),
        ])
    }

    /// Reconstructs a record from a JSON object; `None` unless the line
    /// declares `schema: 7`.
    pub fn from_json(v: &Json) -> Option<ChaosRecord> {
        if v.get("schema")?.as_u64()? != 7 {
            return None;
        }
        Some(ChaosRecord {
            experiment: v.get("experiment")?.as_str()?.to_string(),
            fault: v.get("fault")?.as_str()?.to_string(),
            config: v.get("config")?.as_str()?.to_string(),
            shards: v.get("shards")?.as_u64()?,
            streams: v.get("streams")?.as_u64()?,
            faults_injected: v.get("faults_injected")?.as_u64()?,
            recoveries: v.get("recoveries")?.as_u64()?,
            busy_retries: v.get("busy_retries")?.as_u64()?,
            parity_failures: v.get("parity_failures")?.as_u64()?,
            wall_ms: v.get("wall_ms")?.as_f64()?,
        })
    }
}

/// Appends chaos records to a JSON Lines file (same appending contract
/// as [`append_records`]).
pub fn append_chaos_records(path: &Path, records: &[ChaosRecord]) -> std::io::Result<()> {
    if records.is_empty() {
        return Ok(());
    }
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut buf = String::new();
    for r in records {
        buf.push_str(&r.to_json().to_string());
        buf.push('\n');
    }
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    f.write_all(buf.as_bytes())
}

/// Reads every parseable schema-7 record from a JSON Lines file,
/// skipping lines of every other schema.
pub fn read_chaos_records(path: &Path) -> std::io::Result<Vec<ChaosRecord>> {
    let text = std::fs::read_to_string(path)?;
    Ok(text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| Json::parse(l).ok())
        .filter_map(|v| ChaosRecord::from_json(&v))
        .collect())
}

/// Appends arena records to a JSON Lines file (same appending contract
/// as [`append_records`]).
pub fn append_arena_records(path: &Path, records: &[ArenaRecord]) -> std::io::Result<()> {
    if records.is_empty() {
        return Ok(());
    }
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut buf = String::new();
    for r in records {
        buf.push_str(&r.to_json().to_string());
        buf.push('\n');
    }
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    f.write_all(buf.as_bytes())
}

/// Reads every parseable schema-4 record from a JSON Lines file,
/// skipping lines of every other schema.
pub fn read_arena_records(path: &Path) -> std::io::Result<Vec<ArenaRecord>> {
    let text = std::fs::read_to_string(path)?;
    Ok(text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| Json::parse(l).ok())
        .filter_map(|v| ArenaRecord::from_json(&v))
        .collect())
}

/// Appends serve records to a JSON Lines file (same appending contract
/// as [`append_records`]).
pub fn append_serve_records(path: &Path, records: &[ServeRecord]) -> std::io::Result<()> {
    if records.is_empty() {
        return Ok(());
    }
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut buf = String::new();
    for r in records {
        buf.push_str(&r.to_json().to_string());
        buf.push('\n');
    }
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    f.write_all(buf.as_bytes())
}

/// Reads every parseable schema-3 record from a JSON Lines file,
/// skipping schema-2 benchmark lines.
pub fn read_serve_records(path: &Path) -> std::io::Result<Vec<ServeRecord>> {
    let text = std::fs::read_to_string(path)?;
    Ok(text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| Json::parse(l).ok())
        .filter_map(|v| ServeRecord::from_json(&v))
        .collect())
}

/// Summarises a telemetry [`Snapshot`](zbp_telemetry::Snapshot) as a
/// JSON object suitable for embedding in a [`BenchRecord`]: every
/// counter verbatim, each histogram reduced to its aggregates
/// (`count`/`sum`/`min`/`max`/`mean`/`p50`/`p99`), and the span-window
/// accounting (`spans` retained, `spans_dropped` evicted). Spans
/// themselves go to the Chrome trace file, not the results log.
pub fn telemetry_json(snap: &zbp_telemetry::Snapshot) -> Json {
    let counters =
        Json::Obj(snap.counters.iter().map(|(k, v)| (k.clone(), Json::Num(*v as f64))).collect());
    let histograms = Json::Obj(
        snap.histograms
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    Json::obj([
                        ("count", Json::Num(h.count() as f64)),
                        ("sum", Json::Num(h.sum() as f64)),
                        ("min", Json::Num(h.min() as f64)),
                        ("max", Json::Num(h.max() as f64)),
                        ("mean", Json::Num(h.mean())),
                        ("p50", Json::Num(h.quantile(0.5) as f64)),
                        ("p99", Json::Num(h.quantile(0.99) as f64)),
                    ]),
                )
            })
            .collect(),
    );
    Json::obj([
        ("counters", counters),
        ("histograms", histograms),
        ("spans", Json::Num(snap.spans.len() as f64)),
        ("spans_dropped", Json::Num(snap.spans_dropped as f64)),
    ])
}

/// Appends records to a JSON Lines file, creating parent directories as
/// needed. All lines are buffered and written with a single `write_all`
/// so concurrently-appending processes interleave at record granularity,
/// not byte granularity.
pub fn append_records(path: &Path, records: &[BenchRecord]) -> std::io::Result<()> {
    if records.is_empty() {
        return Ok(());
    }
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut buf = String::new();
    for r in records {
        buf.push_str(&r.to_json().to_string());
        buf.push('\n');
    }
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    f.write_all(buf.as_bytes())
}

/// Reads every parseable record from a JSON Lines file.
pub fn read_records(path: &Path) -> std::io::Result<Vec<BenchRecord>> {
    let text = std::fs::read_to_string(path)?;
    Ok(text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| Json::parse(l).ok())
        .filter_map(|v| BenchRecord::from_json(&v))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchRecord {
        BenchRecord {
            experiment: "mpki_generations".into(),
            config: "z15".into(),
            workload: "oltp-like".into(),
            instrs: 200_000,
            seed: 1234,
            mpki: 4.321,
            dir_acc: 0.9712,
            coverage: 0.883,
            branches: 41_234,
            mispredicts: 876,
            flushes: 880,
            wall_ms: 12.5,
            threads: 4,
            telemetry: None,
        }
    }

    #[test]
    fn record_round_trips_through_text() {
        let r = sample();
        let text = r.to_json().to_string();
        let back = BenchRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn telemetry_summary_round_trips() {
        let mut snap = zbp_telemetry::Snapshot::new();
        snap.counters.insert("bpl.predictions".into(), 17);
        let mut h = zbp_telemetry::Histogram::new();
        for v in [1u64, 2, 3, 8] {
            h.observe(v);
        }
        snap.histograms.insert("gpq.occupancy".into(), h);
        snap.spans_dropped = 5;
        let mut r = sample();
        r.telemetry = Some(telemetry_json(&snap));
        let text = r.to_json().to_string();
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.get("schema").unwrap().as_u64(), Some(2));
        let back = BenchRecord::from_json(&v).unwrap();
        assert_eq!(r, back);
        let tel = back.telemetry.unwrap();
        assert_eq!(tel.get("counters").unwrap().get("bpl.predictions").unwrap().as_u64(), Some(17));
        let gpq = tel.get("histograms").unwrap().get("gpq.occupancy").unwrap();
        assert_eq!(gpq.get("count").unwrap().as_u64(), Some(4));
        assert_eq!(gpq.get("max").unwrap().as_u64(), Some(8));
        assert_eq!(tel.get("spans_dropped").unwrap().as_u64(), Some(5));
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(200000.0).to_string(), "200000");
        assert_eq!(Json::Num(4.5).to_string(), "4.5");
        assert_eq!(Json::Num(-3.0).to_string(), "-3");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = Json::Str("a\"b\\c\nd\te\u{1}".into());
        let text = s.to_string();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        assert_eq!(Json::parse(&text).unwrap(), s);
    }

    #[test]
    fn parser_handles_nesting_and_ws() {
        let v = Json::parse(" { \"a\" : [ 1 , 2.5 , null , true ] , \"b\" : {} } ").unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Null, Json::Bool(true)])
        );
        assert_eq!(v.get("b").unwrap(), &Json::Obj(BTreeMap::new()));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    fn sample_serve() -> ServeRecord {
        ServeRecord {
            experiment: "loadgen".into(),
            config: "z15".into(),
            shards: 2,
            clients: 8,
            sessions: 48,
            records: 1_000_000,
            busy_rejections: 12,
            wall_ms: 950.0,
            throughput_rps: 1.05e6,
            lat_p50_us: 1800.0,
            lat_p90_us: 2400.0,
            lat_p99_us: 3100.0,
            lat_max_us: 4200.0,
            concurrent: 8,
        }
    }

    #[test]
    fn serve_record_round_trips_as_schema_3() {
        let r = sample_serve();
        let text = r.to_json().to_string();
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.get("schema").unwrap().as_u64(), Some(3));
        assert_eq!(ServeRecord::from_json(&v).unwrap(), r);
        // Schema-2 readers skip it, and vice versa.
        assert!(BenchRecord::from_json(&v).is_none());
        assert!(ServeRecord::from_json(&sample().to_json()).is_none());
    }

    fn sample_arena() -> ArenaRecord {
        ArenaRecord {
            experiment: "arena".into(),
            predictor: "gshare".into(),
            workload: "oltp-like".into(),
            seed: 42,
            instrs: 50_000,
            storage_bits: 270_336,
            mpki: 6.78,
            dir_acc: 0.941,
            coverage: 0.87,
            branches: 9_876,
            mispredicts: 339,
            flushes: 341,
            static_branches: 412,
            h2p: vec![
                ArenaH2p { addr: 0x4f20, execs: 800, taken: 400, mispredicts: 120 },
                ArenaH2p { addr: 0x1a08, execs: 350, taken: 349, mispredicts: 44 },
            ],
        }
    }

    #[test]
    fn arena_record_round_trips_as_schema_4() {
        let r = sample_arena();
        let text = r.to_json().to_string();
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.get("schema").unwrap().as_u64(), Some(4));
        assert_eq!(ArenaRecord::from_json(&v).unwrap(), r);
        // Other-schema readers skip it, and vice versa.
        assert!(BenchRecord::from_json(&v).is_none());
        assert!(ServeRecord::from_json(&v).is_none());
        assert!(ArenaRecord::from_json(&sample().to_json()).is_none());
        assert!(ArenaRecord::from_json(&sample_serve().to_json()).is_none());
    }

    fn sample_simpoint() -> SimPointRecord {
        SimPointRecord {
            experiment: "simpoint".into(),
            config: "z15".into(),
            workload: "suite".into(),
            seed: 1234,
            threads: 8,
            interval_instrs: 8_000,
            intervals: 300,
            slices: 36,
            total_instrs: 2_400_000,
            simulated_instrs: 288_000,
            fed_instrs: 540_000,
            full_mpki: 4.812,
            est_mpki: 4.705,
            err_frac: 0.0222,
            full_wall_ms: 812.4,
            sampled_wall_ms: 196.7,
        }
    }

    #[test]
    fn simpoint_record_round_trips_as_schema_5() {
        let r = sample_simpoint();
        let text = r.to_json().to_string();
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.get("schema").unwrap().as_u64(), Some(5));
        assert_eq!(SimPointRecord::from_json(&v).unwrap(), r);
        // Other-schema readers skip it, and vice versa.
        assert!(BenchRecord::from_json(&v).is_none());
        assert!(ServeRecord::from_json(&v).is_none());
        assert!(ArenaRecord::from_json(&v).is_none());
        assert!(SimPointRecord::from_json(&sample().to_json()).is_none());
        assert!(SimPointRecord::from_json(&sample_arena().to_json()).is_none());
    }

    fn sample_throughput() -> ThroughputRecord {
        ThroughputRecord {
            experiment: "throughput".into(),
            config: "z15".into(),
            config_hash: "9e3779b97f4a7c15".into(),
            workload: "suite".into(),
            seed: 42,
            threads: 1,
            path: "generic".into(),
            reps: 5,
            instrs: 1_200_000,
            wall_ms: 31.7,
            instrs_per_s: 37_854_889.0,
            mpki: 5.102,
        }
    }

    #[test]
    fn throughput_record_round_trips_as_schema_6() {
        let r = sample_throughput();
        let text = r.to_json().to_string();
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.get("schema").unwrap().as_u64(), Some(6));
        assert_eq!(ThroughputRecord::from_json(&v).unwrap(), r);
        // Other-schema readers skip it, and vice versa.
        assert!(BenchRecord::from_json(&v).is_none());
        assert!(ServeRecord::from_json(&v).is_none());
        assert!(ArenaRecord::from_json(&v).is_none());
        assert!(SimPointRecord::from_json(&v).is_none());
        assert!(ThroughputRecord::from_json(&sample().to_json()).is_none());
        assert!(ThroughputRecord::from_json(&sample_simpoint().to_json()).is_none());
    }

    #[test]
    fn mixed_schema_files_read_cleanly() {
        let dir = std::env::temp_dir().join(format!("zbp-json-mixed-{}", std::process::id()));
        let path = dir.join("bench.json");
        let _ = std::fs::remove_dir_all(&dir);
        append_records(&path, &[sample()]).unwrap();
        append_serve_records(&path, &[sample_serve()]).unwrap();
        append_arena_records(&path, &[sample_arena()]).unwrap();
        append_simpoint_records(&path, &[sample_simpoint()]).unwrap();
        append_throughput_records(&path, &[sample_throughput()]).unwrap();
        assert_eq!(read_records(&path).unwrap(), vec![sample()]);
        assert_eq!(read_serve_records(&path).unwrap(), vec![sample_serve()]);
        assert_eq!(read_arena_records(&path).unwrap(), vec![sample_arena()]);
        assert_eq!(read_simpoint_records(&path).unwrap(), vec![sample_simpoint()]);
        assert_eq!(read_throughput_records(&path).unwrap(), vec![sample_throughput()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_and_read_records() {
        let dir = std::env::temp_dir().join(format!("zbp-json-test-{}", std::process::id()));
        let path = dir.join("nested/bench.json");
        let _ = std::fs::remove_dir_all(&dir);
        append_records(&path, &[sample()]).unwrap();
        let mut second = sample();
        second.config = "z14".into();
        append_records(&path, &[second.clone()]).unwrap();
        let all = read_records(&path).unwrap();
        assert_eq!(all, vec![sample(), second]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
