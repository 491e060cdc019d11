//! The serving layer over [`urs_core::Engine`]: a persistent process answering
//! newline-delimited JSON queries (see [`urs_core::engine`] for the grammar) from
//! one long-lived solver cache.
//!
//! The library owns everything that must be **panic-free**: line parsing, batch
//! assembly, response rendering, batch writing and the metrics bookkeeping.  The
//! `urs-server` binary is a thin I/O loop (stdin/stdout or TCP) that feeds batches
//! of raw lines to [`Server::respond_batch`] and measures wall-clock latency — the
//! only thing the library cannot do deterministically.
//!
//! # Contracts
//!
//! * **No panic, whatever the input.**  Malformed lines become
//!   `{"error":…,"type":"error"}` responses; so do queries the model layer
//!   rejects.  A bad query never disturbs its batch-mates and never poisons the
//!   engine.
//! * **Bounded lines.**  [`read_bounded_line`] never buffers a line much past
//!   [`MAX_LINE_BYTES`]; a longer line gets one error response, and the stream
//!   keeps answering from the next newline on.
//! * **Byte-identical replay.**  For every query except `stats`, the response is a
//!   deterministic function of the query alone: replaying a trace against a fresh
//!   process — at any `URS_THREADS`, with any batch boundaries — reproduces the
//!   response log byte for byte.  `stats` responses depend on cache and latency
//!   history and are excluded from the contract.
//!
//! Three stores serve related and repeated queries: the engine's [`SolverCache`]
//! keeps QBD skeletons across requests, so *related* queries skip building them;
//! each batch's plan store shares solutions and absorption chains between the
//! queries of that batch and is dropped with it; and the server's response memo
//! answers an *exactly repeated* query — keyed by its full canonical key, so
//! whitespace and key order don't matter and no two distinct queries can share an
//! entry — from the stored bytes of its first response.  Memoisation cannot break
//! replay: the first rendering is deterministic, and the memo returns those exact
//! bytes.  All are the same byte-budgeted LRU, [`ByteLru`] ([`urs_core::CACHE_BYTES`],
//! [`RESPONSE_MEMO_BYTES`]), so a standing process's memory stays flat however many
//! distinct queries it answers, and a memo hit keeps a popular answer from being
//! evicted.
//!
//! Responses leave a batch at a time through [`write_batch`]: one write per batch,
//! so on a socket with Nagle's algorithm off no response line is split across two
//! segments.
//!
//! [`SolverCache`]: urs_core::SolverCache
//! [`ByteLru`]: urs_core::ByteLru

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use std::io::{self, BufRead, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};

use urs_core::engine::json::{self, Value};
use urs_core::engine::{Query, QueryKey, QueryResult};
use urs_core::{ByteLru, CacheLevelStats, Engine};

/// Upper bound on how many in-flight lines the binary coalesces into one
/// [`Server::respond_batch`] call (and therefore one engine plan).
pub const MAX_BATCH: usize = 64;

/// The longest protocol line the server accepts, in bytes, excluding its newline
/// (1 MiB, far above any query the grammar can express usefully).  Longer lines
/// are answered with an error instead of being buffered.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Reads one line like [`BufRead::lines`], but holds at most [`MAX_LINE_BYTES`] + 1
/// bytes of it.  A longer line is skipped to its newline and returned as that
/// (lossily decoded) prefix, which [`Server::respond_batch`] answers with the
/// line-length error.  Returns `None` at end of input.
///
/// # Errors
///
/// Propagates read errors, and reports [`io::ErrorKind::InvalidData`] for a line
/// that is not UTF-8 (as [`BufRead::lines`] does).
pub fn read_bounded_line(reader: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    reader.by_ref().take(MAX_LINE_BYTES as u64 + 1).read_until(b'\n', &mut line)?;
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
    } else if line.len() > MAX_LINE_BYTES {
        reader.skip_until(b'\n')?;
        return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
    } else if line.is_empty() {
        return Ok(None);
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|error| io::Error::new(io::ErrorKind::InvalidData, error))
}

/// Byte budget of the response memo: each entry is charged its response bytes
/// plus what [`ByteLru::charge`] adds for its key words and bookkeeping.  The
/// least recently used entries are evicted to fit a new one; a response over the
/// whole budget is not memoised.
pub const RESPONSE_MEMO_BYTES: usize = 1 << 20;

/// Writes a batch's responses as one buffer — each response followed by `\n` — with
/// a single `write_all`, then flushes.
///
/// One write per batch is the wire contract: on a socket with Nagle's algorithm
/// off, a response never waits on the client's delayed ACK of an earlier segment
/// of itself.  Response bytes are exactly those of writing each line in turn.
///
/// # Errors
///
/// Propagates the writer's errors (a client that hung up).
pub fn write_batch(out: &mut impl Write, responses: &[String]) -> io::Result<()> {
    let mut buffer = Vec::with_capacity(responses.iter().map(|r| r.len() + 1).sum());
    for response in responses {
        buffer.extend_from_slice(response.as_bytes());
        buffer.push(b'\n');
    }
    out.write_all(&buffer)?;
    out.flush()
}

/// Number of power-of-two latency buckets (bucket `i` holds samples whose
/// microsecond latency has `i` significant bits, i.e. `[2^(i-1), 2^i)`).
const LATENCY_BUCKETS: usize = 40;

/// Request counters and a power-of-two latency histogram, all lock-free.
///
/// The library counts requests, errors and batches itself; latencies are measured
/// by the binary (the library never reads the clock) and fed in via
/// [`record_latency`](Self::record_latency).
#[derive(Debug)]
pub struct Metrics {
    requests: AtomicU64,
    errors: AtomicU64,
    batches: AtomicU64,
    latency_buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            latency_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A point-in-time copy of the [`Metrics`] counters with derived quantiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Total queries answered (including error responses).
    pub requests: u64,
    /// Responses that reported an error.
    pub errors: u64,
    /// Number of batches executed.
    pub batches: u64,
    /// Latency samples recorded so far.
    pub latency_samples: u64,
    /// Median per-request latency in microseconds (upper bucket bound).
    pub p50_micros: u64,
    /// 99th-percentile per-request latency in microseconds (upper bucket bound).
    pub p99_micros: u64,
}

impl Metrics {
    /// A fresh, all-zero metrics block.
    pub fn new() -> Self {
        Metrics::default()
    }

    fn bucket_index(micros: u64) -> usize {
        let bits = (u64::BITS - micros.leading_zeros()) as usize;
        bits.min(LATENCY_BUCKETS - 1)
    }

    /// Records `samples` requests that each took `micros` microseconds (the
    /// binary attributes an equal share of a batch's wall time to each request in
    /// it).
    pub fn record_latency(&self, micros: u64, samples: u64) {
        if let Some(bucket) = self.latency_buckets.get(Self::bucket_index(micros)) {
            bucket.fetch_add(samples, Ordering::Relaxed);
        }
    }

    fn quantile(counts: &[u64], rank: u64) -> u64 {
        let mut seen = 0u64;
        for (index, &count) in counts.iter().enumerate() {
            seen = seen.saturating_add(count);
            if seen >= rank && count > 0 {
                // Upper bound of bucket `index`: 2^index (bucket 0 is `0`).
                return if index == 0 { 0 } else { 1u64 << index };
            }
        }
        0
    }

    /// A consistent-enough snapshot of the counters (each counter is read once;
    /// concurrent writers may land between reads, which only skews a live `stats`
    /// query, never a replayed computation).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counts: Vec<u64> =
            self.latency_buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let samples: u64 = counts.iter().fold(0u64, |acc, &c| acc.saturating_add(c));
        let p50_rank = samples.div_ceil(2).max(1);
        let p99_rank = samples.saturating_mul(99).div_ceil(100).max(1);
        MetricsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            latency_samples: samples,
            p50_micros: Self::quantile(&counts, p50_rank),
            p99_micros: Self::quantile(&counts, p99_rank),
        }
    }

    /// The snapshot as a JSON object (embedded in `stats` responses), with the
    /// response memo's hits, misses, hit rate and bytes from its counters `memo`.
    pub fn to_json(&self, memo: &CacheLevelStats) -> Value {
        let snapshot = self.snapshot();
        json::object([
            ("requests", Value::Number(snapshot.requests as f64)),
            ("errors", Value::Number(snapshot.errors as f64)),
            ("batches", Value::Number(snapshot.batches as f64)),
            (
                "response_memo",
                json::object([
                    ("hits", Value::Number(memo.hits as f64)),
                    ("misses", Value::Number(memo.misses as f64)),
                    ("hit_rate", Value::Number(memo.hit_rate())),
                    ("bytes", Value::Number(memo.bytes as f64)),
                ]),
            ),
            (
                "latency",
                json::object([
                    ("samples", Value::Number(snapshot.latency_samples as f64)),
                    ("p50_micros", Value::Number(snapshot.p50_micros as f64)),
                    ("p99_micros", Value::Number(snapshot.p99_micros as f64)),
                ]),
            ),
        ])
    }
}

/// The serving core: one [`Engine`] (one shared cache) plus request metrics and
/// the response memo.
///
/// The memo maps a query's full canonical key ([`Query::canonical_key`]) — never
/// its digest alone, so two distinct queries can never share an answer — to the
/// rendered response line, within [`RESPONSE_MEMO_BYTES`].
#[derive(Debug)]
pub struct Server {
    engine: Engine,
    metrics: Metrics,
    memo: ByteLru<QueryKey, String>,
}

impl Default for Server {
    fn default() -> Self {
        Server::new()
    }
}

impl Server {
    /// A server over a fresh engine (new shared cache, default pool — honours
    /// `URS_THREADS`).
    pub fn new() -> Self {
        Server::with_engine(Engine::new())
    }

    /// A server over an existing engine.
    pub fn with_engine(engine: Engine) -> Self {
        Server { engine, metrics: Metrics::new(), memo: ByteLru::new(RESPONSE_MEMO_BYTES) }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The request metrics (fed by the binary's latency measurements).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The response memo's hits, misses, evictions, entries and bytes.
    pub fn memo_stats(&self) -> CacheLevelStats {
        self.memo.stats("response_memo")
    }

    /// Answers one line; equivalent to a one-line batch.
    pub fn respond_line(&self, line: &str) -> String {
        self.respond_batch(std::slice::from_ref(&line.to_string()))
            .into_iter()
            .next()
            .unwrap_or_else(|| error_response("internal: empty batch response"))
    }

    /// Answers a batch of raw protocol lines, one response line per input line, in
    /// input order.
    ///
    /// A query already answered once is served verbatim from the response memo
    /// (keyed by canonical parameters, so formatting differences still hit).  The
    /// remaining queries are planned together ([`urs_core::engine::plan`]) so
    /// batch-mates with the same QBD skeleton share cache entries and one pool
    /// fan-out; results are bit-identical to answering each line alone.  Malformed
    /// lines, lines over [`MAX_LINE_BYTES`] and failing queries yield
    /// `{"error":…,"type":"error"}` without affecting their neighbours.  Never
    /// panics.
    pub fn respond_batch(&self, lines: &[String]) -> Vec<String> {
        let mut responses: Vec<Option<String>> = lines.iter().map(|_| None).collect();
        let mut pending: Vec<(usize, Query, Option<QueryKey>)> = Vec::with_capacity(lines.len());
        for (index, line) in lines.iter().enumerate() {
            let parsed = if line.len() > MAX_LINE_BYTES {
                Err(format!("line exceeds the {MAX_LINE_BYTES}-byte limit"))
            } else {
                Query::parse_line(line).map_err(|error| error.to_string())
            };
            let query = match parsed {
                Ok(query) => query,
                Err(message) => {
                    if let Some(slot) = responses.get_mut(index) {
                        *slot = Some(error_response(&message));
                    }
                    continue;
                }
            };
            // `stats` responses are live, never memoised; a query with no sound
            // key is simply computed without memoisation.
            let key = if matches!(query, Query::Stats) { None } else { query.canonical_key().ok() };
            if let Some(hit) = key.as_ref().and_then(|key| self.memo.get(key)) {
                if let Some(slot) = responses.get_mut(index) {
                    *slot = Some(hit);
                }
                continue;
            }
            pending.push((index, query, key));
        }
        let queries: Vec<Query> = pending.iter().map(|(_, q, _)| q.clone()).collect();
        let results = self.engine.execute_batch(&queries);
        for ((index, query, key), result) in pending.into_iter().zip(results) {
            let response = match result {
                Ok(result) => {
                    let response = self.render(&query, result);
                    match key {
                        Some(key) => {
                            let bytes = response.len();
                            self.memo.insert_or_get(key, response, bytes)
                        }
                        None => response,
                    }
                }
                Err(error) => error_response(&error.to_string()),
            };
            if let Some(slot) = responses.get_mut(index) {
                *slot = Some(response);
            }
        }
        self.metrics.batches.fetch_add(1, Ordering::Relaxed);
        self.metrics.requests.fetch_add(lines.len() as u64, Ordering::Relaxed);
        let rendered: Vec<String> = responses
            .into_iter()
            .map(|slot| slot.unwrap_or_else(|| error_response("internal: unanswered query")))
            .collect();
        let errors = rendered.iter().filter(|r| r.starts_with("{\"error\"")).count() as u64;
        self.metrics.errors.fetch_add(errors, Ordering::Relaxed);
        rendered
    }

    fn render(&self, query: &Query, result: QueryResult) -> String {
        let mut value = result.to_json();
        if matches!(query, Query::Stats) {
            if let Value::Object(members) = &mut value {
                members.insert("server".to_string(), self.metrics.to_json(&self.memo_stats()));
            }
        }
        value.serialise()
    }
}

/// Renders an error response line (`{"error":…,"type":"error"}`).
pub fn error_response(message: &str) -> String {
    json::object([
        ("error", Value::String(message.to_string())),
        ("type", Value::String("error".to_string())),
    ])
    .serialise()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve_line(servers: usize, lambda: f64) -> String {
        format!(
            "{{\"type\":\"solve\",\"config\":{{\"servers\":{servers},\"arrival_rate\":{lambda},\
             \"service_rate\":1.0,\"lifecycle\":\"paper\"}}}}"
        )
    }

    #[test]
    fn malformed_lines_get_error_responses_and_good_lines_still_answer() {
        let server = Server::new();
        let lines = vec![
            "not json".to_string(),
            solve_line(4, 2.0),
            "{\"type\":\"warp\"}".to_string(),
            String::new(),
        ];
        let responses = server.respond_batch(&lines);
        assert_eq!(responses.len(), 4);
        assert!(responses[0].starts_with("{\"error\""));
        assert!(responses[1].contains("\"type\":\"solution\""));
        assert!(responses[2].starts_with("{\"error\""));
        assert!(responses[3].starts_with("{\"error\""));
        let snapshot = server.metrics().snapshot();
        assert_eq!(snapshot.requests, 4);
        assert_eq!(snapshot.errors, 3);
        assert_eq!(snapshot.batches, 1);
    }

    #[test]
    fn over_long_lines_are_cut_off_at_the_cap() {
        let long = "x".repeat(MAX_LINE_BYTES + 1);
        let exact = "y".repeat(MAX_LINE_BYTES);
        let input = format!("a\r\n{long}\nb\n{exact}\n\ntail");
        // A small buffer makes lines span many `fill_buf` calls.
        let mut reader = io::BufReader::with_capacity(7, input.as_bytes());
        let mut lines = Vec::new();
        while let Some(line) = read_bounded_line(&mut reader).unwrap() {
            lines.push(line);
        }
        // The over-long line comes back as its first MAX_LINE_BYTES + 1 bytes.
        assert_eq!(lines, ["a", long.as_str(), "b", exact.as_str(), "", "tail"]);
        assert!(read_bounded_line(&mut &b"\xff\n"[..]).is_err());
    }

    #[test]
    fn batched_responses_match_one_at_a_time_responses() {
        let lines: Vec<String> =
            vec![solve_line(4, 2.0), solve_line(5, 2.5), solve_line(4, 1.0), solve_line(4, 2.0)];
        let batched = Server::new().respond_batch(&lines);
        let singly = Server::new();
        for (line, batched) in lines.iter().zip(&batched) {
            assert_eq!(&singly.respond_line(line), batched);
        }
    }

    #[test]
    fn stats_responses_embed_server_metrics() {
        let server = Server::new();
        server.respond_line(&solve_line(4, 2.0));
        server.metrics().record_latency(1500, 1);
        let stats = server.respond_line("{\"type\":\"stats\"}");
        assert!(stats.contains("\"server\":{"), "missing server block: {stats}");
        assert!(stats.contains("\"p99_micros\""));
        assert!(stats.contains("\"total_hit_rate\""));
        json::Value::parse(&stats).expect("stats response must be valid JSON");
    }

    #[test]
    fn repeated_queries_hit_the_response_memo_with_identical_bytes() {
        let server = Server::new();
        let first = server.respond_line(&solve_line(4, 2.0));
        let second = server.respond_line(&solve_line(4, 2.0));
        assert_eq!(first, second);
        let memo = server.memo_stats();
        assert_eq!((memo.misses, memo.hits), (1, 1));
    }

    #[test]
    fn the_memo_keys_on_canonical_parameters_not_line_formatting() {
        let server = Server::new();
        server.respond_line(&solve_line(4, 2.0));
        // Same query, different key order and whitespace.
        let reordered = "{ \"config\": {\"arrival_rate\": 2.0, \"lifecycle\": \"paper\", \
                          \"servers\": 4, \"service_rate\": 1.0}, \"type\": \"solve\" }";
        server.respond_line(reordered);
        assert_eq!(server.memo_stats().hits, 1);
    }

    #[test]
    fn stats_queries_are_never_memoised() {
        let server = Server::new();
        server.respond_line("{\"type\":\"stats\"}");
        server.respond_line("{\"type\":\"stats\"}");
        assert_eq!(server.memo_stats().lookups(), 0);
    }

    fn key(word: u64) -> QueryKey {
        QueryKey::with_digest(vec![word], word)
    }

    type Memo = ByteLru<QueryKey, String>;

    /// Stores `"response"` under `key(word)`.
    fn store(memo: &Memo, word: u64) {
        memo.insert_or_get(key(word), "response".to_string(), "response".len());
    }

    #[test]
    fn the_memo_evicts_its_oldest_entry_at_capacity() {
        // Room for exactly four entries: the fifth store evicts the oldest one.
        let entry = Memo::charge(&key(0), "response".len());
        let memo = Memo::new(4 * entry);
        for word in 0..5 {
            store(&memo, word);
            assert!(memo.stats("memo").bytes <= 4 * entry as u64, "the memo must stay in budget");
        }
        assert!(memo.get(&key(0)).is_none(), "oldest entry should have been evicted");
        assert!(memo.get(&key(1)).is_some());
        let stats = memo.stats("memo");
        assert_eq!((stats.entries, stats.bytes), (4, 4 * entry as u64));
        // A response larger than the whole budget is not memoised and evicts nothing.
        let large = "x".repeat(4 * entry);
        memo.insert_or_get(key(9), large.clone(), large.len());
        assert!(memo.get(&key(9)).is_none());
        assert_eq!(memo.stats("memo").entries, 4);
    }

    #[test]
    fn a_memo_hit_refreshes_its_entry() {
        // Room for four entries; the hit on key 0 makes key 1 the least recently
        // used, so storing a fifth entry evicts key 1 and keeps key 0.
        let memo = Memo::new(4 * Memo::charge(&key(0), "response".len()));
        for word in 0..4 {
            store(&memo, word);
        }
        assert!(memo.get(&key(0)).is_some());
        store(&memo, 4);
        assert!(memo.get(&key(1)).is_none(), "the least recently used entry is evicted");
        assert!(memo.get(&key(0)).is_some(), "a hit keeps its entry");
    }

    #[test]
    fn the_memo_keys_on_the_full_key_not_its_digest() {
        let memo = Memo::new(RESPONSE_MEMO_BYTES);
        let stored = QueryKey::with_digest(vec![0, 1, 2], 7);
        let colliding = QueryKey::with_digest(vec![0, 1, 3], 7);
        assert_eq!(stored.digest(), colliding.digest());
        memo.insert_or_get(stored.clone(), "first answer".to_string(), 12);
        assert_eq!(memo.get(&stored).as_deref(), Some("first answer"));
        assert!(memo.get(&colliding).is_none(), "a shared digest must not share an answer");
    }

    #[test]
    fn stats_report_the_memo_bytes() {
        let server = Server::new();
        let response = server.respond_line(&solve_line(4, 2.0));
        let stats = json::Value::parse(&server.respond_line("{\"type\":\"stats\"}")).unwrap();
        let bytes = stats
            .get("server")
            .and_then(|s| s.get("response_memo"))
            .and_then(|m| m.get("bytes"))
            .and_then(json::Value::as_f64)
            .expect("response_memo.bytes");
        let key = Query::parse_line(&solve_line(4, 2.0)).unwrap().canonical_key().unwrap();
        assert_eq!(bytes as usize, Memo::charge(&key, response.len()));
    }

    /// A writer that accepts everything and counts its `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_batch_goes_out_in_one_write() {
        for size in [1, MAX_BATCH] {
            let responses: Vec<String> = (0..size).map(|i| format!("{{\"n\":{i}}}")).collect();
            let mut out = CountingWriter::default();
            write_batch(&mut out, &responses).unwrap();
            assert_eq!(out.writes, 1, "batch of {size} took {} writes", out.writes);
            let expected: String = responses.iter().map(|r| format!("{r}\n")).collect();
            assert_eq!(out.bytes, expected.as_bytes(), "bytes must match line-by-line output");
        }
    }

    #[test]
    fn latency_quantiles_come_from_the_histogram() {
        let metrics = Metrics::new();
        for _ in 0..99 {
            metrics.record_latency(100, 1); // bucket upper bound 128
        }
        metrics.record_latency(1_000_000, 1); // one slow outlier
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.latency_samples, 100);
        assert_eq!(snapshot.p50_micros, 128);
        assert!(snapshot.p99_micros <= 128, "p99 rank 99 still lands in the fast bucket");
    }
}
