//! `urs-server` as a separate process, driven over TCP.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use urs_core::engine::json::Value;

use crate::workload::Workload;

/// How long a client waits for one response before counting it missing.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// Linux reports `/proc/<pid>/stat` CPU times in units of `USER_HZ`, which the
/// kernel ABI fixes at 100 per second.
const USER_HZ: f64 = 100.0;

/// A running `urs-server --tcp`, killed and reaped on drop.
#[derive(Debug)]
pub struct ServerProcess {
    child: Child,
    addr: String,
}

impl ServerProcess {
    /// Starts the server on an ephemeral loopback port with `URS_THREADS=threads`
    /// and waits until it reports the address it listens on.
    pub fn spawn(binary: &Path, threads: usize) -> io::Result<ServerProcess> {
        let mut child = Command::new(binary)
            .args(["--tcp", "127.0.0.1:0"])
            .env("URS_THREADS", threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut banner = String::new();
        if let Some(stdout) = child.stdout.take() {
            BufReader::new(stdout).read_line(&mut banner)?;
        }
        let addr = banner.trim().strip_prefix("listening on ").map(str::to_string);
        let mut server = ServerProcess { child, addr: String::new() };
        match addr {
            Some(addr) => {
                server.addr = addr;
                Ok(server)
            }
            None => Err(io::Error::other(format!("urs-server did not start: {banner:?}"))),
        }
    }

    /// The address the server listens on.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn proc_file(&self, name: &str) -> io::Result<String> {
        std::fs::read_to_string(format!("/proc/{}/{name}", self.child.id()))
    }

    /// User plus system CPU seconds the server process has used so far.
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        let stat = self.proc_file("stat")?;
        // Fields after the parenthesised command name; utime and stime are the
        // 14th and 15th fields of the whole line.
        let rest = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or_default();
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
        match (ticks(11), ticks(12)) {
            (Some(utime), Some(stime)) => Ok((utime + stime) / USER_HZ),
            _ => Err(io::Error::other("unparseable /proc stat line")),
        }
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = self.proc_file("status")?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|value| value.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection speaking the line protocol.
#[derive(Debug)]
pub struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Connection {
    /// Connects with Nagle's algorithm off on the client side, so the client never
    /// holds back its own lines.
    pub fn open(addr: &str) -> io::Result<Connection> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Connection { writer, reader })
    }

    /// Writes `lines` with one system call.
    pub fn send<'a>(&mut self, lines: impl IntoIterator<Item = &'a str>) -> io::Result<()> {
        let mut buffer = String::new();
        for line in lines {
            buffer.push_str(line);
            buffer.push('\n');
        }
        self.writer.write_all(buffer.as_bytes())
    }

    /// The next response line, without its newline.
    pub fn receive(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        line.truncate(line.trim_end_matches(['\r', '\n']).len());
        Ok(line)
    }

    /// Sends one line and waits for its answer.
    pub fn ask(&mut self, line: &str) -> io::Result<String> {
        self.send([line])?;
        self.receive()
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// The protocol line sent.
    pub line: String,
    /// Position of the request this one repeats verbatim, in the same connection.
    pub repeat_of: Option<usize>,
    /// The response line, or `None` if it never arrived.
    pub response: Option<String>,
    /// Seconds from writing the line to reading its response.
    pub latency: f64,
}

/// Everything one connection sent, grouped as sent.
pub type ConnectionLog = Vec<Vec<Exchange>>;

/// The outcome of a timed closed-loop window.
#[derive(Debug)]
pub struct WireRun {
    /// Per connection, the groups in the order they were sent.
    pub connections: Vec<ConnectionLog>,
    /// From the first line sent to the last response received.
    pub window: Duration,
}

impl WireRun {
    /// Every exchange, connection by connection.
    pub fn exchanges(&self) -> impl Iterator<Item = &Exchange> {
        self.connections.iter().flatten().flatten()
    }

    /// Latencies of the answered requests, ascending, in seconds.
    pub fn sorted_latencies(&self) -> Vec<f64> {
        let mut latencies: Vec<f64> =
            self.exchanges().filter(|e| e.response.is_some()).map(|e| e.latency).collect();
        latencies.sort_by(f64::total_cmp);
        latencies
    }
}

/// Drives `workload` against the server at `addr` for at least `seconds`: each
/// connection sends whole rounds until the deadline has passed, so the query mix
/// of a run never depends on where the deadline fell.
pub fn drive(addr: &str, workload: Workload, seed: u64, seconds: f64) -> io::Result<WireRun> {
    let deadline = Duration::from_secs_f64(seconds);
    let mut clients = Vec::with_capacity(workload.connections());
    for _ in 0..workload.connections() {
        clients.push(Connection::open(addr)?);
    }
    let started = Instant::now();
    let connections: Vec<ConnectionLog> = thread::scope(|scope| {
        let workers: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(connection, client)| {
                let stream = workload.stream(seed, connection);
                scope.spawn(move || run_connection(client, stream, started, deadline))
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client threads do not panic")).collect()
    });
    Ok(WireRun { connections, window: started.elapsed() })
}

fn run_connection(
    mut client: Connection,
    mut stream: crate::workload::Stream,
    started: Instant,
    deadline: Duration,
) -> ConnectionLog {
    let mut log = Vec::new();
    let mut broken = false;
    while started.elapsed() < deadline {
        for group in stream.next_round() {
            let sent = Instant::now();
            if !broken {
                broken = client.send(group.iter().map(|r| r.line.as_str())).is_err();
            }
            let exchanges = group
                .into_iter()
                .map(|request| {
                    let response = if broken { None } else { client.receive().ok() };
                    broken |= response.is_none();
                    Exchange {
                        line: request.line,
                        repeat_of: request.repeat_of,
                        response,
                        latency: sent.elapsed().as_secs_f64(),
                    }
                })
                .collect();
            log.push(exchanges);
        }
        if broken {
            break;
        }
    }
    log
}

/// Counters from one `stats` response: per cache level `(hits, misses, evictions)`,
/// and the server's request, batch and memo counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Per cache level name: hits, misses, evictions.
    pub levels: BTreeMap<String, [f64; 3]>,
    /// Requests answered (including `stats` queries already answered).
    pub requests: f64,
    /// Batches executed.
    pub batches: f64,
    /// Response-memo hits.
    pub memo_hits: f64,
    /// Response-memo misses.
    pub memo_misses: f64,
}

impl StatsSnapshot {
    /// Asks the server for its counters on a control connection.
    pub fn query(control: &mut Connection) -> io::Result<StatsSnapshot> {
        let response = control.ask("{\"type\":\"stats\"}")?;
        StatsSnapshot::parse(&response)
            .ok_or_else(|| io::Error::other(format!("malformed stats response: {response}")))
    }

    fn parse(response: &str) -> Option<StatsSnapshot> {
        let value = Value::parse(response).ok()?;
        let number = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64);
        let mut levels = BTreeMap::new();
        for level in value.get("levels")?.as_array()? {
            let name = level.get("level")?.as_str()?.to_string();
            let counts =
                [number(level, "hits")?, number(level, "misses")?, number(level, "evictions")?];
            levels.insert(name, counts);
        }
        let server = value.get("server")?;
        let memo = server.get("response_memo")?;
        Some(StatsSnapshot {
            levels,
            requests: number(server, "requests")?,
            batches: number(server, "batches")?,
            memo_hits: number(memo, "hits")?,
            memo_misses: number(memo, "misses")?,
        })
    }

    /// The change from `before` to `self`, less the `stats` query that took
    /// `before` (answered, and counted, after its own snapshot was rendered).
    pub fn since(&self, before: &StatsSnapshot) -> StatsSnapshot {
        let levels = self
            .levels
            .iter()
            .map(|(name, now)| {
                let then = before.levels.get(name).copied().unwrap_or_default();
                (name.clone(), [now[0] - then[0], now[1] - then[1], now[2] - then[2]])
            })
            .collect();
        StatsSnapshot {
            levels,
            requests: self.requests - before.requests - 1.0,
            batches: self.batches - before.batches - 1.0,
            memo_hits: self.memo_hits - before.memo_hits,
            memo_misses: self.memo_misses - before.memo_misses,
        }
    }

    /// Hits over lookups at one cache level (0 when the level saw no lookups).
    pub fn hit_share(&self, level: &str) -> f64 {
        let [hits, misses, _] = self.levels.get(level).copied().unwrap_or_default();
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    }

    /// Evictions at one cache level.
    pub fn evictions(&self, level: &str) -> f64 {
        self.levels.get(level).map_or(0.0, |counts| counts[2])
    }

    /// Memo hits over memo lookups (0 when there were none).
    pub fn memo_hit_share(&self) -> f64 {
        let lookups = self.memo_hits + self.memo_misses;
        if lookups > 0.0 {
            self.memo_hits / lookups
        } else {
            0.0
        }
    }

    /// Requests per batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches > 0.0 {
            self.requests / self.batches
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urs_server::Server;

    #[test]
    fn stats_deltas_exclude_the_stats_query_itself() {
        let server = Server::new();
        let parse = |s: &Server| StatsSnapshot::parse(&s.respond_line("{\"type\":\"stats\"}"));
        let before = parse(&server).expect("stats parse");
        let solve = "{\"type\":\"solve\",\"config\":{\"servers\":3,\"arrival_rate\":1.5,\
                     \"service_rate\":1.0,\"lifecycle\":\"paper\"}}";
        server.respond_batch(&[solve.to_string(), solve.to_string()]);
        let delta = parse(&server).expect("stats parse").since(&before);
        assert_eq!(delta.requests, 2.0);
        assert_eq!(delta.batches, 1.0);
        assert_eq!(delta.memo_misses + delta.memo_hits, 2.0);
        assert_eq!(delta.mean_batch_size(), 2.0);
        assert!(delta.levels.contains_key("skeletons"));
    }
}
