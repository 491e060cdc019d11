//! End-to-end contracts of the `urs-server` binary:
//!
//! * **Restart determinism** — replaying one trace of ≥1,000 mixed queries against
//!   a fresh process produces a byte-identical response log, for 1 and 4 worker
//!   threads alike (cache state, batching boundaries and thread count must never
//!   leak into answers).
//! * **Malformed-input robustness** — a fuzz pile of broken lines gets one error
//!   response each, the process never panics, and queries after garbage still
//!   answer correctly; so does a line far over the length cap.
//! * **SLA loads answer** — a P99 at utilisation 0.9 comes back as a number, the
//!   same bytes at 1 and 4 workers.
//! * **No delayed-ACK stall** — sequential one-line round trips over TCP answer in
//!   compute time, not in multiples of the client's delayed-ACK timer.
//! * **Results live for one batch** — a batch's queries share their solutions and
//!   absorption chains, and the next batch builds them again.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use urs_core::engine::json::Value;
use urs_core::{Engine, SolverCache, ThreadPool};
use urs_server::Server;

fn spawn_server(threads: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_urs-server"))
        .env("URS_THREADS", threads)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("failed to spawn urs-server")
}

/// Feeds `input` to a fresh server process and returns its stdout.  The writer
/// runs on its own thread so a full stdout pipe can never deadlock the test.
fn run_server(threads: &str, input: String) -> String {
    let mut child = spawn_server(threads);
    let mut stdin = child.stdin.take().expect("stdin piped");
    let writer = std::thread::spawn(move || {
        let _ = stdin.write_all(input.as_bytes());
        // dropping stdin closes the pipe → server drains and exits
    });
    let output = child.wait_with_output().expect("server did not exit");
    writer.join().expect("writer thread panicked");
    assert!(output.status.success(), "server exited with {:?}", output.status);
    String::from_utf8(output.stdout).expect("responses must be UTF-8")
}

fn lifecycle(index: usize) -> String {
    match index % 3 {
        0 => "\"paper\"".to_string(),
        1 => {
            let xi = 0.05 + 0.05 * (index % 4) as f64;
            format!("{{\"breakdown_rate\":{xi},\"repair_rate\":2.0}}")
        }
        _ => "{\"operative_mean\":34.62,\"operative_scv\":4.6,\"repair_rate\":0.2}".to_string(),
    }
}

fn config(servers: usize, lambda: f64, lifecycle_index: usize) -> String {
    format!(
        "{{\"servers\":{servers},\"arrival_rate\":{lambda},\"service_rate\":1.0,\
         \"lifecycle\":{}}}",
        lifecycle(lifecycle_index)
    )
}

/// A deterministic trace of `n` mixed queries over a handful of skeletons, so the
/// shared cache gets both hits and misses.  No `stats` queries: those are the
/// documented exception to byte-identical replay.
fn trace(n: usize) -> String {
    let mut lines = Vec::with_capacity(n);
    for i in 0..n {
        let servers = 3 + i % 3;
        let lambda = 0.4 + 0.3 * ((i / 3) % 5) as f64;
        let line = match i % 17 {
            13 => format!(
                "{{\"type\":\"cost_sweep\",\"config\":{},\"holding_cost\":4.0,\
                 \"server_cost\":1.0,\"min_servers\":3,\"max_servers\":5}}",
                config(4, 1.2, i)
            ),
            14 => format!(
                "{{\"type\":\"provisioning\",\"config\":{},\"min_servers\":3,\
                 \"max_servers\":5}}",
                config(4, 1.2, i)
            ),
            15 => format!(
                "{{\"type\":\"percentiles\",\"config\":{},\"fractions\":[0.5,0.95]}}",
                config(3, 0.8, i)
            ),
            16 => format!(
                "{{\"type\":\"sla_sweep\",\"config\":{},\"server_counts\":[3,4],\
                 \"fractions\":[0.9]}}",
                config(3, 0.8, i)
            ),
            _ => format!("{{\"type\":\"solve\",\"config\":{}}}", config(servers, lambda, i)),
        };
        lines.push(line);
    }
    lines.join("\n") + "\n"
}

#[test]
fn replaying_a_trace_is_byte_identical_across_restarts_and_thread_counts() {
    let input = trace(1000);
    let reference = run_server("1", input.clone());
    assert_eq!(reference.lines().count(), 1000, "one response line per query");
    assert!(
        reference.lines().all(|l| !l.starts_with("{\"error\"")),
        "the trace contains only valid queries"
    );
    // Fresh process, same thread count: the response log must not depend on
    // process history (cache warm-up order, batch boundaries).
    let restarted = run_server("1", input.clone());
    assert_eq!(reference, restarted, "restart changed the response log");
    // Fresh process, four workers: parallel fan-out must not change a byte.
    let parallel = run_server("4", input);
    assert_eq!(reference, parallel, "URS_THREADS=4 changed the response log");
}

#[test]
fn percentiles_at_utilisation_nine_tenths_are_answered_identically_at_any_thread_count() {
    // Three paper-lifecycle servers at ρ = 0.9: this line used to get an error.
    let line = "{\"type\":\"percentiles\",\"config\":{\"servers\":3,\
                \"arrival_rate\":2.6968840990503935,\"service_rate\":1.0,\
                \"lifecycle\":\"paper\"},\"fractions\":[0.9,0.99]}\n";
    let serial = run_server("1", line.repeat(2));
    let (first, repeat) = serial.split_once('\n').expect("two responses");
    assert_eq!(format!("{first}\n"), repeat, "a replay changed the answer");
    let percentiles = first
        .split_once("\"percentiles\":[")
        .and_then(|(_, rest)| rest.split_once(']'))
        .map(|(values, _)| values.split(',').map(|v| v.parse::<f64>().unwrap()).collect::<Vec<_>>())
        .unwrap_or_else(|| panic!("no percentiles in {first}"));
    assert_eq!(percentiles.len(), 2, "{first}");
    assert!((percentiles[1] - 15.8852).abs() < 1e-4, "P99 = {}", percentiles[1]);
    assert_eq!(serial, run_server("4", line.repeat(2)), "URS_THREADS=4 changed the answer");
}

#[test]
fn malformed_input_fuzz_never_panics_and_always_answers() {
    let mut lines: Vec<String> = vec![
        String::new(),
        " ".to_string(),
        "null".to_string(),
        "true".to_string(),
        "[]".to_string(),
        "{}".to_string(),
        "}{".to_string(),
        "{\"type\":}".to_string(),
        "{\"type\":\"solve\"".to_string(),
        "{\"type\":\"solve\",\"config\":{}}".to_string(),
        "{\"type\":\"solve\",\"config\":[]}".to_string(),
        "{\"type\":\"solve\",\"config\":{\"servers\":-3,\"arrival_rate\":1.0,\
         \"service_rate\":1.0,\"lifecycle\":\"paper\"}}"
            .to_string(),
        "{\"type\":\"solve\",\"config\":{\"servers\":1e9,\"arrival_rate\":1.0,\
         \"service_rate\":1.0,\"lifecycle\":\"paper\"}}"
            .to_string(),
        "{\"type\":\"solve\",\"config\":{\"servers\":2,\"arrival_rate\":1e999,\
         \"service_rate\":1.0,\"lifecycle\":\"paper\"}}"
            .to_string(),
        "{\"type\":\"percentiles\",\"config\":{\"servers\":2,\"arrival_rate\":0.5,\
         \"service_rate\":1.0,\"lifecycle\":\"paper\"},\"fractions\":[2.0]}"
            .to_string(),
        "\u{0}\u{1}\u{2}".to_string(),
        "\"unterminated".to_string(),
        "{\"a\":\"\\udc00\"}".to_string(),
        format!("{}{}", "[".repeat(2000), "]".repeat(2000)),
        "9".repeat(5000),
        format!("{{\"type\":\"solve\",\"padding\":\"{}\"}}", "x".repeat(100_000)),
        // A 10 MB line, ten times the server's line cap.
        "x".repeat(10_000_000),
    ];
    // Interleave a known-good query so we can check the server stays healthy
    // after every piece of garbage.
    let good = "{\"type\":\"solve\",\"config\":{\"servers\":3,\"arrival_rate\":1.0,\
                \"service_rate\":1.0,\"lifecycle\":\"paper\"}}";
    let garbage_count = lines.len();
    let mut interleaved = Vec::new();
    for line in lines.drain(..) {
        interleaved.push(line);
        interleaved.push(good.to_string());
    }
    let input = interleaved.join("\n") + "\n";
    let output = run_server("2", input);
    let responses: Vec<&str> = output.lines().collect();
    assert_eq!(responses.len(), garbage_count * 2, "one response per line, even for garbage");
    let mut good_response = None;
    for pair in responses.chunks(2) {
        let [garbage, good] = pair else { panic!("odd response count") };
        assert!(garbage.starts_with("{\"error\""), "garbage got a non-error reply: {garbage}");
        assert!(good.contains("\"type\":\"solution\""), "good query failed after garbage: {good}");
        let expected = good_response.get_or_insert(good.to_string()).clone();
        assert_eq!(*good, expected, "the good query's answer drifted");
    }
    assert!(responses[responses.len() - 2].contains("byte limit"), "the cap did not answer");
}

#[test]
fn stats_queries_report_cache_and_latency_metrics() {
    let mut input = trace(34);
    input.push_str("{\"type\":\"stats\"}\n");
    let output = run_server("1", input);
    let last = output.lines().last().expect("stats response missing");
    assert!(last.contains("\"type\":\"stats\""), "unexpected stats line: {last}");
    assert!(last.contains("\"total_hit_rate\""));
    assert!(last.contains("\"server\":{"));
    assert!(last.contains("\"p99_micros\""));
}

/// Starts `urs-server --tcp` on an ephemeral port and returns it with its address.
fn spawn_tcp_server() -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_urs-server"))
        .args(["--tcp", "127.0.0.1:0"])
        .env("URS_THREADS", "1")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("failed to spawn urs-server --tcp");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut banner = String::new();
    BufReader::new(stdout).read_line(&mut banner).expect("read listen banner");
    let addr = banner.trim().strip_prefix("listening on ").expect("listen banner").to_string();
    (child, addr)
}

#[test]
fn tcp_mode_answers_over_a_socket() {
    let (mut child, addr) = spawn_tcp_server();
    let mut stream = TcpStream::connect(&addr).expect("connect to urs-server");
    let good = "{\"type\":\"solve\",\"config\":{\"servers\":3,\"arrival_rate\":1.0,\
                \"service_rate\":1.0,\"lifecycle\":\"paper\"}}\n";
    stream.write_all(good.as_bytes()).expect("send query");
    stream.write_all(b"garbage\n").expect("send garbage");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut first = String::new();
    reader.read_line(&mut first).expect("read solution");
    assert!(first.contains("\"type\":\"solution\""), "unexpected reply: {first}");
    let mut second = String::new();
    reader.read_line(&mut second).expect("read error reply");
    assert!(second.starts_with("{\"error\""), "unexpected reply: {second}");

    child.kill().expect("stop server");
    let _ = child.wait();
}

#[test]
fn sequential_tcp_round_trips_do_not_wait_on_delayed_acks() {
    // One query in flight at a time, the client's Nagle left on: a server that
    // split a response across two writes would stall each reply on the client's
    // delayed ACK (~40 ms), i.e. 40 round trips would take well over 1.6 s.
    let (mut child, addr) = spawn_tcp_server();
    let mut stream = TcpStream::connect(&addr).expect("connect to urs-server");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let started = Instant::now();
    for i in 0..40 {
        let lambda = 0.5 + 0.01 * i as f64;
        let query = format!("{{\"type\":\"solve\",\"config\":{}}}\n", config(3, lambda, 0));
        stream.write_all(query.as_bytes()).expect("send query");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        assert!(reply.contains("\"type\":\"solution\""), "unexpected reply: {reply}");
    }
    let elapsed = started.elapsed();
    child.kill().expect("stop server");
    let _ = child.wait();
    assert!(elapsed < Duration::from_millis(400), "40 round trips took {elapsed:?}");
}

/// A planning session on one fleet: a solve, cost and provisioning sweeps over
/// N − 1..N + 1, percentiles and an SLA sweep over [N, N + 1], with the cost model
/// and the fractions as given.
fn session(holding_cost: f64, fraction: f64) -> Vec<String> {
    let fleet = config(5, 3.0, 0);
    vec![
        format!("{{\"type\":\"solve\",\"config\":{fleet}}}"),
        format!(
            "{{\"type\":\"cost_sweep\",\"config\":{fleet},\"holding_cost\":{holding_cost},\
             \"server_cost\":1.0,\"min_servers\":4,\"max_servers\":6}}"
        ),
        format!(
            "{{\"type\":\"provisioning\",\"config\":{fleet},\"min_servers\":4,\
             \"max_servers\":6}}"
        ),
        format!("{{\"type\":\"percentiles\",\"config\":{fleet},\"fractions\":[{fraction}]}}"),
        format!(
            "{{\"type\":\"sla_sweep\",\"config\":{fleet},\"server_counts\":[5,6],\
             \"fractions\":[{fraction}]}}"
        ),
    ]
}

/// The `(solutions, transforms)` misses a `stats` query reports.
fn result_misses(server: &Server) -> (f64, f64) {
    let stats = Value::parse(&server.respond_line("{\"type\":\"stats\"}")).expect("stats JSON");
    let levels = stats.get("levels").and_then(Value::as_array).expect("levels");
    let misses = |name: &str| {
        levels
            .iter()
            .find(|level| level.get("level").and_then(Value::as_str) == Some(name))
            .and_then(|level| level.get("misses"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("no {name} row in {stats:?}"))
    };
    (misses("solutions"), misses("transforms"))
}

#[test]
fn a_batch_shares_its_results_and_the_next_batch_builds_them_again() {
    let server =
        Server::with_engine(Engine::with_parts(SolverCache::shared(), ThreadPool::serial()));
    // Three solutions (N − 1, N, N + 1) and two chains (N, N + 1) between five queries.
    let first = server.respond_batch(&session(4.0, 0.9));
    assert!(first.iter().all(|response| !response.starts_with("{\"error\"")), "{first:?}");
    assert_eq!(result_misses(&server), (3.0, 2.0));
    // Other cost coefficients and fractions are new questions for the memo on the
    // same solutions and chains: nothing outlived the first batch, so they are all
    // built again, with the bytes a fresh server answers.
    let second = server.respond_batch(&session(2.0, 0.95));
    assert_eq!(result_misses(&server), (6.0, 4.0));
    assert_eq!(second, Server::new().respond_batch(&session(2.0, 0.95)));
    // An exact repeat is the memo's, byte for byte.
    assert_eq!(server.respond_batch(&session(4.0, 0.9)), first);
    assert_eq!(result_misses(&server), (6.0, 4.0));
}
