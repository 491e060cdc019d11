//! `perfbench`: the end-to-end and per-layer benchmark of `urs-server`.
//!
//! ```text
//! perfbench --server PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it warms the host up on a throwaway server, starts the
//! release `urs-server --tcp` as a separate process (several times, to time
//! set-up), drives one workload over loopback TCP from this single client process
//! for at least `S` seconds, timing every request on the client, checks every
//! answer against an independent in-process reference, and prints the
//! end-to-end metrics.  With `--trace 1` it drives the workload for `S/2`
//! seconds, then replays the same lines in process and times calls into each
//! module's public functions, printing the per-layer metrics.  Either way the
//! last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.

mod check;
mod stats;
mod trace;
mod wire;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use urs_core::engine::json::{self, Value};
use urs_core::engine::Query;

use crate::wire::{Connection, ServerProcess, StatsSnapshot, WireRun};
use crate::workload::Workload;

/// `URS_THREADS` of the benchmarked server: one worker per request, so two
/// connections fill the two cores of the reference machine.
const SERVER_THREADS: usize = 1;

/// Server spawns per end-to-end run; `setup_s` is their median.
const SETUP_SPAWNS: usize = 25;

/// The first query each spawned server answers, on a skeleton no workload uses.
const SETUP_QUERY: &str = "{\"type\":\"solve\",\"config\":{\"servers\":2,\"arrival_rate\":0.5,\
                           \"service_rate\":1.0,\"lifecycle\":{\"breakdown_rate\":0.5,\
                           \"repair_rate\":1.0}}}";

/// Seconds of untimed load on a throwaway server before anything is measured: a
/// host that has been idle runs the first seconds of load measurably slower.
const WARM_UP_SECONDS: f64 = 2.0;

/// Threads of the correctness checker (run after the timed window).
const CHECK_THREADS: usize = 2;

/// Cache levels reported by `stats`, bottom up.
const CACHE_LEVELS: [&str; 4] = ["skeletons", "solutions", "eigensystems", "transforms"];

struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let take = |name: &str| flags.get(name).cloned().ok_or_else(|| format!("missing {name}"));
    let workload = take("--workload")?;
    let seconds: f64 = take("--seconds")?.parse().map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        server: PathBuf::from(take("--server")?),
        workload: Workload::from_name(&workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: take("--seed")?.parse().map_err(|_| "--seed must be a non-negative integer")?,
        seconds,
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

fn main() -> ExitCode {
    let result =
        parse_args().and_then(|args| if args.trace { traced(&args) } else { end_to_end(&args) });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

fn io(context: &'static str) -> impl Fn(std::io::Error) -> String {
    move |e| format!("{context}: {e}")
}

/// A named measurement with its unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// Prints the result line: the last line of standard output.
fn print_result(attempted: usize, failed: usize, metrics: &[Metric]) -> Result<(), String> {
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", bad.name));
    }
    let values = metrics
        .iter()
        .map(|m| {
            let entry = json::object([
                ("value", Value::Number(m.value)),
                ("unit", Value::String(m.unit.to_string())),
            ]);
            (m.name.clone(), entry)
        })
        .collect();
    let line = json::object([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::Number(attempted as f64)),
        ("failed", Value::Number(failed as f64)),
        ("metrics", Value::Object(values)),
    ]);
    println!("{}", line.serialise());
    Ok(())
}

fn print_metric(m: &Metric, note: &str) {
    println!("  {:<34} {:>14.6} {:<6} {note}", m.name, m.value, m.unit);
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs the correctness checker over a wire run; returns (attempted, failed).
fn check_run(run: &WireRun) -> (usize, usize) {
    let mut answers = Vec::new();
    for log in &run.connections {
        let offset = answers.len();
        for exchange in log.iter().flatten() {
            answers.push(check::Answer {
                line: &exchange.line,
                response: exchange.response.as_deref(),
                repeat_of: exchange.repeat_of.map(|p| offset + p),
            });
        }
    }
    let failures = check::check(&answers, CHECK_THREADS);
    for (index, reason) in failures.iter().take(5) {
        let line = answers.get(*index).map_or("", |a| a.line);
        eprintln!("perfbench: request #{index} failed: {reason}\n  line: {line}");
    }
    (answers.len(), failures.len())
}

/// The workload's wire window: drives it against `server`, reading `stats` and
/// the server's CPU time on either side of the window.
fn timed_window(
    server: &ServerProcess,
    args: &Args,
    seconds: f64,
) -> Result<(WireRun, StatsSnapshot, f64), String> {
    let mut control = Connection::open(server.addr()).map_err(io("control connection"))?;
    let before = StatsSnapshot::query(&mut control).map_err(io("stats before the window"))?;
    let cpu_before = server.cpu_seconds().map_err(io("server CPU time"))?;
    let run =
        wire::drive(server.addr(), args.workload, args.seed, seconds).map_err(io("client"))?;
    let cpu = server.cpu_seconds().map_err(io("server CPU time"))? - cpu_before;
    let delta =
        StatsSnapshot::query(&mut control).map_err(io("stats after the window"))?.since(&before);
    Ok((run, delta, cpu))
}

fn print_header(args: &Args, run: &WireRun) {
    println!(
        "perfbench {}: seed {}, {} connection(s), closed loop, URS_THREADS={SERVER_THREADS}, \
         nproc {}, window {:.3} s, {} requests",
        args.workload.name(),
        args.seed,
        args.workload.connections(),
        nproc(),
        run.window.as_secs_f64(),
        run.exchanges().count(),
    );
}

fn print_cache_deltas(delta: &StatsSnapshot) {
    println!("  cache deltas over the window (cache numbers, not solver speed):");
    for level in CACHE_LEVELS {
        let [hits, misses, evictions] = delta.levels.get(level).copied().unwrap_or_default();
        println!(
            "    {level:<13} hits {hits:>7}  misses {misses:>7}  evictions {evictions:>7}  hit share {:.3}",
            delta.hit_share(level)
        );
    }
    println!(
        "    response memo  hits {:>7}  misses {:>7}  hit share {:.3};  mean batch size {:.3}",
        delta.memo_hits,
        delta.memo_misses,
        delta.memo_hit_share(),
        delta.mean_batch_size()
    );
}

/// Drives the workload, with another seed, against a server that is then
/// discarded, so neither its caches nor a cold host shape the measurement.
fn warm_up(args: &Args) -> Result<(), String> {
    let server =
        ServerProcess::spawn(&args.server, SERVER_THREADS).map_err(io("spawning urs-server"))?;
    wire::drive(server.addr(), args.workload, !args.seed, WARM_UP_SECONDS)
        .map_err(io("warm-up"))?;
    Ok(())
}

/// `--trace 0`: the end-to-end metrics.
fn end_to_end(args: &Args) -> Result<(), String> {
    warm_up(args)?;
    let mut setups = Vec::with_capacity(SETUP_SPAWNS);
    let mut server = None;
    for _ in 0..SETUP_SPAWNS {
        drop(server.take());
        let started = Instant::now();
        let spawned = ServerProcess::spawn(&args.server, SERVER_THREADS)
            .map_err(io("spawning urs-server"))?;
        let answer = Connection::open(spawned.addr())
            .and_then(|mut c| c.ask(SETUP_QUERY))
            .map_err(io("first query"))?;
        setups.push(started.elapsed().as_secs_f64());
        if !answer.contains("\"type\":\"solution\"") {
            return Err(format!("unexpected answer to the set-up query: {answer}"));
        }
        server = Some(spawned);
    }
    let server = server.ok_or("no server was started")?;
    let (run, delta, cpu) = timed_window(&server, args, args.seconds)?;
    let peak_rss = server.peak_rss_mb().map_err(io("server memory"))?;
    drop(server);

    let latencies = run.sorted_latencies();
    let answered = latencies.len();
    let (attempted, failed) = check_run(&run);
    let window = run.window.as_secs_f64();
    let ms = |permille| stats::percentile(&latencies, permille) * 1e3;
    let metrics = [
        metric("setup_s", stats::median(&setups), "s"),
        metric("latency_p50_ms", ms(500), "ms"),
        metric("latency_p90_ms", ms(900), "ms"),
        metric("throughput_qps", answered as f64 / window, "1/s"),
        metric("server_cpu_ms_per_query", cpu * 1e3 / answered.max(1) as f64, "ms"),
        metric("peak_rss_mb", peak_rss, "MB"),
    ];

    print_header(args, &run);
    for m in &metrics {
        let note = match m.name.as_str() {
            "setup_s" => format!("median of {SETUP_SPAWNS} spawns, spawn to first answer"),
            name if name.starts_with("latency_") => {
                let permille = if name.contains("p50") { 500 } else { 900 };
                support_note(answered, permille)
            }
            _ => String::new(),
        };
        print_metric(m, &note);
    }
    if stats::supported(answered, 990) {
        print_metric(&metric("latency_p99_ms", ms(990), "ms"), &support_note(answered, 990));
    } else {
        println!(
            "  {:<34} not reported: {} samples leave {} beyond p99 (needs {})",
            "latency_p99_ms",
            answered,
            stats::samples_beyond(answered, 990),
            stats::MIN_BEYOND
        );
    }
    print_metric(
        &metric("error_share", failed as f64 / attempted.max(1) as f64, "ratio"),
        &format!("{failed} failed of {attempted} attempted"),
    );
    print_latency_by_type(&run);
    print_cache_deltas(&delta);
    print_result(attempted, failed, &metrics)
}

/// Client latency p50 and maximum per query type.
fn print_latency_by_type(run: &WireRun) {
    let mut by_type: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for exchange in run.exchanges().filter(|e| e.response.is_some()) {
        let kind = Query::parse_line(&exchange.line).map_or("unparsed", |q| trace::query_type(&q));
        by_type.entry(kind).or_default().push(exchange.latency * 1e3);
    }
    println!("  client latency by query type:");
    for (kind, mut latencies) in by_type {
        latencies.sort_by(f64::total_cmp);
        println!(
            "    {kind:<13} n {:>6}  p50 {:>10.3} ms  max {:>10.3} ms",
            latencies.len(),
            stats::percentile(&latencies, 500),
            latencies.last().copied().unwrap_or(f64::NAN)
        );
    }
}

fn support_note(samples: usize, permille: usize) -> String {
    let beyond = stats::samples_beyond(samples, permille);
    if stats::supported(samples, permille) {
        format!("{samples} samples, {beyond} beyond")
    } else {
        format!("UNSUPPORTED: only {beyond} of {samples} samples beyond")
    }
}

/// The groups of a wire run as one replay sequence: connections interleaved group
/// by group, as the server saw them arrive.
fn interleave(run: &WireRun) -> Vec<&Vec<wire::Exchange>> {
    let longest = run.connections.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest).flat_map(|i| run.connections.iter().filter_map(move |log| log.get(i))).collect()
}

/// `--trace 1`: the per-layer metrics.
fn traced(args: &Args) -> Result<(), String> {
    warm_up(args)?;
    let server =
        ServerProcess::spawn(&args.server, SERVER_THREADS).map_err(io("spawning urs-server"))?;
    let (run, delta, _) = timed_window(&server, args, args.seconds / 2.0)?;
    drop(server);
    let (attempted, failed) = check_run(&run);
    let sequence = interleave(&run);
    let groups: Vec<Vec<String>> =
        sequence.iter().map(|group| group.iter().map(|e| e.line.clone()).collect()).collect();
    let replay = trace::replay(&groups, Duration::from_secs_f64(args.seconds / 4.0));
    let pieces = trace::pieces(&groups[..replay.groups]);
    let respond_p50_ms = stats::percentile(&replay.sorted_line_times, 500) * 1e3;
    // The wire p50 over the same requests the replay answered.
    let mut latencies: Vec<f64> =
        sequence[..replay.groups].iter().flat_map(|g| g.iter().map(|e| e.latency)).collect();
    latencies.sort_by(f64::total_cmp);
    let wire_p50_ms = stats::percentile(&latencies, 500) * 1e3;
    let per = |total: f64, count: usize| total / count.max(1) as f64;
    let execute_ms = |kind: &str| pieces.execute.get(kind).map(|&(n, s)| per(s, n) * 1e3);
    let coverage = pieces.attributed() / replay.total;

    let mut metrics = vec![
        metric("server.wire_overhead_ms", wire_p50_ms - respond_p50_ms, "ms"),
        metric("server.respond_p50_ms", respond_p50_ms, "ms"),
        metric("server.respond_us_per_query", per(replay.total, replay.lines) * 1e6, "us"),
        metric("server.mean_batch_size", delta.mean_batch_size(), "count"),
        metric("server.memo_hit_share", delta.memo_hit_share(), "ratio"),
        metric("engine.parse_us", per(pieces.parse, pieces.lines) * 1e6, "us"),
        metric("engine.key_us", per(pieces.key, pieces.lines) * 1e6, "us"),
        metric("engine.plan_us", per(pieces.plan, pieces.batches) * 1e6, "us"),
        metric("engine.render_us", per(pieces.render, pieces.rendered) * 1e6, "us"),
        metric("engine.execute_ms.solve", execute_ms("solve").unwrap_or(f64::NAN), "ms"),
        metric(
            "engine.execute_ms.provisioning",
            execute_ms("provisioning").unwrap_or(f64::NAN),
            "ms",
        ),
        metric("engine.coverage", coverage, "ratio"),
        metric("engine.unattributed_share", 1.0 - coverage, "ratio"),
    ];
    for level in CACHE_LEVELS {
        metrics.push(metric(format!("cache.{level}.hit_share"), delta.hit_share(level), "ratio"));
        metrics.push(metric(format!("cache.{level}.evictions"), delta.evictions(level), "count"));
    }
    let sizes = args.workload.fleet_sizes();
    let largest = sizes.last().copied().unwrap_or(1);
    let mut rows = trace::solver_stages(&sizes, largest)?;
    rows.extend(trace::response_stage(args.workload.response_fleet())?);
    rows.extend(trace::mix_stage()?);

    print_header(args, &run);
    println!(
        "  wire latency p50 {wire_p50_ms:.3} ms and in-process replay over the first {} lines \
         in {} batches ({:.3} s inside respond_batch)",
        replay.lines, replay.groups, replay.total
    );
    for m in &metrics {
        print_metric(m, "");
    }
    for (kind, &(n, seconds)) in &pieces.execute {
        if kind != &"solve" && kind != &"provisioning" {
            print_metric(
                &metric(format!("engine.execute_ms.{kind}"), per(seconds, n) * 1e3, "ms"),
                "",
            );
        }
    }
    println!(
        "  (memo hits in the replay: {}; error share of the wire part {}/{attempted})",
        pieces.memo_hits, failed
    );
    print_cache_deltas(&delta);
    println!(
        "  solver stages on the paper lifecycle at utilisation 0.7, N = {largest} (response \
         rows at N = {}; mix rows: the large-fleet mix search; \".pooled\" rows: {} threads, \
         others: 1 thread):",
        args.workload.response_fleet(),
        trace::POOLED_THREADS
    );
    for row in &rows {
        if row.reported {
            metrics.push(metric(row.name.clone(), row.value, row.unit));
        }
        print_metric(&metric(row.name.clone(), row.value, row.unit), row.note);
    }
    print_result(attempted, failed, &metrics)
}
