//! Serving throughput: the query engine answering a mixed trace cold and warm.
//!
//! Replays a deterministic trace of mixed protocol queries (solves over a handful
//! of QBD skeletons, cost/provisioning sweeps, percentiles) through one
//! [`urs_server::Server`] twice:
//!
//! * **cold** — a fresh server, every skeleton/solution/transform computed;
//! * **warm** — the same server again, so the response memo answers every query
//!   from the bytes of its cold response.
//!
//! Reports queries/sec for both passes, per-query latency quantiles, and the
//! skeleton-cache and memo hit rates after the warm pass, and writes the
//! machine-readable summary to `BENCH_serving.json` (uploaded as a CI artifact;
//! regressions diff on it).  The warm/cold ratio is a cache number: a standing
//! process replaying answers it has already rendered, versus computing them.
//!
//! Usage: `serving_throughput [queries]`.  `URS_SMOKE=1` shrinks the trace for CI.

use std::time::Instant;

use urs_bench::smoke;
use urs_core::engine::json::{self, Value};
use urs_server::Server;

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

/// The same deterministic shape as the server's replay suite — mixed query types
/// over a few skeleton families — but with the arrival rate swept continuously
/// across the trace so every query is distinct.  The cold pass therefore computes
/// every solution; the response memo answers the warm replay.
fn trace(n: usize) -> Vec<String> {
    let mut lines = Vec::with_capacity(n);
    for i in 0..n {
        let servers = 3 + i % 3;
        let lambda = 0.4 + 1.2 * i as f64 / n.max(1) as f64;
        let line = match i % 17 {
            13 => format!(
                "{{\"type\":\"cost_sweep\",\"config\":{},\"holding_cost\":4.0,\
                 \"server_cost\":1.0,\"min_servers\":3,\"max_servers\":5}}",
                config(4, lambda, i)
            ),
            14 => format!(
                "{{\"type\":\"provisioning\",\"config\":{},\"min_servers\":3,\
                 \"max_servers\":5}}",
                config(4, lambda, i)
            ),
            15 => format!(
                "{{\"type\":\"percentiles\",\"config\":{},\"fractions\":[0.5,0.95]}}",
                config(3, lambda.min(1.0), i)
            ),
            16 => format!(
                "{{\"type\":\"sla_sweep\",\"config\":{},\"server_counts\":[3,4],\
                 \"fractions\":[0.9]}}",
                config(3, lambda.min(1.0), i)
            ),
            _ => format!("{{\"type\":\"solve\",\"config\":{}}}", config(servers, lambda, i)),
        };
        lines.push(line);
    }
    lines
}

/// One pass over the trace in batches, timing each batch; returns (seconds,
/// per-query latency microseconds, responses) and feeds the server's histogram.
fn run_pass(server: &Server, lines: &[String], batch_size: usize) -> (f64, Vec<u64>, Vec<String>) {
    let mut latencies = Vec::with_capacity(lines.len());
    let mut responses = Vec::with_capacity(lines.len());
    let started = Instant::now();
    for batch in lines.chunks(batch_size) {
        let batch_started = Instant::now();
        let mut answered = server.respond_batch(batch);
        let micros = batch_started.elapsed().as_micros() as u64 / batch.len().max(1) as u64;
        server.metrics().record_latency(micros, batch.len() as u64);
        for _ in 0..batch.len() {
            latencies.push(micros);
        }
        responses.append(&mut answered);
    }
    (started.elapsed().as_secs_f64(), latencies, responses)
}

fn quantile(sorted: &[u64], fraction: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * fraction).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let queries = std::env::args()
        .nth(1)
        .map(|arg| arg.parse::<usize>())
        .transpose()?
        .unwrap_or(if smoke() { 300 } else { 2000 });
    let batch_size = urs_server::MAX_BATCH;
    let lines = trace(queries);

    println!("Serving throughput: {queries} mixed queries per pass, batches of {batch_size}.");

    let server = Server::new();
    let (cold_seconds, cold_latencies, cold_responses) = run_pass(&server, &lines, batch_size);
    let (warm_seconds, warm_latencies, warm_responses) = run_pass(&server, &lines, batch_size);
    if cold_responses != warm_responses {
        return Err("warm pass changed a response — the cache broke determinism".into());
    }
    if cold_responses.iter().any(|r| r.starts_with("{\"error\"")) {
        return Err("the benchmark trace contains a failing query".into());
    }

    let cold_qps = queries as f64 / cold_seconds;
    let warm_qps = queries as f64 / warm_seconds;
    let speedup = warm_qps / cold_qps;
    let hit_rate = server.engine().cache().stats().hit_rate();
    let memo_hit_rate = server.memo_stats().hit_rate();

    let mut sorted_cold = cold_latencies;
    sorted_cold.sort_unstable();
    let mut sorted_warm = warm_latencies;
    sorted_warm.sort_unstable();
    let summary = [
        ("cold", cold_seconds, cold_qps, &sorted_cold),
        ("warm", warm_seconds, warm_qps, &sorted_warm),
    ];
    println!(
        "\n{:>6}  {:>9}  {:>12}  {:>11}  {:>11}",
        "pass", "seconds", "queries/sec", "p50", "p99"
    );
    for (name, seconds, qps, sorted) in &summary {
        println!(
            "{name:>6}  {seconds:>8.3}s  {qps:>12.0}  {:>9}us  {:>9}us",
            quantile(sorted, 0.50),
            quantile(sorted, 0.99),
        );
    }
    println!(
        "\nWarm over cold: {speedup:.1}x queries/sec; skeleton cache hit rate {:.1}%, \
         response memo hit rate {:.1}%.",
        hit_rate * 100.0,
        memo_hit_rate * 100.0,
    );
    println!("Every warm response was byte-identical to its cold twin.");

    let micros = |sorted: &[u64], fraction| Value::Number(quantile(sorted, fraction) as f64);
    let artifact = json::object([
        ("queries_per_pass", Value::Number(queries as f64)),
        ("batch_size", Value::Number(batch_size as f64)),
        ("cold_seconds", Value::Number(cold_seconds)),
        ("warm_seconds", Value::Number(warm_seconds)),
        ("cold_queries_per_sec", Value::Number(cold_qps)),
        ("warm_queries_per_sec", Value::Number(warm_qps)),
        ("warm_speedup", Value::Number(speedup)),
        ("cache_hit_rate", Value::Number(hit_rate)),
        ("response_memo_hit_rate", Value::Number(memo_hit_rate)),
        ("cold_p50_micros", micros(&sorted_cold, 0.50)),
        ("cold_p99_micros", micros(&sorted_cold, 0.99)),
        ("warm_p50_micros", micros(&sorted_warm, 0.50)),
        ("warm_p99_micros", micros(&sorted_warm, 0.99)),
    ]);
    std::fs::write("BENCH_serving.json", artifact.serialise() + "\n")?;
    println!("Wrote machine-readable results to BENCH_serving.json.");

    if speedup < 2.0 {
        return Err(format!(
            "warm pass only {speedup:.2}x cold — the response memo should at least halve \
             the serving cost of a repeated trace"
        )
        .into());
    }
    Ok(())
}
