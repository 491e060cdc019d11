//! Pins the engine's concurrency contract: many threads hammering one shared
//! [`Engine`] (one skeleton cache, one pool) observe results bit-identical to a
//! serial engine answering the same queries one at a time — cache races may change
//! *who* computes an entry, never *what* it contains.

use std::sync::Arc;

use urs_core::engine::{json, Query, QueryResult};
use urs_core::{CostModel, Engine, ServerLifecycle, SolverCache, SystemConfig, ThreadPool};

fn paper_config(servers: usize, lambda: f64) -> SystemConfig {
    SystemConfig::new(servers, lambda, 1.0, ServerLifecycle::paper_fitted().unwrap()).unwrap()
}

/// A mixed workload touching every cache level: plain solves at several arrival
/// rates over few skeletons, sweeps sharing their solutions within a plan, and
/// percentile queries.
fn workload() -> Vec<Query> {
    let mut queries = Vec::new();
    for servers in [4usize, 5, 6] {
        for step in 0..4 {
            let lambda = 0.5 + 0.4 * step as f64;
            queries.push(Query::Solve { config: paper_config(servers, lambda) });
        }
    }
    queries.push(Query::CostSweep {
        config: paper_config(5, 2.0),
        cost: CostModel::new(4.0, 1.0).unwrap(),
        min_servers: 4,
        max_servers: 7,
    });
    queries.push(Query::Provisioning {
        config: paper_config(5, 2.0),
        min_servers: 4,
        max_servers: 7,
    });
    queries
        .push(Query::Percentiles { config: paper_config(4, 1.5), fractions: vec![0.5, 0.9, 0.99] });
    queries
}

fn serial_answers(queries: &[Query]) -> Vec<String> {
    let engine = Engine::with_parts(SolverCache::shared(), ThreadPool::serial());
    queries
        .iter()
        .map(|q| engine.execute(q).expect("serial execution failed").to_json().serialise())
        .collect()
}

#[test]
fn concurrent_queries_on_one_shared_engine_are_bit_identical_to_serial() {
    let queries = workload();
    let expected = serial_answers(&queries);

    // One engine, one skeleton cache, hammered from 8 threads; every thread walks
    // the workload in a different rotation so cache hits and misses interleave.
    let engine = Arc::new(Engine::with_parts(SolverCache::shared(), ThreadPool::serial()));
    let threads = 8;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let engine = Arc::clone(&engine);
                let queries = &queries;
                let expected = &expected;
                scope.spawn(move || {
                    for i in 0..queries.len() {
                        let index = (i + t * 3) % queries.len();
                        let result = engine
                            .execute(&queries[index])
                            .expect("concurrent execution failed")
                            .to_json()
                            .serialise();
                        assert_eq!(
                            result, expected[index],
                            "thread {t} diverged from the serial engine on query {index}"
                        );
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("worker panicked");
        }
    });
}

#[test]
fn batched_execution_under_a_parallel_pool_matches_the_serial_engine() {
    let queries = workload();
    let expected = serial_answers(&queries);
    for threads in [1usize, 4] {
        let pool = ThreadPool::new(threads);
        let engine = Engine::with_parts(SolverCache::shared(), pool);
        let results = engine.execute_batch(&queries);
        for (index, (result, expected)) in results.iter().zip(&expected).enumerate() {
            let rendered = result.as_ref().expect("batched execution failed").to_json().serialise();
            assert_eq!(
                &rendered, expected,
                "pool with {threads} thread(s) diverged on query {index}"
            );
        }
    }
}

#[test]
fn repeated_execution_on_a_warm_cache_returns_identical_bytes() {
    let queries = workload();
    let engine = Engine::with_parts(SolverCache::shared(), ThreadPool::serial());
    let cold: Vec<String> =
        queries.iter().map(|q| engine.execute(q).unwrap().to_json().serialise()).collect();
    let built = engine.cache().stats().misses;
    let warm: Vec<String> =
        queries.iter().map(|q| engine.execute(q).unwrap().to_json().serialise()).collect();
    assert_eq!(cold, warm, "a cache hit changed an answer");
    let stats = engine.cache().stats();
    assert_eq!(stats.misses, built, "warm pass should find every skeleton in the cache");
    assert!(stats.hits > 0);
    // One plan for the whole workload: the provisioning sweep finds the cost
    // sweep's solutions in the plan store, with the same bytes.
    let batched: Vec<String> = engine
        .execute_batch(&queries)
        .into_iter()
        .map(|result| result.unwrap().to_json().serialise())
        .collect();
    assert_eq!(batched, cold, "a plan-store hit changed an answer");
    let QueryResult::Stats(after) = engine.execute(&Query::Stats).unwrap() else {
        panic!("expected stats")
    };
    assert!(after.cache.levels[1].hits >= 4, "the plan should share the sweep's solutions");
}

#[test]
fn query_results_survive_a_json_round_trip_of_their_query() {
    // Serialise each query, re-parse it, execute both forms: identical bytes.
    let queries = workload();
    let engine = Engine::with_parts(SolverCache::shared(), ThreadPool::serial());
    for query in &queries {
        let reparsed = Query::parse_line(&query.to_json().serialise()).unwrap();
        let a = engine.execute(query).unwrap().to_json().serialise();
        let b = engine.execute(&reparsed).unwrap().to_json().serialise();
        assert_eq!(a, b);
    }
}

#[test]
fn stats_are_the_only_nondeterministic_result() {
    let engine = Engine::with_parts(SolverCache::shared(), ThreadPool::serial());
    let solve = Query::Solve { config: paper_config(4, 1.0) };
    engine.execute(&solve).unwrap();
    let first = engine.execute(&Query::Stats).unwrap();
    engine.execute(&solve).unwrap(); // a skeleton hit changes the counters
    let second = engine.execute(&Query::Stats).unwrap();
    let (QueryResult::Stats(first), QueryResult::Stats(second)) = (first, second) else {
        panic!("expected stats results")
    };
    assert!(second.cache.levels[0].hits > first.cache.levels[0].hits);
    // …and the stats JSON still parses as well-formed, deterministic-key JSON.
    let rendered = QueryResult::Stats(second).to_json().serialise();
    json::Value::parse(&rendered).expect("stats JSON must round-trip");
}
