//! The correctness checker, run after the timed window.
//!
//! Every answer is checked against an independent in-process reference: mean
//! queue lengths from [`MatrixGeometricSolver`] (the server solves spectrally),
//! percentiles from a [`ResponseAnalysis`] built on that matrix-geometric
//! solution.  Comparisons are relative tolerances, not stored bytes, so
//! deliberate low-order changes in the server's arithmetic still pass.  Exact
//! repeats must be byte-identical to the first answer, and no valid line may get
//! an error response.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use urs_core::engine::json::Value;
use urs_core::engine::Query;
use urs_core::{
    MatrixGeometricSolution, MatrixGeometricSolver, MixSearch, MixSearchOptions, QueueSolution,
    ResponseAnalysis, ResponseOptions, SystemConfig,
};

/// Relative tolerance for mean queue lengths, costs and response times.
const VALUE_TOLERANCE: f64 = 1e-6;

/// Relative tolerance for response-time percentiles: a reported percentile `t`
/// of fraction `q` passes when the reference CDF brackets `q` between
/// `t·(1 − tol)` and `t·(1 + tol)`.  Two CDF evaluations instead of a root
/// search keep the check far cheaper than the server's own work.
const PERCENTILE_TOLERANCE: f64 = 1e-5;

/// What the checker needs to know about one request.
#[derive(Debug, Clone, Copy)]
pub struct Answer<'a> {
    /// The line sent.
    pub line: &'a str,
    /// The response received, if any.
    pub response: Option<&'a str>,
    /// Index (into the same answer list) of the request this one repeats.
    pub repeat_of: Option<usize>,
}

/// Checks every answer; returns one failure description per failed answer, by
/// index.  Distinct lines are checked concurrently on `threads` threads.
pub fn check(answers: &[Answer<'_>], threads: usize) -> BTreeMap<usize, String> {
    let mut failures = BTreeMap::new();
    // Distinct (line, response) pairs need one value check each.
    let mut distinct: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (index, answer) in answers.iter().enumerate() {
        let Some(response) = answer.response else {
            failures.insert(index, "no response".to_string());
            continue;
        };
        if let Some(original) = answer.repeat_of {
            let first = answers.get(original).and_then(|a| a.response);
            if first != Some(response) {
                failures.insert(index, format!("repeat of #{original} is not byte-identical"));
                continue;
            }
        }
        distinct.entry((answer.line, response)).or_default().push(index);
    }
    let work: Vec<((&str, &str), Vec<usize>)> = distinct.into_iter().collect();
    let reference = Reference::default();
    let next = AtomicUsize::new(0);
    let verdicts: Vec<(usize, Result<(), String>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut verdicts = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(((line, response), _)) = work.get(i) else { break };
                        verdicts.push((i, check_answer(line, response, &reference)));
                    }
                    verdicts
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("checker threads do not panic")).collect()
    });
    for (i, verdict) in verdicts {
        if let (Err(reason), Some((_, indices))) = (verdict, work.get(i)) {
            for &index in indices {
                failures.insert(index, reason.clone());
            }
        }
    }
    failures
}

/// Reference solutions shared by the checker threads, keyed by configuration.
#[derive(Default)]
struct Reference {
    solutions: Mutex<BTreeMap<String, Arc<MatrixGeometricSolution>>>,
    analyses: Mutex<BTreeMap<String, Arc<ResponseAnalysis>>>,
}

/// The entry for `config` in `map`, made (outside the lock) on a miss.
fn cached<T>(
    map: &Mutex<BTreeMap<String, Arc<T>>>,
    config: &SystemConfig,
    make: impl FnOnce() -> Result<T, String>,
) -> Result<Arc<T>, String> {
    let key = Query::Solve { config: config.clone() }.to_json().serialise();
    if let Some(hit) = map.lock().expect("reference lock").get(&key) {
        return Ok(Arc::clone(hit));
    }
    let value = Arc::new(make()?);
    map.lock().expect("reference lock").insert(key, Arc::clone(&value));
    Ok(value)
}

impl Reference {
    fn solution(&self, config: &SystemConfig) -> Result<Arc<MatrixGeometricSolution>, String> {
        cached(&self.solutions, config, || {
            MatrixGeometricSolver::default()
                .solve_detailed(config)
                .map_err(|e| format!("reference solve failed: {e}"))
        })
    }

    fn mean_queue_length(&self, config: &SystemConfig) -> Result<f64, String> {
        Ok(self.solution(config)?.mean_queue_length())
    }

    fn analysis(&self, config: &SystemConfig) -> Result<Arc<ResponseAnalysis>, String> {
        cached(&self.analyses, config, || {
            let solution = self.solution(config)?;
            ResponseAnalysis::from_solution(config, solution.as_ref(), ResponseOptions::default())
                .map_err(|e| format!("reference analysis failed: {e}"))
        })
    }
}

fn close(got: f64, want: f64, tolerance: f64) -> bool {
    (got - want).abs() <= tolerance * want.abs().max(1e-12)
}

fn field(value: &Value, key: &str) -> Result<f64, String> {
    value.get(key).and_then(Value::as_f64).ok_or_else(|| format!("response lacks \"{key}\""))
}

fn expect_close(what: &str, got: f64, want: f64, tolerance: f64) -> Result<(), String> {
    if close(got, want, tolerance) {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, reference {want}"))
    }
}

fn points(value: &Value) -> Result<&[Value], String> {
    value.get("points").and_then(Value::as_array).ok_or_else(|| "response lacks \"points\"".into())
}

/// Checks one response against the reference for its line.
fn check_answer(line: &str, response: &str, reference: &Reference) -> Result<(), String> {
    let query = Query::parse_line(line).map_err(|e| format!("benchmark line rejected: {e}"))?;
    let value = Value::parse(response).map_err(|e| format!("response is not JSON: {e}"))?;
    if value.get("error").is_some() {
        return Err(format!("error response to a valid line: {response}"));
    }
    match &query {
        Query::Solve { config } => {
            if field(&value, "servers")? != config.servers() as f64
                || field(&value, "arrival_rate")?.to_bits() != config.arrival_rate().to_bits()
            {
                return Err("solution echoes the wrong configuration".into());
            }
            expect_close(
                "utilisation",
                field(&value, "utilisation")?,
                config.utilisation(),
                1e-12,
            )?;
            let l = reference.mean_queue_length(config)?;
            expect_close(
                "mean_queue_length",
                field(&value, "mean_queue_length")?,
                l,
                VALUE_TOLERANCE,
            )?;
            let w = l / config.arrival_rate();
            expect_close(
                "mean_response_time",
                field(&value, "mean_response_time")?,
                w,
                VALUE_TOLERANCE,
            )
        }
        Query::CostSweep { config, cost, min_servers, max_servers } => {
            let got = points(&value)?;
            let mut expected = Vec::new();
            for servers in *min_servers..=*max_servers {
                let point = config.with_total_servers(servers).map_err(|e| e.to_string())?;
                if point.is_stable() {
                    let l = reference.mean_queue_length(&point)?;
                    expected.push((servers, l, cost.evaluate(l, servers)));
                }
            }
            if got.len() != expected.len() {
                return Err(format!("{} sweep points, expected {}", got.len(), expected.len()));
            }
            for (point, &(servers, l, c)) in got.iter().zip(&expected) {
                if field(point, "servers")? != servers as f64 {
                    return Err("sweep point at the wrong fleet size".into());
                }
                expect_close(
                    "mean_queue_length",
                    field(point, "mean_queue_length")?,
                    l,
                    VALUE_TOLERANCE,
                )?;
                expect_close("cost", field(point, "cost")?, c, VALUE_TOLERANCE)?;
            }
            let best = expected.iter().min_by(|a, b| a.2.total_cmp(&b.2));
            match (value.get("optimum"), best) {
                (Some(optimum), Some(&(servers, _, c))) => {
                    if field(optimum, "servers")? != servers as f64 {
                        return Err("optimum is not the cheapest fleet".into());
                    }
                    expect_close("optimum cost", field(optimum, "cost")?, c, VALUE_TOLERANCE)
                }
                (Some(Value::Null) | None, None) => Ok(()),
                _ => Err("optimum missing or unexpected".into()),
            }
        }
        Query::Provisioning { config, min_servers, max_servers } => {
            let got = points(&value)?;
            let mut expected = Vec::new();
            for servers in *min_servers..=*max_servers {
                let point = config.with_total_servers(servers).map_err(|e| e.to_string())?;
                if point.is_stable() {
                    expected.push((servers, reference.mean_queue_length(&point)?));
                }
            }
            if got.len() != expected.len() {
                return Err(format!("{} sweep points, expected {}", got.len(), expected.len()));
            }
            for (point, &(servers, l)) in got.iter().zip(&expected) {
                if field(point, "servers")? != servers as f64 {
                    return Err("sweep point at the wrong fleet size".into());
                }
                expect_close(
                    "mean_queue_length",
                    field(point, "mean_queue_length")?,
                    l,
                    VALUE_TOLERANCE,
                )?;
                let w = l / config.arrival_rate();
                expect_close(
                    "mean_response_time",
                    field(point, "mean_response_time")?,
                    w,
                    VALUE_TOLERANCE,
                )?;
            }
            Ok(())
        }
        Query::Percentiles { config, fractions } => {
            let analysis = reference.analysis(config)?;
            check_percentiles(&value, &analysis, fractions)
        }
        Query::SlaSweep { config, server_counts, fractions } => {
            let got = points(&value)?;
            let mut expected = Vec::new();
            for &servers in server_counts {
                let point = config.with_servers(servers).map_err(|e| e.to_string())?;
                if point.is_stable() {
                    expected.push((servers, point));
                }
            }
            if got.len() != expected.len() {
                return Err(format!("{} SLA points, expected {}", got.len(), expected.len()));
            }
            for (point, (servers, config)) in got.iter().zip(&expected) {
                if field(point, "servers")? != *servers as f64 {
                    return Err("SLA point at the wrong fleet size".into());
                }
                let analysis = reference.analysis(config)?;
                check_percentiles(point, &analysis, fractions)?;
            }
            Ok(())
        }
        Query::MixSearch { arrival_rate, classes, cost, bounds } => {
            let search =
                MixSearch::new(*arrival_rate, classes.clone(), cost.clone(), bounds.clone())
                    .map_err(|e| e.to_string())?;
            let candidates = search.candidate_mixes().map_err(|e| e.to_string())?.len();
            if field(&value, "candidates")? != candidates as f64 {
                return Err(format!(
                    "mix search reports the wrong candidate count (expected {candidates})"
                ));
            }
            let screened = candidates > MixSearchOptions::default().exhaustive_limit;
            if value.get("screened").and_then(Value::as_bool) != Some(screened) {
                return Err(format!("mix search \"screened\" should be {screened}"));
            }
            let ranked =
                value.get("ranked").and_then(Value::as_array).ok_or("response lacks \"ranked\"")?;
            let costs: Vec<f64> =
                ranked.iter().map(|c| field(c, "cost")).collect::<Result<_, _>>()?;
            if costs.windows(2).any(|pair| pair[0] > pair[1]) {
                return Err("ranked candidates are not in cost order".into());
            }
            let optimum = value.get("optimum").ok_or("response lacks \"optimum\"")?;
            if ranked.first() != Some(optimum) {
                return Err("optimum is not the best ranked candidate".into());
            }
            let counts: Vec<usize> = optimum
                .get("counts")
                .and_then(Value::as_array)
                .ok_or("optimum lacks \"counts\"")?
                .iter()
                .map(|n| n.as_usize().ok_or("non-integer count"))
                .collect::<Result<_, _>>()?;
            let fleet = classes
                .iter()
                .zip(&counts)
                .filter(|(_, &n)| n > 0)
                .map(|(class, &n)| class.with_count(n))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            let config =
                SystemConfig::heterogeneous(*arrival_rate, fleet).map_err(|e| e.to_string())?;
            let l = reference.mean_queue_length(&config)?;
            expect_close(
                "optimum mean_queue_length",
                field(optimum, "mean_queue_length")?,
                l,
                VALUE_TOLERANCE,
            )?;
            expect_close(
                "optimum cost",
                field(optimum, "cost")?,
                cost.evaluate(l, &counts),
                VALUE_TOLERANCE,
            )
        }
        Query::Stats => Err("stats lines are not part of any workload".into()),
    }
}

fn check_percentiles(
    value: &Value,
    analysis: &ResponseAnalysis,
    fractions: &[f64],
) -> Result<(), String> {
    expect_close(
        "mean_response_time",
        field(value, "mean_response_time")?,
        analysis.mean_response_time(),
        VALUE_TOLERANCE,
    )?;
    let got: Vec<f64> = value
        .get("percentiles")
        .and_then(Value::as_array)
        .ok_or("response lacks \"percentiles\"")?
        .iter()
        .map(|p| p.as_f64().ok_or("non-numeric percentile"))
        .collect::<Result<_, _>>()?;
    if got.len() != fractions.len() {
        return Err(format!("{} percentiles, expected {}", got.len(), fractions.len()));
    }
    let cdf =
        |t: f64| analysis.response_time_cdf(t).map_err(|e| format!("reference CDF failed: {e}"));
    for (&t, &q) in got.iter().zip(fractions) {
        if !(cdf(t * (1.0 - PERCENTILE_TOLERANCE))? <= q
            && q <= cdf(t * (1.0 + PERCENTILE_TOLERANCE))?)
        {
            return Err(format!(
                "percentile {t} of fraction {q} is off by more than {PERCENTILE_TOLERANCE}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use urs_server::Server;

    /// A short planner stream answered in process: solves, sweeps, percentiles and
    /// exact repeats.
    fn answered() -> Vec<(String, Option<usize>, String)> {
        let server = Server::new();
        let mut stream = Workload::PlannerSessions.stream(42, 0);
        let round = stream.next_round();
        round
            .into_iter()
            .take(3)
            .flatten()
            .map(|request| {
                let response = server.respond_line(&request.line);
                (request.line, request.repeat_of, response)
            })
            .collect()
    }

    fn answers(log: &[(String, Option<usize>, String)]) -> Vec<Answer<'_>> {
        log.iter()
            .map(|(line, repeat_of, response)| Answer {
                line,
                response: Some(response),
                repeat_of: *repeat_of,
            })
            .collect()
    }

    #[test]
    fn correct_answers_pass() {
        let log = answered();
        assert!(log.len() >= 10);
        let failures = check(&answers(&log), 2);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn a_tampered_value_is_flagged() {
        let mut log = answered();
        let (_, _, response) = &mut log[0];
        let value = Value::parse(response).unwrap();
        let l = value.get("mean_queue_length").unwrap().as_f64().unwrap();
        *response = response.replace(&format!("{l}"), &format!("{}", l * (1.0 + 1e-4)));
        let failures = check(&answers(&log), 2);
        assert_eq!(failures.keys().copied().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn a_tampered_percentile_is_flagged() {
        let mut log = answered();
        let index = log.iter().position(|(line, ..)| line.contains("\"percentiles\"")).unwrap();
        let (_, _, response) = &mut log[index];
        let value = Value::parse(response).unwrap();
        let p = value.get("percentiles").unwrap().as_array().unwrap()[0].as_f64().unwrap();
        *response = response.replace(&format!("{p}"), &format!("{}", p * (1.0 - 1e-4)));
        assert!(check(&answers(&log), 1).contains_key(&index));
    }

    #[test]
    fn a_dropped_line_is_flagged() {
        let log = answered();
        let mut list = answers(&log);
        list[2].response = None;
        let failures = check(&list, 2);
        assert_eq!(failures.get(&2).map(String::as_str), Some("no response"));
        assert_eq!(failures.len(), 1);
    }

    #[test]
    fn an_error_response_is_flagged() {
        let log = answered();
        let mut list = answers(&log);
        let error = urs_server::error_response("solver failed");
        list[1].response = Some(&error);
        let failures = check(&list, 2);
        assert!(failures.get(&1).is_some_and(|r| r.contains("error response")), "{failures:?}");
    }

    #[test]
    fn a_repeat_that_differs_from_its_first_answer_is_flagged() {
        let log = answered();
        let mut list = answers(&log);
        // Declare line 5 a repeat of line 0: the bytes differ, so it must fail even
        // though its own value is correct.
        list[5].repeat_of = Some(0);
        let failures = check(&list, 2);
        assert!(failures.get(&5).is_some_and(|r| r.contains("byte-identical")), "{failures:?}");
    }
}
