//! The query engine: capacity-planning questions as data, planned and executed
//! against one shared skeleton cache.
//!
//! Everything below `urs_core` used to be reachable only as a *batch API*: a binary
//! constructs a solver, calls a sweep, exits, and the cached skeletons die with the
//! process.  This module restructures that path into **query → plan → execute**:
//!
//! * [`Query`] — every analysis of the paper as a plain value (solve, cost sweep,
//!   provisioning, percentiles, SLA sweep, mix search, stats), parseable from the
//!   newline-delimited JSON protocol served by `urs-server` and canonically hashable
//!   via [`Query::canonical_key`];
//! * [`plan`] — groups compatible queries (same QBD-skeleton identity) so a batch
//!   shares one [`ThreadPool`] fan-out for its plain solves;
//! * [`Engine`] — owns the shared [`SolverCache`] of skeletons and the pool, runs
//!   each plan's queries on the solutions and chains they share in a store dropped
//!   with the plan, and executes them through the same `exec` grid executors that
//!   back the legacy `*_with` entry points, so
//!   engine results are **bit-identical** to the batch API (pinned by the
//!   `engine_equivalence` suite).  Every exact answer — solves, sweeps, percentiles,
//!   mix-search evaluations — comes from the
//!   [`MatrixGeometricSolver`](crate::MatrixGeometricSolver), whose solves take
//!   2.4–3.2× less time than the spectral expansion with spectrum slicing;
//!   the spectral expansion, the paper's own method, certifies it in the
//!   `cross_solver_agreement` suite (mean queue length within 1e-10 relative);
//! * [`QueryResult`] — deterministic result values serialisable to JSON via the
//!   dependency-free [`json`] module: object keys are ordered, numbers round-trip
//!   bit-exactly, so the same trace always produces a byte-identical response log
//!   (the restart-determinism contract; `stats` responses are the documented
//!   exception — counters depend on cache history).
//!
//! # Query grammar (JSON)
//!
//! ```text
//! {"type":"solve","config":CONFIG}
//! {"type":"cost_sweep","config":CONFIG,"holding_cost":4,"server_cost":1,
//!  "min_servers":5,"max_servers":12}
//! {"type":"provisioning","config":CONFIG,"min_servers":7,"max_servers":12}
//! {"type":"percentiles","config":CONFIG,"fractions":[0.9,0.99]}
//! {"type":"sla_sweep","config":CONFIG,"server_counts":[2,3,4],"fractions":[0.95]}
//! {"type":"mix_search","arrival_rate":4.0,"holding_cost":4.0,
//!  "classes":[{"count":1,"service_rate":1.0,"cost":1.0,"lifecycle":LIFECYCLE},…],
//!  "min_servers":1,"max_servers":8,"budget":12.5}          // budget optional
//! {"type":"stats"}
//!
//! CONFIG    = {"servers":10,"arrival_rate":8.0,"service_rate":1.0,
//!              "lifecycle":LIFECYCLE}
//! LIFECYCLE = "paper"                                      // the Sun-trace fit
//!           | {"breakdown_rate":0.1,"repair_rate":2.0}     // exponential phases
//!           | {"operative_mean":34.62,"operative_scv":4.6,"repair_rate":0.2}
//!           | {"operative":DIST,"inoperative":DIST}        // general form
//! DIST      = {"weights":[…],"rates":[…]}                  // hyperexponential
//! ```
//!
//! [`Query::to_json`] emits the general lifecycle form, so serialising and
//! re-parsing a query reproduces it exactly.

pub mod json;

pub(crate) mod exec;
mod store;

use std::fmt;
use std::sync::Arc;

use urs_dist::HyperExponential;

use crate::cache::{
    digest_of, push_class_words, skeleton_digest, CacheKey, CacheStats, SolverCache,
};
use crate::config::{canonical_bits, ServerClass, ServerLifecycle, SystemConfig};
use crate::cost::{ClassCostModel, CostModel, CostPoint, CostSweep};
use crate::error::ModelError;
use crate::mix::{MixBounds, MixCandidate, MixSearch, MixSearchResult};
use crate::parallel::ThreadPool;
use crate::provisioning::{ProvisioningPoint, ProvisioningSweep};
use crate::response::ResponseOptions;
use crate::sweeps::SlaPoint;
use crate::Result;

use json::Value;
use store::{PlanCounters, PlanStore};

/// A capacity-planning query: one of the paper's analyses as a plain value.
///
/// Construct directly, or parse from the JSON protocol with [`Query::from_json`] /
/// [`Query::parse_line`].  Parameters are canonicalised by [`SystemConfig`] on
/// construction (class order, merged classes, signed zero), so two queries that
/// denote the same analysis compare equal and share a [`canonical_key`](Self::canonical_key).
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Solve one configuration exactly (matrix-geometric method).
    Solve {
        /// The system to solve.
        config: SystemConfig,
    },
    /// Sweep the Section-4 cost function `C = c₁·L + c₂·N` over a server range
    /// (Figure 5).
    CostSweep {
        /// Base configuration; the class mix is scaled to each total.
        config: SystemConfig,
        /// Cost coefficients.
        cost: CostModel,
        /// Smallest fleet size to evaluate.
        min_servers: usize,
        /// Largest fleet size to evaluate.
        max_servers: usize,
    },
    /// Sweep performance over a server range (Figure 9 capacity planning).
    Provisioning {
        /// Base configuration; the class mix is scaled to each total.
        config: SystemConfig,
        /// Smallest fleet size to evaluate.
        min_servers: usize,
        /// Largest fleet size to evaluate.
        max_servers: usize,
    },
    /// Certified response-time percentiles of one configuration.
    Percentiles {
        /// The system to analyse.
        config: SystemConfig,
        /// Requested fractions in `(0, 1)`, e.g. `0.99` for P99.
        fractions: Vec<f64>,
    },
    /// Percentiles versus fleet size — the SLA/capacity trade-off.
    SlaSweep {
        /// Base configuration.
        config: SystemConfig,
        /// Fleet sizes to evaluate (unstable ones are skipped).
        server_counts: Vec<usize>,
        /// Requested fractions in `(0, 1)`.
        fractions: Vec<f64>,
    },
    /// Optimise the composition of a heterogeneous fleet under the per-class cost
    /// model.
    MixSearch {
        /// Arrival rate the fleet must serve.
        arrival_rate: f64,
        /// Candidate server classes (template counts are ignored).
        classes: Vec<ServerClass>,
        /// Per-class cost model (one price per class, same order).
        cost: ClassCostModel,
        /// Fleet-size and budget bounds on the searched space.
        bounds: MixBounds,
    },
    /// Report engine cache statistics (hit rates, eviction ages, occupancy).
    ///
    /// The response depends on cache history, so `stats` is excluded from the
    /// byte-identical replay contract that the compute queries honour.
    Stats,
}

/// The canonical identity of a [`Query`] — equal keys mean "same analysis,
/// answerable by one cache entry".
///
/// The key carries the query's canonical words in full (type tag, skeleton key,
/// `f64` bit patterns, ranges, each list prefixed by its length), so two distinct
/// analyses never compare equal.  Its [`digest`](Self::digest) is a deterministic
/// FNV-1a hash of the words, stable across runs and processes; it may collide and
/// is used for grouping and display only, never as the identity.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryKey {
    digest: u64,
    words: Vec<u64>,
}

impl QueryKey {
    fn new(words: Vec<u64>) -> Self {
        QueryKey { digest: digest_of(&words), words }
    }

    /// A key with an arbitrary digest, so a test can give two distinct keys the
    /// same digest and check that nothing mistakes the digest for the identity.
    #[doc(hidden)]
    pub fn with_digest(words: Vec<u64>, digest: u64) -> Self {
        QueryKey { digest, words }
    }

    /// The 64-bit digest of the key (for grouping and display; may collide).
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

impl CacheKey for QueryKey {
    fn heap_bytes(&self) -> usize {
        size_of_val(self.words.as_slice())
    }
}

/// A failure to parse a protocol line into a [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryParseError {
    /// The line is not well-formed JSON.
    Json(json::JsonError),
    /// The JSON does not match the query grammar.
    Grammar(&'static str),
    /// The parameters were rejected by the model layer (e.g. a non-positive rate).
    Model(ModelError),
}

impl fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryParseError::Json(e) => write!(f, "{e}"),
            QueryParseError::Grammar(msg) => write!(f, "query grammar: {msg}"),
            QueryParseError::Model(e) => write!(f, "invalid parameters: {e}"),
        }
    }
}

impl std::error::Error for QueryParseError {}

impl From<json::JsonError> for QueryParseError {
    fn from(e: json::JsonError) -> Self {
        QueryParseError::Json(e)
    }
}

impl From<ModelError> for QueryParseError {
    fn from(e: ModelError) -> Self {
        QueryParseError::Model(e)
    }
}

fn require<'a>(value: &'a Value, key: &str, missing: &'static str) -> Result2<&'a Value> {
    value.get(key).ok_or(QueryParseError::Grammar(missing))
}

fn require_f64(value: &Value, key: &str, missing: &'static str) -> Result2<f64> {
    require(value, key, missing)?.as_f64().ok_or(QueryParseError::Grammar(missing))
}

fn require_usize(value: &Value, key: &str, missing: &'static str) -> Result2<usize> {
    require(value, key, missing)?.as_usize().ok_or(QueryParseError::Grammar(missing))
}

fn f64_list(value: &Value, missing: &'static str) -> Result2<Vec<f64>> {
    value
        .as_array()
        .ok_or(QueryParseError::Grammar(missing))?
        .iter()
        .map(|v| v.as_f64().ok_or(QueryParseError::Grammar(missing)))
        .collect()
}

type Result2<T> = std::result::Result<T, QueryParseError>;

fn parse_distribution(value: &Value) -> Result2<HyperExponential> {
    let weights = f64_list(
        require(value, "weights", "distribution requires a \"weights\" number array")?,
        "distribution requires a \"weights\" number array",
    )?;
    let rates = f64_list(
        require(value, "rates", "distribution requires a \"rates\" number array")?,
        "distribution requires a \"rates\" number array",
    )?;
    HyperExponential::new(&weights, &rates).map_err(|e| QueryParseError::Model(e.into()))
}

fn parse_lifecycle(value: &Value) -> Result2<ServerLifecycle> {
    if value.as_str() == Some("paper") {
        return Ok(ServerLifecycle::paper_fitted()?);
    }
    if value.get("operative").is_some() {
        let operative = parse_distribution(require(
            value,
            "operative",
            "lifecycle requires an \"operative\" distribution",
        )?)?;
        let inoperative = parse_distribution(require(
            value,
            "inoperative",
            "general lifecycle requires an \"inoperative\" distribution",
        )?)?;
        return Ok(ServerLifecycle::new(operative, inoperative));
    }
    if value.get("operative_mean").is_some() {
        let mean = require_f64(value, "operative_mean", "lifecycle requires \"operative_mean\"")?;
        let scv = require_f64(value, "operative_scv", "lifecycle requires \"operative_scv\"")?;
        let repair = require_f64(value, "repair_rate", "lifecycle requires \"repair_rate\"")?;
        let operative = HyperExponential::with_mean_and_scv(mean, scv)
            .map_err(|e| QueryParseError::Model(e.into()))?;
        return Ok(ServerLifecycle::with_exponential_repair(operative, repair)?);
    }
    if value.get("breakdown_rate").is_some() {
        let breakdown =
            require_f64(value, "breakdown_rate", "lifecycle requires \"breakdown_rate\"")?;
        let repair = require_f64(value, "repair_rate", "lifecycle requires \"repair_rate\"")?;
        return Ok(ServerLifecycle::exponential(breakdown, repair)?);
    }
    Err(QueryParseError::Grammar(
        "lifecycle must be \"paper\", {breakdown_rate, repair_rate}, \
         {operative_mean, operative_scv, repair_rate} or {operative, inoperative}",
    ))
}

fn parse_config(value: &Value) -> Result2<SystemConfig> {
    let servers = require_usize(value, "servers", "config requires an integer \"servers\"")?;
    let arrival = require_f64(value, "arrival_rate", "config requires a numeric \"arrival_rate\"")?;
    let service = require_f64(value, "service_rate", "config requires a numeric \"service_rate\"")?;
    let lifecycle =
        parse_lifecycle(require(value, "lifecycle", "config requires a \"lifecycle\"")?)?;
    Ok(SystemConfig::new(servers, arrival, service, lifecycle)?)
}

fn distribution_to_json(dist: &HyperExponential) -> Value {
    json::object([
        ("weights", json::number_array(dist.weights())),
        ("rates", json::number_array(dist.rates())),
    ])
}

fn lifecycle_to_json(lifecycle: &ServerLifecycle) -> Value {
    json::object([
        ("operative", distribution_to_json(lifecycle.operative())),
        ("inoperative", distribution_to_json(lifecycle.inoperative())),
    ])
}

fn config_to_json(config: &SystemConfig) -> Value {
    json::object([
        ("servers", Value::Number(config.servers() as f64)),
        ("arrival_rate", Value::Number(config.arrival_rate())),
        ("service_rate", Value::Number(config.service_rate())),
        ("lifecycle", lifecycle_to_json(config.lifecycle())),
    ])
}

/// Appends a query's type tag, its configuration's class words and its arrival
/// rate bits.
fn push_config_words(words: &mut Vec<u64>, tag: u64, config: &SystemConfig) -> Result<()> {
    words.push(tag);
    push_class_words(config.classes(), words)?;
    words.push(canonical_bits(config.arrival_rate()));
    Ok(())
}

/// Appends a length-prefixed list of canonical `f64` bit patterns.
fn push_f64_words(words: &mut Vec<u64>, values: &[f64]) {
    words.push(values.len() as u64);
    words.extend(values.iter().map(|&v| canonical_bits(v)));
}

impl Query {
    /// Parses one line of the JSON protocol.
    ///
    /// # Errors
    ///
    /// Returns [`QueryParseError`] for malformed JSON, grammar violations and
    /// parameters the model layer rejects.  Never panics, whatever the input.
    pub fn parse_line(line: &str) -> Result2<Query> {
        Query::from_json(&Value::parse(line)?)
    }

    /// Builds a query from a parsed JSON value (see the module docs for the
    /// grammar).
    ///
    /// # Errors
    ///
    /// As [`parse_line`](Self::parse_line), minus the JSON-syntax cases.
    pub fn from_json(value: &Value) -> Result2<Query> {
        let kind = require(value, "type", "query requires a \"type\" string")?
            .as_str()
            .ok_or(QueryParseError::Grammar("query requires a \"type\" string"))?;
        match kind {
            "solve" => {
                let config =
                    parse_config(require(value, "config", "solve requires a \"config\"")?)?;
                Ok(Query::Solve { config })
            }
            "cost_sweep" => {
                let config =
                    parse_config(require(value, "config", "cost_sweep requires a \"config\"")?)?;
                let holding =
                    require_f64(value, "holding_cost", "cost_sweep requires \"holding_cost\"")?;
                let server =
                    require_f64(value, "server_cost", "cost_sweep requires \"server_cost\"")?;
                let min_servers =
                    require_usize(value, "min_servers", "cost_sweep requires \"min_servers\"")?;
                let max_servers =
                    require_usize(value, "max_servers", "cost_sweep requires \"max_servers\"")?;
                Ok(Query::CostSweep {
                    config,
                    cost: CostModel::new(holding, server)?,
                    min_servers,
                    max_servers,
                })
            }
            "provisioning" => {
                let config =
                    parse_config(require(value, "config", "provisioning requires a \"config\"")?)?;
                let min_servers =
                    require_usize(value, "min_servers", "provisioning requires \"min_servers\"")?;
                let max_servers =
                    require_usize(value, "max_servers", "provisioning requires \"max_servers\"")?;
                Ok(Query::Provisioning { config, min_servers, max_servers })
            }
            "percentiles" => {
                let config =
                    parse_config(require(value, "config", "percentiles requires a \"config\"")?)?;
                let fractions = f64_list(
                    require(value, "fractions", "percentiles requires \"fractions\"")?,
                    "percentiles requires a \"fractions\" number array",
                )?;
                Ok(Query::Percentiles { config, fractions })
            }
            "sla_sweep" => {
                let config =
                    parse_config(require(value, "config", "sla_sweep requires a \"config\"")?)?;
                let counts = require(
                    value,
                    "server_counts",
                    "sla_sweep requires a \"server_counts\" integer array",
                )?
                .as_array()
                .ok_or(QueryParseError::Grammar(
                    "sla_sweep requires a \"server_counts\" integer array",
                ))?
                .iter()
                .map(|v| {
                    v.as_usize().ok_or(QueryParseError::Grammar(
                        "sla_sweep requires a \"server_counts\" integer array",
                    ))
                })
                .collect::<Result2<Vec<usize>>>()?;
                let fractions = f64_list(
                    require(value, "fractions", "sla_sweep requires \"fractions\"")?,
                    "sla_sweep requires a \"fractions\" number array",
                )?;
                Ok(Query::SlaSweep { config, server_counts: counts, fractions })
            }
            "mix_search" => {
                let arrival_rate =
                    require_f64(value, "arrival_rate", "mix_search requires \"arrival_rate\"")?;
                let holding =
                    require_f64(value, "holding_cost", "mix_search requires \"holding_cost\"")?;
                let class_values =
                    require(value, "classes", "mix_search requires a \"classes\" array")?
                        .as_array()
                        .ok_or(QueryParseError::Grammar(
                            "mix_search requires a \"classes\" array",
                        ))?;
                let mut classes = Vec::with_capacity(class_values.len());
                let mut costs = Vec::with_capacity(class_values.len());
                for class in class_values {
                    let count = class.get("count").and_then(Value::as_usize).unwrap_or(1);
                    let rate = require_f64(
                        class,
                        "service_rate",
                        "each mix class requires \"service_rate\"",
                    )?;
                    let cost = require_f64(class, "cost", "each mix class requires \"cost\"")?;
                    let lifecycle = parse_lifecycle(require(
                        class,
                        "lifecycle",
                        "each mix class requires a \"lifecycle\"",
                    )?)?;
                    classes.push(ServerClass::new(count, rate, lifecycle)?);
                    costs.push(cost);
                }
                let max_servers =
                    require_usize(value, "max_servers", "mix_search requires \"max_servers\"")?;
                let mut bounds = MixBounds::up_to(max_servers)?;
                if let Some(min) = value.get("min_servers").and_then(Value::as_usize) {
                    bounds = bounds.with_min_servers(min)?;
                }
                if let Some(budget) = value.get("budget").and_then(Value::as_f64) {
                    bounds = bounds.with_budget(budget)?;
                }
                Ok(Query::MixSearch {
                    arrival_rate,
                    classes,
                    cost: ClassCostModel::new(holding, costs)?,
                    bounds,
                })
            }
            "stats" => Ok(Query::Stats),
            _ => Err(QueryParseError::Grammar(
                "unknown query type (expected solve, cost_sweep, provisioning, percentiles, \
                 sla_sweep, mix_search or stats)",
            )),
        }
    }

    /// Serialises the query back to its protocol form ([`from_json`](Self::from_json)
    /// of the result reproduces the query exactly — JSON numbers round-trip bit for
    /// bit).
    pub fn to_json(&self) -> Value {
        match self {
            Query::Solve { config } => json::object([
                ("type", Value::String("solve".into())),
                ("config", config_to_json(config)),
            ]),
            Query::CostSweep { config, cost, min_servers, max_servers } => json::object([
                ("type", Value::String("cost_sweep".into())),
                ("config", config_to_json(config)),
                ("holding_cost", Value::Number(cost.holding_cost())),
                ("server_cost", Value::Number(cost.server_cost())),
                ("min_servers", Value::Number(*min_servers as f64)),
                ("max_servers", Value::Number(*max_servers as f64)),
            ]),
            Query::Provisioning { config, min_servers, max_servers } => json::object([
                ("type", Value::String("provisioning".into())),
                ("config", config_to_json(config)),
                ("min_servers", Value::Number(*min_servers as f64)),
                ("max_servers", Value::Number(*max_servers as f64)),
            ]),
            Query::Percentiles { config, fractions } => json::object([
                ("type", Value::String("percentiles".into())),
                ("config", config_to_json(config)),
                ("fractions", json::number_array(fractions)),
            ]),
            Query::SlaSweep { config, server_counts, fractions } => json::object([
                ("type", Value::String("sla_sweep".into())),
                ("config", config_to_json(config)),
                (
                    "server_counts",
                    Value::Array(server_counts.iter().map(|&n| Value::Number(n as f64)).collect()),
                ),
                ("fractions", json::number_array(fractions)),
            ]),
            Query::MixSearch { arrival_rate, classes, cost, bounds } => {
                let class_values: Vec<Value> = classes
                    .iter()
                    .zip(cost.server_costs())
                    .map(|(class, &price)| {
                        json::object([
                            ("count", Value::Number(class.count() as f64)),
                            ("service_rate", Value::Number(class.service_rate())),
                            ("cost", Value::Number(price)),
                            ("lifecycle", lifecycle_to_json(class.lifecycle())),
                        ])
                    })
                    .collect();
                let mut members = vec![
                    ("type", Value::String("mix_search".into())),
                    ("arrival_rate", Value::Number(*arrival_rate)),
                    ("holding_cost", Value::Number(cost.holding_cost())),
                    ("classes", Value::Array(class_values)),
                    ("min_servers", Value::Number(bounds.min_servers() as f64)),
                    ("max_servers", Value::Number(bounds.max_servers() as f64)),
                ];
                if let Some(budget) = bounds.budget() {
                    members.push(("budget", Value::Number(budget)));
                }
                Value::Object(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
            }
            Query::Stats => json::object([("type", Value::String("stats".into()))]),
        }
    }

    /// The canonical hashable identity of this query: equal keys denote the same
    /// analysis.  Stable across runs and processes (FNV-1a, no hasher seeding).
    ///
    /// # Errors
    ///
    /// Rejects queries whose configuration admits no sound cache key (non-finite
    /// parameters).
    pub fn canonical_key(&self) -> Result<QueryKey> {
        let mut words = Vec::new();
        match self {
            Query::Solve { config } => push_config_words(&mut words, 0, config)?,
            Query::CostSweep { config, cost, min_servers, max_servers } => {
                push_config_words(&mut words, 1, config)?;
                words.extend([
                    canonical_bits(cost.holding_cost()),
                    canonical_bits(cost.server_cost()),
                    *min_servers as u64,
                    *max_servers as u64,
                ]);
            }
            Query::Provisioning { config, min_servers, max_servers } => {
                push_config_words(&mut words, 2, config)?;
                words.extend([*min_servers as u64, *max_servers as u64]);
            }
            Query::Percentiles { config, fractions } => {
                push_config_words(&mut words, 3, config)?;
                push_f64_words(&mut words, fractions);
            }
            Query::SlaSweep { config, server_counts, fractions } => {
                push_config_words(&mut words, 4, config)?;
                words.push(server_counts.len() as u64);
                words.extend(server_counts.iter().map(|&n| n as u64));
                push_f64_words(&mut words, fractions);
            }
            Query::MixSearch { arrival_rate, classes, cost, bounds } => {
                words.extend([5, canonical_bits(*arrival_rate)]);
                push_class_words(classes, &mut words)?;
                words.push(canonical_bits(cost.holding_cost()));
                push_f64_words(&mut words, cost.server_costs());
                words.extend([bounds.min_servers() as u64, bounds.max_servers() as u64]);
                match bounds.budget() {
                    Some(budget) => words.extend([1, canonical_bits(budget)]),
                    None => words.push(0),
                }
            }
            Query::Stats => words.push(6),
        }
        Ok(QueryKey::new(words))
    }

    /// The skeleton-identity digest used for plan grouping: queries with equal
    /// digests share their QBD skeleton (and the cache entries hanging off it).
    /// `None` for queries with no skeleton (`stats`) or with unkeyable parameters.
    pub fn group_digest(&self) -> Option<u64> {
        match self {
            Query::Solve { config }
            | Query::CostSweep { config, .. }
            | Query::Provisioning { config, .. }
            | Query::Percentiles { config, .. }
            | Query::SlaSweep { config, .. } => skeleton_digest(config.classes()).ok(),
            Query::MixSearch { classes, .. } => skeleton_digest(classes).ok(),
            Query::Stats => None,
        }
    }
}

/// One group of a [`QueryPlan`]: queries sharing a skeleton identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanGroup {
    skeleton: Option<u64>,
    indices: Vec<usize>,
}

impl PlanGroup {
    /// The shared skeleton digest (`None` for the group of skeleton-less queries).
    pub fn skeleton_digest(&self) -> Option<u64> {
        self.skeleton
    }

    /// Indices into the planned query slice, in submission order.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }
}

/// A deterministic execution plan: queries grouped by skeleton identity, groups in
/// first-appearance order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    groups: Vec<PlanGroup>,
}

impl QueryPlan {
    /// The plan's groups, in first-appearance order of their skeletons.
    pub fn groups(&self) -> &[PlanGroup] {
        &self.groups
    }
}

/// Groups `queries` by skeleton identity (see [`Query::group_digest`]).  The plan
/// depends only on the queries and their order — never on timing — so planned
/// execution is as deterministic as sequential execution.
pub fn plan(queries: &[Query]) -> QueryPlan {
    let mut groups: Vec<PlanGroup> = Vec::new();
    for (index, query) in queries.iter().enumerate() {
        let skeleton = query.group_digest();
        match groups.iter_mut().find(|g| g.skeleton == skeleton) {
            Some(group) => group.indices.push(index),
            None => groups.push(PlanGroup { skeleton, indices: vec![index] }),
        }
    }
    QueryPlan { groups }
}

/// The exact solution of one configuration, summarised for serialisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolutionSummary {
    /// Number of servers.
    pub servers: usize,
    /// Arrival rate λ.
    pub arrival_rate: f64,
    /// Utilisation ρ.
    pub utilisation: f64,
    /// Mean queue length `L`.
    pub mean_queue_length: f64,
    /// Mean response time `W = L/λ`.
    pub mean_response_time: f64,
}

/// Certified percentile report for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PercentileReport {
    /// Mean response time `W`.
    pub mean_response_time: f64,
    /// The requested fractions, echoed in order.
    pub fractions: Vec<f64>,
    /// The certified percentiles, aligned with `fractions`.
    pub percentiles: Vec<f64>,
}

/// Cache statistics as reported by a [`Query::Stats`] query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineStats {
    /// Counter and occupancy snapshot of the skeleton cache and the plan stores.
    pub cache: CacheStats,
}

/// The deterministic result of a query, serialisable via [`QueryResult::to_json`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Result of [`Query::Solve`].
    Solution(SolutionSummary),
    /// Result of [`Query::CostSweep`].
    CostSweep(CostSweep),
    /// Result of [`Query::Provisioning`].
    Provisioning(ProvisioningSweep),
    /// Result of [`Query::Percentiles`].
    Percentiles(PercentileReport),
    /// Result of [`Query::SlaSweep`].
    SlaSweep(Vec<SlaPoint>),
    /// Result of [`Query::MixSearch`].
    MixSearch(MixSearchResult),
    /// Result of [`Query::Stats`].
    Stats(EngineStats),
}

fn cost_point_to_json(point: &CostPoint) -> Value {
    json::object([
        ("servers", Value::Number(point.servers as f64)),
        ("mean_queue_length", Value::Number(point.mean_queue_length)),
        ("cost", Value::Number(point.cost)),
    ])
}

fn provisioning_point_to_json(point: &ProvisioningPoint) -> Value {
    json::object([
        ("servers", Value::Number(point.servers as f64)),
        ("mean_queue_length", Value::Number(point.mean_queue_length)),
        ("mean_response_time", Value::Number(point.mean_response_time)),
    ])
}

fn sla_point_to_json(point: &SlaPoint) -> Value {
    json::object([
        ("servers", Value::Number(point.servers as f64)),
        ("mean_response_time", Value::Number(point.mean_response_time)),
        ("percentiles", json::number_array(&point.percentiles)),
    ])
}

fn mix_candidate_to_json(candidate: &MixCandidate) -> Value {
    json::object([
        (
            "counts",
            Value::Array(candidate.counts().iter().map(|&n| Value::Number(n as f64)).collect()),
        ),
        ("servers", Value::Number(candidate.servers() as f64)),
        ("mean_queue_length", Value::Number(candidate.mean_queue_length())),
        ("cost", Value::Number(candidate.cost())),
    ])
}

fn level_stats_to_json(stats: &CacheStats) -> Value {
    Value::Array(
        stats
            .levels
            .iter()
            .map(|level| {
                json::object([
                    ("level", Value::String(level.level.into())),
                    ("hits", Value::Number(level.hits as f64)),
                    ("misses", Value::Number(level.misses as f64)),
                    ("hit_rate", Value::Number(level.hit_rate())),
                    ("evictions", Value::Number(level.evictions as f64)),
                    ("mean_eviction_age", Value::Number(level.mean_eviction_age())),
                    ("oversized", Value::Number(level.oversized as f64)),
                    ("bytes", Value::Number(level.bytes as f64)),
                    ("budget_bytes", Value::Number(level.budget_bytes as f64)),
                ])
            })
            .collect(),
    )
}

impl QueryResult {
    /// Serialises the result for the JSON protocol.  Deterministic: object keys are
    /// ordered and numbers round-trip bit for bit, so equal results serialise to
    /// identical bytes.
    pub fn to_json(&self) -> Value {
        match self {
            QueryResult::Solution(s) => json::object([
                ("type", Value::String("solution".into())),
                ("servers", Value::Number(s.servers as f64)),
                ("arrival_rate", Value::Number(s.arrival_rate)),
                ("utilisation", Value::Number(s.utilisation)),
                ("mean_queue_length", Value::Number(s.mean_queue_length)),
                ("mean_response_time", Value::Number(s.mean_response_time)),
            ]),
            QueryResult::CostSweep(sweep) => json::object([
                ("type", Value::String("cost_sweep".into())),
                ("points", Value::Array(sweep.points().iter().map(cost_point_to_json).collect())),
                ("optimum", sweep.optimum().map_or(Value::Null, |p| cost_point_to_json(&p))),
            ]),
            QueryResult::Provisioning(sweep) => json::object([
                ("type", Value::String("provisioning".into())),
                (
                    "points",
                    Value::Array(sweep.points().iter().map(provisioning_point_to_json).collect()),
                ),
            ]),
            QueryResult::Percentiles(report) => json::object([
                ("type", Value::String("percentiles".into())),
                ("mean_response_time", Value::Number(report.mean_response_time)),
                ("fractions", json::number_array(&report.fractions)),
                ("percentiles", json::number_array(&report.percentiles)),
            ]),
            QueryResult::SlaSweep(points) => json::object([
                ("type", Value::String("sla_sweep".into())),
                ("points", Value::Array(points.iter().map(sla_point_to_json).collect())),
            ]),
            QueryResult::MixSearch(result) => json::object([
                ("type", Value::String("mix_search".into())),
                ("optimum", result.optimum().map_or(Value::Null, mix_candidate_to_json)),
                (
                    "ranked",
                    Value::Array(result.ranked().iter().map(mix_candidate_to_json).collect()),
                ),
                ("candidates", Value::Number(result.candidates() as f64)),
                ("screened", Value::Bool(result.was_screened())),
                ("skipped_unstable", Value::Number(result.skipped_unstable() as f64)),
                ("skipped_non_finite", Value::Number(result.skipped_non_finite() as f64)),
            ]),
            QueryResult::Stats(stats) => json::object([
                ("type", Value::String("stats".into())),
                ("levels", level_stats_to_json(&stats.cache)),
                ("total_hit_rate", Value::Number(stats.cache.total_hit_rate())),
                ("poison_recoveries", Value::Number(stats.cache.poison_recoveries as f64)),
                (
                    "occupancy",
                    json::object(
                        stats
                            .cache
                            .levels
                            .map(|level| (level.level, Value::Number(level.entries as f64))),
                    ),
                ),
            ]),
        }
    }
}

/// The standing query engine: one shared [`SolverCache`] of skeletons, one
/// [`ThreadPool`], and the grid executors behind every sweep in the crate.
///
/// The engine executes queries through exactly the same `exec` functions that the
/// legacy `CostSweep::evaluate_with` / `sweeps::*_with` wrappers call, so its
/// results are bit-identical to the batch API.  The queries of one
/// [`execute_batch`](Self::execute_batch) call share their solutions and absorption
/// chains (within 3 MiB); only skeletons outlive the call.  The engine is `Sync`:
/// each store is one lock-guarded LRU and the pool's scoped fan-outs are
/// index-deterministic, so concurrent callers sharing one engine observe the same
/// values a serial caller would.
#[derive(Debug)]
pub struct Engine {
    cache: Arc<SolverCache>,
    pool: ThreadPool,
    plans: PlanCounters,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with a fresh shared cache and the default pool (`URS_THREADS` or
    /// all cores).
    pub fn new() -> Self {
        Engine::with_parts(SolverCache::shared(), ThreadPool::default())
    }

    /// An engine over an existing cache and pool — the form `urs-server` uses so the
    /// cache outlives every request.
    pub fn with_parts(cache: Arc<SolverCache>, pool: ThreadPool) -> Self {
        Engine { cache, pool, plans: PlanCounters::default() }
    }

    /// The shared skeleton cache (alive across every query this engine answers).
    pub fn cache(&self) -> &Arc<SolverCache> {
        &self.cache
    }

    /// The worker pool queries fan out on.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Executes one query: a batch of one.
    ///
    /// # Errors
    ///
    /// Propagates model/solver errors (invalid ranges, instability, solver
    /// failures).  Errors are deterministic functions of the query and never poison
    /// the engine: subsequent queries are unaffected.
    pub fn execute(&self, query: &Query) -> Result<QueryResult> {
        self.execute_batch(std::slice::from_ref(query))
            .pop()
            .unwrap_or(Err(ModelError::Internal("a batch of one returned no result")))
    }

    /// Executes one query of a plan against the plan's `store`.
    fn run(&self, query: &Query, store: &PlanStore<'_>) -> Result<QueryResult> {
        match query {
            Query::Solve { config } => {
                let mut summaries =
                    exec::solve_grid(store, std::slice::from_ref(config), &self.pool)?;
                summaries.pop().map(QueryResult::Solution).ok_or(ModelError::Internal(
                    "solve_grid returned no summary for a one-point grid",
                ))
            }
            Query::CostSweep { config, cost, min_servers, max_servers } => {
                let counts = server_range(*min_servers, *max_servers)?;
                let points = exec::cost_sweep(store, config, cost, &counts, &self.pool)?;
                Ok(QueryResult::CostSweep(CostSweep::from_points(points)))
            }
            Query::Provisioning { config, min_servers, max_servers } => {
                let counts = server_range(*min_servers, *max_servers)?;
                let points = exec::provisioning_sweep(store, config, &counts, &self.pool)?;
                Ok(QueryResult::Provisioning(ProvisioningSweep::from_points(points)))
            }
            Query::Percentiles { config, fractions } => {
                let analysis = store.analysis(config, ResponseOptions::default())?;
                Ok(QueryResult::Percentiles(PercentileReport {
                    mean_response_time: analysis.mean_response_time(),
                    fractions: fractions.clone(),
                    percentiles: analysis.response_time_percentiles(fractions)?,
                }))
            }
            Query::SlaSweep { config, server_counts, fractions } => {
                let analyse =
                    |config: &SystemConfig| store.analysis(config, ResponseOptions::default());
                let points =
                    exec::sla_sweep(config, server_counts, fractions, analyse, &self.pool)?;
                Ok(QueryResult::SlaSweep(points))
            }
            Query::MixSearch { arrival_rate, classes, cost, bounds } => {
                let search =
                    MixSearch::new(*arrival_rate, classes.clone(), cost.clone(), bounds.clone())?
                        .with_cache(Arc::clone(&self.cache));
                Ok(QueryResult::MixSearch(search.run_with(&self.pool)?))
            }
            Query::Stats => {
                let [solutions, transforms] = self.plans.stats();
                let levels = [self.cache.stats(), solutions, transforms];
                let poison_recoveries = self.cache.poison_recoveries();
                Ok(QueryResult::Stats(EngineStats {
                    cache: CacheStats { levels, poison_recoveries },
                }))
            }
        }
    }

    /// Executes a batch: plans it with [`plan`], shares one pool fan-out across each
    /// group's plain solves and one store of solutions and chains across every
    /// query, and returns per-query results in submission order.
    ///
    /// Values are bit-identical to executing every query individually — batching
    /// changes scheduling, never results — and one failing query never disturbs its
    /// batch-mates (each gets its own `Result`).
    pub fn execute_batch(&self, queries: &[Query]) -> Vec<Result<QueryResult>> {
        let plan = plan(queries);
        let store = PlanStore::new(&self.cache, &self.plans);
        let mut slots: Vec<Option<Result<QueryResult>>> = queries.iter().map(|_| None).collect();
        for group in plan.groups() {
            // Batch the group's plain solves into one fan-out.
            let solve_indices: Vec<usize> = group
                .indices()
                .iter()
                .copied()
                .filter(|&i| matches!(queries.get(i), Some(Query::Solve { .. })))
                .collect();
            if solve_indices.len() > 1 {
                let configs: Vec<SystemConfig> = solve_indices
                    .iter()
                    .filter_map(|&i| match queries.get(i) {
                        Some(Query::Solve { config }) => Some(config.clone()),
                        _ => None,
                    })
                    .collect();
                match exec::solve_grid(&store, &configs, &self.pool) {
                    Ok(summaries) => {
                        for (&i, summary) in solve_indices.iter().zip(summaries) {
                            if let Some(slot) = slots.get_mut(i) {
                                *slot = Some(Ok(QueryResult::Solution(summary)));
                            }
                        }
                    }
                    Err(_) => {
                        // One bad config fails a fanned-out grid as a whole; fall back
                        // to per-query execution so its batch-mates still answer.
                        for &i in &solve_indices {
                            if let (Some(query), Some(slot)) = (queries.get(i), slots.get_mut(i)) {
                                *slot = Some(self.run(query, &store));
                            }
                        }
                    }
                }
            }
            for &i in group.indices() {
                if let (Some(query), Some(slot @ None)) = (queries.get(i), slots.get_mut(i)) {
                    *slot = Some(self.run(query, &store));
                }
            }
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.unwrap_or(Err(ModelError::Internal("query missed by the plan executor")))
            })
            .collect()
    }
}

/// The inclusive server range of a sweep query as an explicit grid.
fn server_range(min_servers: usize, max_servers: usize) -> Result<Vec<usize>> {
    if min_servers > max_servers {
        return Err(ModelError::InvalidParameter {
            name: "min_servers",
            value: min_servers as f64,
            constraint: "min_servers must not exceed max_servers",
        });
    }
    Ok((min_servers..=max_servers).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix_geometric::MatrixGeometricSolver;

    fn paper_config(servers: usize, lambda: f64) -> SystemConfig {
        SystemConfig::new(servers, lambda, 1.0, ServerLifecycle::paper_fitted().unwrap()).unwrap()
    }

    fn solve_line(servers: usize, lambda: f64) -> String {
        format!(
            "{{\"type\":\"solve\",\"config\":{{\"servers\":{servers},\"arrival_rate\":{lambda},\
             \"service_rate\":1.0,\"lifecycle\":\"paper\"}}}}"
        )
    }

    #[test]
    fn queries_round_trip_through_json() {
        let queries = vec![
            Query::Solve { config: paper_config(10, 8.0) },
            Query::CostSweep {
                config: paper_config(10, 8.0),
                cost: CostModel::new(4.0, 1.0).unwrap(),
                min_servers: 9,
                max_servers: 12,
            },
            Query::Provisioning { config: paper_config(10, 8.0), min_servers: 9, max_servers: 12 },
            Query::Percentiles { config: paper_config(4, 2.0), fractions: vec![0.9, 0.99] },
            Query::SlaSweep {
                config: paper_config(4, 2.0),
                server_counts: vec![4, 5],
                fractions: vec![0.95],
            },
            Query::MixSearch {
                arrival_rate: 2.0,
                classes: vec![
                    ServerClass::new(1, 1.0, ServerLifecycle::paper_fitted().unwrap()).unwrap(),
                    ServerClass::new(1, 2.0, ServerLifecycle::exponential(0.1, 1.0).unwrap())
                        .unwrap(),
                ],
                cost: ClassCostModel::new(4.0, vec![1.0, 2.5]).unwrap(),
                bounds: MixBounds::up_to(4).unwrap().with_budget(10.0).unwrap(),
            },
            Query::Stats,
        ];
        for query in queries {
            let line = query.to_json().serialise();
            let reparsed = Query::parse_line(&line).unwrap();
            assert_eq!(reparsed, query, "round trip changed the query: {line}");
            assert_eq!(
                reparsed.canonical_key().unwrap(),
                query.canonical_key().unwrap(),
                "round trip changed the canonical key"
            );
        }
    }

    #[test]
    fn sugar_lifecycles_parse() {
        let exp = Query::parse_line(
            "{\"type\":\"solve\",\"config\":{\"servers\":3,\"arrival_rate\":1.0,\
             \"service_rate\":1.0,\"lifecycle\":{\"breakdown_rate\":0.1,\"repair_rate\":2.0}}}",
        )
        .unwrap();
        let Query::Solve { config } = &exp else { panic!("expected solve") };
        assert_eq!(config.lifecycle(), &ServerLifecycle::exponential(0.1, 2.0).unwrap());

        let hyper = Query::parse_line(
            "{\"type\":\"solve\",\"config\":{\"servers\":3,\"arrival_rate\":1.0,\
             \"service_rate\":1.0,\"lifecycle\":{\"operative_mean\":34.62,\
             \"operative_scv\":4.6,\"repair_rate\":0.2}}}",
        )
        .unwrap();
        let Query::Solve { config } = &hyper else { panic!("expected solve") };
        let expected = ServerLifecycle::with_exponential_repair(
            HyperExponential::with_mean_and_scv(34.62, 4.6).unwrap(),
            0.2,
        )
        .unwrap();
        assert_eq!(config.lifecycle(), &expected);
    }

    #[test]
    fn malformed_queries_error_without_panicking() {
        let lines = [
            "",
            "not json",
            "42",
            "{}",
            "{\"type\":\"teleport\"}",
            "{\"type\":\"solve\"}",
            "{\"type\":\"solve\",\"config\":{}}",
            "{\"type\":\"solve\",\"config\":{\"servers\":0,\"arrival_rate\":1.0,\
             \"service_rate\":1.0,\"lifecycle\":\"paper\"}}",
            "{\"type\":\"solve\",\"config\":{\"servers\":2,\"arrival_rate\":-1.0,\
             \"service_rate\":1.0,\"lifecycle\":\"paper\"}}",
            "{\"type\":\"percentiles\",\"config\":{\"servers\":2,\"arrival_rate\":1.0,\
             \"service_rate\":1.0,\"lifecycle\":\"paper\"},\"fractions\":[\"p99\"]}",
            "{\"type\":\"cost_sweep\",\"config\":{\"servers\":2,\"arrival_rate\":1.0,\
             \"service_rate\":1.0,\"lifecycle\":\"paper\"},\"holding_cost\":1.0}",
        ];
        for line in lines {
            assert!(Query::parse_line(line).is_err(), "accepted malformed line: {line}");
        }
    }

    #[test]
    fn equivalent_queries_share_a_canonical_key_and_distinct_ones_do_not() {
        let a = Query::parse_line(&solve_line(10, 8.0)).unwrap();
        let b = Query::parse_line(
            "{\"type\":\"solve\",\"config\":{\"servers\":10,\"service_rate\":1.0,\
             \"arrival_rate\":8.0,\"lifecycle\":\"paper\"}}",
        )
        .unwrap();
        assert_eq!(a.canonical_key().unwrap(), b.canonical_key().unwrap());
        let c = Query::parse_line(&solve_line(10, 8.5)).unwrap();
        assert_ne!(a.canonical_key().unwrap(), c.canonical_key().unwrap());
    }

    #[test]
    fn plans_group_by_skeleton_in_first_appearance_order() {
        let queries = vec![
            Query::Solve { config: paper_config(10, 8.0) },
            Query::Solve { config: paper_config(4, 2.0) },
            // Same skeleton as the first query: same classes, different λ only.
            Query::Solve { config: paper_config(10, 7.0) },
            Query::Stats,
            Query::Provisioning { config: paper_config(10, 8.0), min_servers: 9, max_servers: 11 },
        ];
        let plan = plan(&queries);
        let indices: Vec<&[usize]> = plan.groups().iter().map(PlanGroup::indices).collect();
        assert_eq!(indices, vec![&[0, 2, 4][..], &[1][..], &[3][..]]);
        assert!(plan.groups()[0].skeleton_digest().is_some());
        assert!(plan.groups()[2].skeleton_digest().is_none());
    }

    #[test]
    fn batched_execution_matches_individual_execution_bit_for_bit() {
        let engine = Engine::with_parts(SolverCache::shared(), ThreadPool::serial());
        let queries = vec![
            Query::Solve { config: paper_config(10, 8.0) },
            Query::Solve { config: paper_config(10, 7.0) },
            Query::Stats,
            Query::Solve { config: paper_config(4, 2.0) },
        ];
        let batched = engine.execute_batch(&queries);
        // A fresh engine so the cache history cannot leak between the two runs.
        let serial_engine = Engine::with_parts(SolverCache::shared(), ThreadPool::serial());
        for (query, batched) in queries.iter().zip(&batched) {
            let individual = serial_engine.execute(query).unwrap();
            let batched = batched.as_ref().unwrap();
            if matches!(query, Query::Stats) {
                continue; // counters differ by construction; excluded from the contract
            }
            assert_eq!(
                batched.to_json().serialise(),
                individual.to_json().serialise(),
                "batched result diverged for {query:?}"
            );
        }
    }

    #[test]
    fn one_failing_query_does_not_disturb_its_batch_mates() {
        let engine = Engine::with_parts(SolverCache::shared(), ThreadPool::serial());
        // λ = 12 over at most 10·(η/(ξ+η)) < 10 effective servers: unstable.
        let queries = vec![
            Query::Solve { config: paper_config(10, 8.0) },
            Query::Solve { config: paper_config(10, 12.0) },
            Query::Solve { config: paper_config(10, 7.0) },
        ];
        let results = engine.execute_batch(&queries);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
    }

    #[test]
    fn engine_results_match_the_legacy_batch_api() {
        let engine = Engine::with_parts(SolverCache::shared(), ThreadPool::serial());
        let config = paper_config(10, 8.0);
        let cost = CostModel::new(4.0, 1.0).unwrap();

        let engine_sweep = engine
            .execute(&Query::CostSweep {
                config: config.clone(),
                cost,
                min_servers: 9,
                max_servers: 12,
            })
            .unwrap();
        let legacy = CostSweep::evaluate_with(
            &MatrixGeometricSolver::default(),
            &config,
            &cost,
            9..=12,
            &ThreadPool::serial(),
        )
        .unwrap();
        let QueryResult::CostSweep(engine_sweep) = engine_sweep else {
            panic!("expected a cost sweep result")
        };
        assert_eq!(engine_sweep.points().len(), legacy.points().len());
        for (a, b) in engine_sweep.points().iter().zip(legacy.points()) {
            assert_eq!(a.servers, b.servers);
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
            assert_eq!(a.mean_queue_length.to_bits(), b.mean_queue_length.to_bits());
        }

        let QueryResult::Solution(summary) =
            engine.execute(&Query::Solve { config: config.clone() }).unwrap()
        else {
            panic!("expected a solution")
        };
        let direct = MatrixGeometricSolver::default().solve_detailed(&config).unwrap();
        let direct = crate::solution::QueueSolution::mean_queue_length(&direct);
        assert_eq!(summary.mean_queue_length.to_bits(), direct.to_bits());
    }

    #[test]
    fn stats_query_reports_the_shared_cache() {
        let engine = Engine::new();
        engine.execute(&Query::Solve { config: paper_config(4, 2.0) }).unwrap();
        let QueryResult::Stats(stats) = engine.execute(&Query::Stats).unwrap() else {
            panic!("expected stats")
        };
        let entries: u64 = stats.cache.levels.iter().map(|level| level.entries).sum();
        assert!(entries > 0, "solve should have populated the cache");
        let rendered = QueryResult::Stats(stats).to_json().serialise();
        assert!(rendered.contains("\"total_hit_rate\""));
        assert!(rendered.contains("\"poison_recoveries\""));
        let value = Value::parse(&rendered).unwrap();
        let levels = value.get("levels").and_then(Value::as_array).unwrap();
        let field = |level: usize, name: &str| {
            levels.get(level).and_then(|level| level.get(name)).and_then(Value::as_f64).unwrap()
        };
        for level in 0..3 {
            assert!(field(level, "bytes") <= field(level, "budget_bytes"), "{rendered}");
        }
        // The skeleton stays cached; the plan's solution was counted and dropped.
        assert!(field(0, "bytes") > 0.0);
        assert_eq!(field(0, "budget_bytes"), crate::CACHE_BYTES as f64);
        assert_eq!((field(1, "misses"), field(1, "bytes")), (1.0, 0.0));
        assert_eq!(field(1, "budget_bytes"), (3 << 20) as f64);
    }

    #[test]
    fn a_plan_shares_results_between_its_queries_and_drops_them_after() {
        // A planning session on one fleet needs three solutions (N − 1, N, N + 1) and
        // two chains (N, N + 1) between its five queries.
        let config = paper_config(5, 3.0);
        let session = vec![
            Query::Solve { config: config.clone() },
            Query::CostSweep {
                config: config.clone(),
                cost: CostModel::new(4.0, 1.0).unwrap(),
                min_servers: 4,
                max_servers: 6,
            },
            Query::Provisioning { config: config.clone(), min_servers: 4, max_servers: 6 },
            Query::Percentiles { config: config.clone(), fractions: vec![0.9, 0.99] },
            Query::SlaSweep { config, server_counts: vec![5, 6], fractions: vec![0.95] },
        ];
        let engine = Engine::with_parts(SolverCache::shared(), ThreadPool::serial());
        let answer = || -> Vec<String> {
            let results = engine.execute_batch(&session);
            results.into_iter().map(|result| result.unwrap().to_json().serialise()).collect()
        };
        let levels = |engine: &Engine| {
            let Ok(QueryResult::Stats(stats)) = engine.execute(&Query::Stats) else {
                panic!("expected stats")
            };
            stats.cache.levels
        };
        let misses = |engine: &Engine| {
            let [_, solutions, chains] = levels(engine);
            (solutions.misses, chains.misses)
        };
        let first = answer();
        assert_eq!(misses(&engine), (3, 2));
        // Nothing outlives the plan: the same batch misses again, with the same bytes.
        let second = answer();
        assert_eq!(misses(&engine), (6, 4));
        assert_eq!(first, second);
        let [_, solutions, chains] = levels(&engine);
        assert_eq!([solutions.entries, solutions.bytes, chains.entries, chains.bytes], [0; 4]);
    }

    #[test]
    fn a_query_computes_each_entry_once_even_when_the_cache_keeps_nothing() {
        // With a zero budget nothing is stored, so a second lookup of anything the
        // query computed would miss again: the engine must hold its handles.
        let engine =
            Engine::with_parts(Arc::new(SolverCache::with_byte_budget(0)), ThreadPool::serial());
        let query = Query::Percentiles { config: paper_config(4, 2.0), fractions: vec![0.5, 0.9] };
        let QueryResult::Percentiles(report) = engine.execute(&query).unwrap() else {
            panic!("expected percentiles")
        };
        let QueryResult::Stats(stats) = engine.execute(&Query::Stats).unwrap() else {
            panic!("expected stats")
        };
        let levels = stats.cache.levels.map(|level| (level.misses, level.hits));
        assert_eq!(levels, [(1, 0); 3], "{stats:?}");
        assert!(engine.cache().is_empty());
        // The answer is the one a default cache gives.
        let QueryResult::Percentiles(reference) = Engine::new().execute(&query).unwrap() else {
            panic!("expected percentiles")
        };
        assert_eq!(report, reference);
    }

    #[test]
    fn canonical_keys_carry_the_full_words() {
        let a = Query::Solve { config: paper_config(4, 2.0) };
        let b = Query::Solve { config: paper_config(4, 2.5) };
        let (key_a, key_b) = (a.canonical_key().unwrap(), b.canonical_key().unwrap());
        // Same length (same skeleton), different final word: the arrival rate.
        assert_eq!(key_a.words.len(), key_b.words.len());
        assert_eq!(key_a.words.last(), Some(&2.0f64.to_bits()));
        assert_eq!(key_a.heap_bytes(), 8 * key_a.words.len());
        // Equal digests never make distinct keys equal.
        let forged = QueryKey::with_digest(key_b.words.clone(), key_a.digest());
        assert_ne!(forged, key_a);
    }
}
