//! Deterministic workload generation.
//!
//! Every workload is a closed loop: each connection sends a *group* of lines (one
//! line, or a pipelined planning session), waits for every answer, then sends the
//! next group.  Groups come in *rounds* whose composition is fixed — only the
//! parameters (arrival rates, breakdown rates, order, which earlier session a
//! repeat copies) are drawn from the seed — so a run that completes whole rounds
//! always carries the same query mix.  The server sees only the generated lines.

use urs_core::ServerLifecycle;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two connections, one line at a time; every query distinct and on a fresh
    /// skeleton, so every cache level and the response memo see only misses.
    ColdDistinct,
    /// Two connections, each pipelining planning sessions over a small fixed set
    /// of skeletons; a quarter of the sessions repeat an earlier one exactly.
    PlannerSessions,
    /// One connection; large paper-lifecycle fleets plus a screened mix search.
    LargeFleet,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] =
        [Workload::ColdDistinct, Workload::PlannerSessions, Workload::LargeFleet];

    /// Looks a workload up by its benchmark name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdDistinct => "cold-distinct",
            Workload::PlannerSessions => "planner-sessions",
            Workload::LargeFleet => "large-fleet",
        }
    }

    /// Concurrent client connections (at most `nproc` = 2).
    pub fn connections(self) -> usize {
        match self {
            Workload::ColdDistinct | Workload::PlannerSessions => 2,
            Workload::LargeFleet => 1,
        }
    }

    /// The fleet sizes the workload's queries solve, ascending; the traced run times
    /// the solver stages at the largest.
    pub fn fleet_sizes(self) -> Vec<usize> {
        match self {
            Workload::ColdDistinct => (3..=6).collect(),
            Workload::PlannerSessions => (2..=5).collect(),
            Workload::LargeFleet => vec![12, 13, 14, 15, 16, 18, 20],
        }
    }

    /// The fleet size at which the traced run times the response-time analysis:
    /// the largest percentile query of the workload (`large-fleet` asks none; its
    /// row uses N = 6, as a certified P99 at N = 12 already takes about a second).
    pub fn response_fleet(self) -> usize {
        match self {
            Workload::ColdDistinct => 4,
            Workload::PlannerSessions => 5,
            Workload::LargeFleet => 6,
        }
    }

    /// The generator of one connection's request stream.
    pub fn stream(self, seed: u64, connection: usize) -> Stream {
        let tag = match self {
            Workload::ColdDistinct => 1,
            Workload::PlannerSessions => 2,
            Workload::LargeFleet => 3,
        };
        Stream {
            workload: self,
            rng: Rng::new(seed, tag * 1_000 + connection as u64),
            issued: 0,
            sessions: Vec::new(),
        }
    }
}

/// One request line.  `repeat_of` is the position, in the same connection's
/// stream, of the earlier request whose exact bytes this line repeats.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The protocol line, without its newline.
    pub line: String,
    /// The request this one repeats verbatim, if any.
    pub repeat_of: Option<usize>,
}

/// Requests written together; the next group is sent once all are answered.
pub type Group = Vec<Request>;

/// One connection's request stream, generated a round at a time.
#[derive(Debug)]
pub struct Stream {
    workload: Workload,
    rng: Rng,
    /// Requests generated so far (the position of the next one).
    issued: usize,
    /// Planner sessions generated so far: position of the first line, and the lines.
    sessions: Vec<(usize, Vec<String>)>,
}

impl Stream {
    /// The next round of groups.  Rounds must be consumed in order and whole: a
    /// request's position in the stream is its index among all requests generated.
    pub fn next_round(&mut self) -> Vec<Group> {
        let groups = match self.workload {
            Workload::ColdDistinct => self.cold_round(),
            Workload::PlannerSessions => self.planner_round(),
            Workload::LargeFleet => self.large_round(),
        };
        self.issued += groups.iter().map(Vec::len).sum::<usize>();
        groups
    }

    /// Seventeen single-line groups with the `serving_throughput` type mix: thirteen
    /// solves at N = 3..6, then a cost sweep, a provisioning sweep, percentiles and
    /// an SLA sweep.  Each line gets its own continuously drawn lifecycle, so no two
    /// queries share a skeleton.  The shuffle fixes the order, not the mix.
    fn cold_round(&mut self) -> Vec<Group> {
        let mut lines = Vec::with_capacity(17);
        for slot in 0..17 {
            // Percentile slots stay on exponential lifecycles: with the long, rare
            // outages of the hyperexponential form, the two certified inversions can
            // disagree at P95 and the server (rightly) answers with an error.
            let lifecycle = if slot % 2 == 0 || slot >= 15 {
                Lifecycle::Exponential {
                    breakdown: self.rng.uniform(0.02, 0.3),
                    repair: self.rng.uniform(0.5, 3.0),
                }
            } else {
                Lifecycle::Hyper {
                    mean: self.rng.uniform(20.0, 50.0),
                    scv: self.rng.uniform(2.0, 6.0),
                    repair: self.rng.uniform(0.1, 0.5),
                }
            };
            let rho = self.rng.uniform(0.5, 0.85);
            let line = match slot {
                13 => cost_sweep_line(&config(4, lifecycle.arrival_rate(3, rho), &lifecycle), 3, 5),
                14 => {
                    provisioning_line(&config(4, lifecycle.arrival_rate(3, rho), &lifecycle), 3, 5)
                }
                15 => percentiles_line(
                    &config(3, lifecycle.arrival_rate(3, rho), &lifecycle),
                    "[0.5,0.95]",
                ),
                16 => sla_line(
                    &config(3, lifecycle.arrival_rate(3, rho), &lifecycle),
                    "[3,4]",
                    "[0.9]",
                ),
                _ => {
                    let servers = 3 + slot % 4;
                    solve_line(&config(servers, lifecycle.arrival_rate(servers, rho), &lifecycle))
                }
            };
            lines.push(line);
        }
        self.rng.shuffle(&mut lines);
        lines.into_iter().map(|line| vec![Request { line, repeat_of: None }]).collect()
    }

    /// Eight pipelined sessions: each of the six skeletons (three lifecycles at
    /// N ∈ {3, 4}) once with a fresh arrival rate, plus two exact repeats of earlier
    /// sessions of this connection at random slots.
    fn planner_round(&mut self) -> Vec<Group> {
        let lifecycles = [
            Lifecycle::Paper,
            Lifecycle::Exponential { breakdown: 0.1, repair: 2.0 },
            Lifecycle::Hyper { mean: 34.62, scv: 4.6, repair: 0.2 },
        ];
        let mut fresh: Vec<(Lifecycle, usize)> = lifecycles
            .iter()
            .flat_map(|lifecycle| [3, 4].map(|servers| (lifecycle.clone(), servers)))
            .collect();
        self.rng.shuffle(&mut fresh);
        // Two distinct repeat slots out of 1..8, so each round's first session is
        // fresh and every repeat has an earlier session to copy.
        let first_repeat = 1 + self.rng.below(7);
        let second_repeat = loop {
            let slot = 1 + self.rng.below(7);
            if slot != first_repeat {
                break slot;
            }
        };
        let mut fresh = fresh.into_iter();
        let mut position = self.issued;
        let mut groups = Vec::with_capacity(8);
        for slot in 0..8 {
            let group = if slot == first_repeat || slot == second_repeat {
                let (first, lines) = self.sessions[self.rng.below(self.sessions.len())].clone();
                lines
                    .into_iter()
                    .enumerate()
                    .map(|(k, line)| Request { line, repeat_of: Some(first + k) })
                    .collect()
            } else {
                let Some((lifecycle, servers)) = fresh.next() else { break };
                let rho = self.rng.uniform(0.45, 0.8);
                let base = config(servers, lifecycle.arrival_rate(servers - 1, rho), &lifecycle);
                let counts = format!("[{servers},{}]", servers + 1);
                let lines = vec![
                    solve_line(&base),
                    cost_sweep_line(&base, servers - 1, servers + 1),
                    provisioning_line(&base, servers - 1, servers + 1),
                    percentiles_line(&base, "[0.9,0.99]"),
                    sla_line(&base, &counts, "[0.95]"),
                ];
                self.sessions.push((position, lines.clone()));
                lines.into_iter().map(|line| Request { line, repeat_of: None }).collect::<Group>()
            };
            position += group.len();
            groups.push(group);
        }
        groups
    }

    /// Twenty-two single-line groups on the paper lifecycle at utilisation 0.6–0.8:
    /// nineteen solves at N = 12..20 (more of the cheaper sizes, so a run holds
    /// enough requests to support its p90), two two-point provisioning sweeps, and
    /// one mix search over 329 compositions of four classes (more than the
    /// exhaustive limit of 256, so the response reports `"screened": true`).
    fn large_round(&mut self) -> Vec<Group> {
        const SOLVE_SIZES: [usize; 19] =
            [12, 12, 12, 12, 12, 12, 13, 13, 13, 13, 14, 14, 14, 15, 15, 16, 16, 18, 20];
        let paper = Lifecycle::Paper;
        let mut lines = Vec::with_capacity(SOLVE_SIZES.len() + 3);
        for servers in SOLVE_SIZES {
            let rho = self.rng.uniform(0.6, 0.8);
            lines.push(solve_line(&config(servers, paper.arrival_rate(servers, rho), &paper)));
        }
        for servers in [12, 14] {
            let rho = self.rng.uniform(0.6, 0.8);
            let base = config(servers, paper.arrival_rate(servers, rho), &paper);
            lines.push(provisioning_line(&base, servers, servers + 1));
        }
        lines.push(mix_search_line(self.rng.uniform(3.5, 4.5)));
        self.rng.shuffle(&mut lines);
        lines.into_iter().map(|line| vec![Request { line, repeat_of: None }]).collect()
    }
}

/// A server lifecycle in one of the protocol's sugar forms.
#[derive(Debug, Clone)]
enum Lifecycle {
    Paper,
    Exponential { breakdown: f64, repair: f64 },
    Hyper { mean: f64, scv: f64, repair: f64 },
}

impl Lifecycle {
    fn json(&self) -> String {
        match self {
            Lifecycle::Paper => "\"paper\"".to_string(),
            Lifecycle::Exponential { breakdown, repair } => {
                format!("{{\"breakdown_rate\":{breakdown},\"repair_rate\":{repair}}}")
            }
            Lifecycle::Hyper { mean, scv, repair } => format!(
                "{{\"operative_mean\":{mean},\"operative_scv\":{scv},\"repair_rate\":{repair}}}"
            ),
        }
    }

    /// Long-run share of time a server is operative.
    fn availability(&self) -> f64 {
        match self {
            Lifecycle::Paper => ServerLifecycle::paper_fitted()
                .expect("the paper's fitted lifecycle is a valid constant")
                .availability(),
            Lifecycle::Exponential { breakdown, repair } => repair / (breakdown + repair),
            Lifecycle::Hyper { mean, repair, .. } => mean / (mean + 1.0 / repair),
        }
    }

    /// The arrival rate putting `servers` unit-rate servers at utilisation `rho`.
    fn arrival_rate(&self, servers: usize, rho: f64) -> f64 {
        rho * servers as f64 * self.availability()
    }
}

fn config(servers: usize, arrival_rate: f64, lifecycle: &Lifecycle) -> String {
    format!(
        "{{\"servers\":{servers},\"arrival_rate\":{arrival_rate},\"service_rate\":1.0,\
         \"lifecycle\":{}}}",
        lifecycle.json()
    )
}

fn solve_line(config: &str) -> String {
    format!("{{\"type\":\"solve\",\"config\":{config}}}")
}

fn cost_sweep_line(config: &str, min: usize, max: usize) -> String {
    format!(
        "{{\"type\":\"cost_sweep\",\"config\":{config},\"holding_cost\":4.0,\"server_cost\":1.0,\
         \"min_servers\":{min},\"max_servers\":{max}}}"
    )
}

fn provisioning_line(config: &str, min: usize, max: usize) -> String {
    format!(
        "{{\"type\":\"provisioning\",\"config\":{config},\"min_servers\":{min},\
         \"max_servers\":{max}}}"
    )
}

fn percentiles_line(config: &str, fractions: &str) -> String {
    format!("{{\"type\":\"percentiles\",\"config\":{config},\"fractions\":{fractions}}}")
}

fn sla_line(config: &str, counts: &str, fractions: &str) -> String {
    format!(
        "{{\"type\":\"sla_sweep\",\"config\":{config},\"server_counts\":{counts},\
         \"fractions\":{fractions}}}"
    )
}

/// The `large-fleet` mix search: four exponential-lifecycle classes, at most
/// seven servers, 329 compositions.
pub fn mix_search_line(arrival_rate: f64) -> String {
    let classes: Vec<String> = (0..4)
        .map(|j| {
            let j = f64::from(j);
            format!(
                "{{\"service_rate\":{},\"cost\":{},\"lifecycle\":{{\"breakdown_rate\":{},\
                 \"repair_rate\":1.0}}}}",
                1.0 + 0.3 * j,
                1.0 + 0.4 * j,
                0.05 + 0.05 * j
            )
        })
        .collect();
    format!(
        "{{\"type\":\"mix_search\",\"arrival_rate\":{arrival_rate},\"holding_cost\":4.0,\
         \"classes\":[{}],\"max_servers\":7}}",
        classes.join(",")
    )
}

/// SplitMix64: a tiny, well-mixed generator whose output depends only on the seed.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform on `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// Uniform on `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urs_core::engine::Query;

    fn rounds(workload: Workload, seed: u64, connection: usize, count: usize) -> Vec<Vec<Group>> {
        let mut stream = workload.stream(seed, connection);
        (0..count).map(|_| stream.next_round()).collect()
    }

    #[test]
    fn the_same_seed_generates_the_same_stream() {
        for workload in Workload::ALL {
            for connection in 0..workload.connections() {
                assert_eq!(rounds(workload, 7, connection, 3), rounds(workload, 7, connection, 3));
            }
        }
    }

    #[test]
    fn another_seed_or_connection_generates_another_stream() {
        for workload in Workload::ALL {
            assert_ne!(rounds(workload, 7, 0, 2), rounds(workload, 8, 0, 2));
            if workload.connections() > 1 {
                assert_ne!(rounds(workload, 7, 0, 2), rounds(workload, 7, 1, 2));
            }
        }
    }

    #[test]
    fn every_generated_line_parses() {
        for workload in Workload::ALL {
            for group in rounds(workload, 3, 0, 4).concat() {
                for request in group {
                    Query::parse_line(&request.line).expect("generated lines are valid");
                }
            }
        }
    }

    #[test]
    fn cold_distinct_lines_are_all_distinct() {
        let mut lines: Vec<String> = (0..2)
            .flat_map(|c| rounds(Workload::ColdDistinct, 11, c, 5).concat())
            .flatten()
            .map(|r| r.line)
            .collect();
        let total = lines.len();
        lines.sort();
        lines.dedup();
        assert_eq!(lines.len(), total);
    }

    #[test]
    fn planner_repeats_copy_earlier_lines_of_the_same_connection() {
        let flat: Vec<Request> =
            rounds(Workload::PlannerSessions, 5, 1, 3).concat().into_iter().flatten().collect();
        let repeats = flat.iter().filter(|r| r.repeat_of.is_some()).count();
        // Two of every eight sessions are repeats.
        assert_eq!(repeats * 4, flat.len());
        for (position, request) in flat.iter().enumerate() {
            if let Some(original) = request.repeat_of {
                assert!(original < position);
                assert_eq!(flat[original].line, request.line);
                assert!(flat[original].repeat_of.is_none());
            }
        }
    }
}
