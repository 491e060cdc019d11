//! Integration tests of the cost-aware fleet-mix optimisation: the search must agree
//! with brute-force enumeration, the bound-pruned path must agree with the all-exact
//! path, adding a server must lower the queue, and the cost/provisioning sweeps must
//! handle heterogeneous base configurations by uniform scaling.

use std::sync::Arc;

use urs_core::{
    ClassCostModel, CostModel, CostSweep, MatrixGeometricSolver, MixBounds, MixSearch,
    MixSearchOptions, MixSearchResult, ProvisioningSweep, QueueSolver, ServerClass,
    ServerLifecycle, SolverCache, SpectralExpansionSolver, SystemConfig,
};

fn fast_class() -> ServerClass {
    ServerClass::new(1, 1.5, ServerLifecycle::exponential(0.1, 2.0).unwrap()).unwrap()
}

fn steady_class() -> ServerClass {
    ServerClass::new(1, 1.0, ServerLifecycle::exponential(0.01, 5.0).unwrap()).unwrap()
}

fn two_class_search(arrival_rate: f64, max_servers: usize) -> MixSearch {
    MixSearch::new(
        arrival_rate,
        vec![fast_class(), steady_class()],
        ClassCostModel::new(4.0, vec![1.4, 1.0]).unwrap(),
        MixBounds::up_to(max_servers).unwrap(),
    )
    .unwrap()
}

/// Brute force reference: solve every feasible composition exactly with a fresh
/// solver of the search's own exact method and pick the minimum by (cost, fleet
/// size, lexicographic counts).
fn brute_force_optimum(search: &MixSearch) -> (Vec<usize>, f64) {
    let solver = MatrixGeometricSolver::default();
    let mut best: Option<(Vec<usize>, f64, usize)> = None;
    for counts in search.candidate_mixes().unwrap() {
        let config = search.config(&counts).unwrap();
        if !config.is_stable() {
            continue;
        }
        let l = solver.solve(&config).unwrap().mean_queue_length();
        let cost = search.cost_model().evaluate(l, &counts);
        if !cost.is_finite() {
            continue;
        }
        let servers = counts.iter().sum::<usize>();
        let better = match &best {
            None => true,
            Some((best_counts, best_cost, best_servers)) => match cost.total_cmp(best_cost) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => (servers, &counts) < (*best_servers, best_counts),
            },
        };
        if better {
            best = Some((counts, cost, servers));
        }
    }
    let (counts, cost, _) = best.expect("some composition is stable");
    (counts, cost)
}

#[test]
fn search_matches_brute_force_enumeration() {
    let search = two_class_search(2.5, 6);
    let (expected_counts, expected_cost) = brute_force_optimum(&search);

    let result = search.run().unwrap();
    assert!(!result.was_screened(), "27 candidates fall under the exhaustive limit");
    let best = result.optimum().expect("a stable mix exists");
    assert_eq!(best.counts(), expected_counts.as_slice());
    assert_eq!(best.cost().to_bits(), expected_cost.to_bits(), "exact solves must agree bitwise");

    // The forced all-exact entry point is the same computation.
    let exhaustive = search.run_exhaustive().unwrap();
    assert_eq!(exhaustive.optimum(), result.optimum());
}

/// Runs the search with pruning forced on and a fresh cache, returning the result
/// and the number of exact solves it made: each composition has its own skeleton,
/// looked up once per solve, so the skeleton misses count the solves when nothing
/// hit.
fn run_pruned(search: MixSearch) -> (MixSearchResult, u64) {
    let cache = SolverCache::shared();
    let options = MixSearchOptions { exhaustive_limit: 0, ..Default::default() };
    let result = search.with_cache(Arc::clone(&cache)).with_options(options).run().unwrap();
    assert!(result.was_screened());
    let skeletons = cache.stats();
    assert_eq!(skeletons.hits, 0, "every solve builds its own composition's skeleton");
    (result, skeletons.misses)
}

#[test]
fn pruned_path_matches_the_exhaustive_path_for_either_sign_of_holding_cost() {
    // `Debug` prints every f64 in its shortest round-trip form, so equal strings mean
    // equal bits.
    let search = two_class_search(2.5, 6);
    let exact = search.run_exhaustive().unwrap();
    let stable = (exact.candidates() - exact.skipped_unstable()) as u64;
    let (pruned, solves) = run_pruned(search.clone());
    assert!(solves < stable, "the bound must rule out some of {stable} candidates");
    assert_eq!(format!("{:?}", pruned.optimum()), format!("{:?}", exact.optimum()));

    // With c₁ < 0 a lower bound on L bounds nothing: every stable candidate is
    // solved and the result is the exhaustive one.
    let classes = search.classes().to_vec();
    let cost = ClassCostModel::new(-0.5, vec![1.4, 1.0]).unwrap();
    let search = MixSearch::new(2.5, classes, cost, MixBounds::up_to(6).unwrap()).unwrap();
    let exact = search.run_exhaustive().unwrap();
    let (pruned, solves) = run_pruned(search);
    assert_eq!(solves, stable);
    assert_eq!(format!("{:?}", pruned.ranked()), format!("{:?}", exact.ranked()));
    assert_eq!(pruned.ranked().len() as u64, stable);
    let counters = |r: &MixSearchResult| {
        (r.candidates(), r.skipped_unstable(), r.skipped_non_finite(), r.dropped_failures())
    };
    assert_eq!(counters(&pruned), counters(&exact));
}

#[test]
fn adding_a_server_strictly_lowers_the_queue() {
    // The four `large-fleet` classes and a paper-lifecycle class at µ = 0.8: from
    // every stable composition of at most four servers, one more server of any
    // class must lower L.
    let mut classes: Vec<ServerClass> = (0..4)
        .map(|j| {
            let j = f64::from(j);
            let lifecycle = ServerLifecycle::exponential(0.05 + 0.05 * j, 1.0).unwrap();
            ServerClass::new(1, 1.0 + 0.3 * j, lifecycle).unwrap()
        })
        .collect();
    classes.push(ServerClass::new(1, 0.8, ServerLifecycle::paper_fitted().unwrap()).unwrap());
    let solver = MatrixGeometricSolver::default().with_cache(SolverCache::shared());
    let (mut pairs, mut smallest_drop) = (0, f64::INFINITY);
    for arrival_rate in [2.0, 3.5, 4.5] {
        let search = MixSearch::new(
            arrival_rate,
            classes.clone(),
            ClassCostModel::new(1.0, vec![1.0; classes.len()]).unwrap(),
            MixBounds::up_to(4).unwrap(),
        )
        .unwrap();
        let l = |counts: &[usize]| {
            solver.solve(&search.config(counts).unwrap()).unwrap().mean_queue_length()
        };
        for counts in search.candidate_mixes().unwrap() {
            if !search.config(&counts).unwrap().is_stable() {
                continue;
            }
            for class in 0..classes.len() {
                let mut larger = counts.clone();
                larger[class] += 1;
                let (before, after) = (l(&counts), l(&larger));
                assert!(after < before, "λ = {arrival_rate}: {larger:?} {after} vs {counts:?}");
                smallest_drop = smallest_drop.min(1.0 - after / before);
                pairs += 1;
            }
        }
    }
    println!("{pairs} pairs, smallest relative drop {smallest_drop:.4}");
    assert_eq!(pairs, 1240);
}

#[test]
fn budget_bound_constrains_the_optimum() {
    let unbounded = two_class_search(2.5, 6).run().unwrap();
    let unbounded_best = unbounded.optimum().unwrap();
    let fleet_cost =
        ClassCostModel::new(4.0, vec![1.4, 1.0]).unwrap().fleet_cost(unbounded_best.counts());

    // A budget just below the unbounded winner's hardware cost forces a different,
    // costlier-overall composition.
    let budget = fleet_cost - 0.05;
    let bounded = MixSearch::new(
        2.5,
        vec![fast_class(), steady_class()],
        ClassCostModel::new(4.0, vec![1.4, 1.0]).unwrap(),
        MixBounds::up_to(6).unwrap().with_budget(budget).unwrap(),
    )
    .unwrap()
    .run()
    .unwrap();
    let bounded_best = bounded.optimum().expect("a within-budget mix is still stable");
    assert!(
        ClassCostModel::new(4.0, vec![1.4, 1.0]).unwrap().fleet_cost(bounded_best.counts())
            <= budget
    );
    assert_ne!(bounded_best.counts(), unbounded_best.counts());
    assert!(bounded_best.cost() >= unbounded_best.cost());
}

#[test]
fn heterogeneous_cost_sweep_scales_the_mix_uniformly() {
    // A 1:2 fast:steady mix costed over total fleet sizes — the sweep must succeed
    // (it used to error out on any heterogeneous configuration) and every point must
    // equal a by-hand solve of the uniformly scaled mix.
    let base = SystemConfig::heterogeneous(
        3.0,
        vec![fast_class().with_count(1).unwrap(), steady_class().with_count(2).unwrap()],
    )
    .unwrap();
    let solver = SpectralExpansionSolver::default();
    let sweep = CostSweep::evaluate(&solver, &base, &CostModel::paper_figure5(), 4..=8).unwrap();
    assert!(!sweep.points().is_empty());
    for point in sweep.points() {
        let scaled = base.with_total_servers(point.servers).unwrap();
        assert_eq!(scaled.servers(), point.servers);
        let l = solver.solve(&scaled).unwrap().mean_queue_length();
        assert_eq!(point.mean_queue_length.to_bits(), l.to_bits());
        assert_eq!(
            point.cost.to_bits(),
            CostModel::paper_figure5().evaluate(l, point.servers).to_bits()
        );
    }
    assert!(sweep.optimum().is_some());
}

#[test]
fn heterogeneous_provisioning_sweep_answers_the_figure9_question() {
    let base = SystemConfig::heterogeneous(
        3.5,
        vec![fast_class().with_count(1).unwrap(), steady_class().with_count(2).unwrap()],
    )
    .unwrap();
    let sweep =
        ProvisioningSweep::evaluate(&SpectralExpansionSolver::default(), &base, 4..=9).unwrap();
    assert!(!sweep.points().is_empty());
    let generous = sweep.min_servers_for_response_time(50.0);
    assert_eq!(generous, Some(sweep.points()[0].servers));
    assert_eq!(sweep.min_servers_for_response_time(1e-9), None);
}

#[test]
fn homogeneous_class_cost_model_reproduces_the_flat_cost_sweep() {
    // A one-class mix search under ClassCostModel::uniform must agree with the plain
    // Figure-5 cost sweep over the same totals, bit for bit.
    let lifecycle = ServerLifecycle::paper_fitted().unwrap();
    let base = SystemConfig::new(5, 4.0, 1.0, lifecycle.clone()).unwrap();
    let flat = CostModel::paper_figure5();
    let sweep =
        CostSweep::evaluate(&MatrixGeometricSolver::default(), &base, &flat, 5..=10).unwrap();
    let sweep_best = sweep.optimum().unwrap();

    let search = MixSearch::new(
        4.0,
        vec![ServerClass::new(1, 1.0, lifecycle).unwrap()],
        ClassCostModel::uniform(&flat, 1).unwrap(),
        MixBounds::up_to(10).unwrap().with_min_servers(5).unwrap(),
    )
    .unwrap();
    let best = search.run().unwrap();
    let best = best.optimum().unwrap();
    assert_eq!(best.counts(), &[sweep_best.servers]);
    assert_eq!(best.cost().to_bits(), sweep_best.cost.to_bits());
    assert_eq!(best.mean_queue_length().to_bits(), sweep_best.mean_queue_length.to_bits());
}
