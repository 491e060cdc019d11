//! Cost-optimal fleet composition: Section 4's provisioning question lifted to
//! heterogeneous server classes.
//!
//! The paper's Figure 5 optimises the cost `C = c₁·L + c₂·N` over a single server
//! count.  This experiment prices two classes differently — *steady* servers (the
//! paper's fitted lifecycle, µ = 1, price 1.0) and *fast-but-fragile* servers
//! (µ = 1.5, mean operative period 10, mean repair time 0.5, price 1.4) — and asks
//! which composition `(N_fast, N_steady)` minimises `C = c₁·L + Σ_j c₂ⱼ·Nⱼ` under a
//! fleet-size bound, with and without a hardware budget.  Both search strategies are
//! run and compared: exhaustive exact evaluation, and branch and bound, which solves
//! compositions in order of a closed-form lower bound on their cost and stops once no
//! remaining bound can beat the best exact cost.  The two must agree exactly.
//!
//! Run with `URS_SMOKE=1` for a CI-sized instance.

use std::sync::Arc;

use urs_bench::{figure5_lifecycle, print_header, print_row, smoke};
use urs_core::{
    ClassCostModel, MixBounds, MixSearch, MixSearchOptions, ServerClass, ServerLifecycle,
    SolverCache,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (lambda, max_servers) = if smoke() { (3.2, 6) } else { (5.5, 10) };
    let steady = ServerClass::new(1, 1.0, figure5_lifecycle())?;
    let fragile = ServerClass::new(1, 1.5, ServerLifecycle::exponential(1.0 / 10.0, 2.0)?)?;
    let cost_model = ClassCostModel::new(4.0, vec![1.4, 1.0])?;

    let search = MixSearch::new(
        lambda,
        vec![fragile.clone(), steady.clone()],
        cost_model.clone(),
        MixBounds::up_to(max_servers)?,
    )?;

    // Exhaustive reference: every feasible composition solved exactly.
    let exact = search.run_exhaustive()?;
    print_header(
        &format!(
            "Optimal mix: C = 4·L + 1.4·N_fast + 1.0·N_steady (lambda = {lambda}, N <= {max_servers})"
        ),
        &["fast N", "steady N", "L", "cost C"],
    );
    for candidate in exact.ranked().iter().take(8) {
        print_row(&[
            candidate.counts()[0] as f64,
            candidate.counts()[1] as f64,
            candidate.mean_queue_length(),
            candidate.cost(),
        ]);
    }
    let best = exact.optimum().ok_or("no stable composition in the bounds")?;
    println!(
        "\nexhaustive optimum: {} fast + {} steady (C = {:.4}, L = {:.4}; \
         {} candidates, {} unstable skipped)",
        best.counts()[0],
        best.counts()[1],
        best.cost(),
        best.mean_queue_length(),
        exact.candidates(),
        exact.skipped_unstable()
    );

    // Pruned path on the same space: solve in bound order, stop at the incumbent.
    let cache = SolverCache::shared();
    let pruned = search
        .clone()
        .with_cache(Arc::clone(&cache))
        .with_options(MixSearchOptions { exhaustive_limit: 0, ..Default::default() })
        .run()?;
    let pruned_best = pruned.optimum().ok_or("pruning lost every candidate")?;
    // Each composition has its own skeleton, looked up once per exact solve, so the
    // skeleton misses count the solves exactly when nothing hit.
    let skeletons = cache.stats();
    if skeletons.hits != 0 {
        return Err("a composition's skeleton was looked up twice".into());
    }
    println!(
        "pruned optimum:     {} fast + {} steady (C = {:.4}; {} of {} stable candidates solved)",
        pruned_best.counts()[0],
        pruned_best.counts()[1],
        pruned_best.cost(),
        skeletons.misses,
        pruned.candidates() - pruned.skipped_unstable()
    );
    if pruned_best != best {
        return Err("pruned optimum diverged from the exhaustive optimum".into());
    }

    // The same question under a hardware budget: the optimiser must trade holding
    // cost against the budget boundary.
    let budget = cost_model.fleet_cost(best.counts()) - 0.2;
    let bounded = MixSearch::new(
        lambda,
        vec![fragile, steady],
        cost_model.clone(),
        MixBounds::up_to(max_servers)?.with_budget(budget)?,
    )?
    .run()?;
    match bounded.optimum() {
        Some(b) => println!(
            "with budget {:.2}:   {} fast + {} steady (C = {:.4}, fleet cost {:.2})",
            budget,
            b.counts()[0],
            b.counts()[1],
            b.cost(),
            cost_model.fleet_cost(b.counts())
        ),
        None => println!("with budget {budget:.2}: no stable composition is affordable"),
    }
    Ok(())
}
