//! Property-based round-trip validation of the Laplace-transform inversion.
//!
//! The response-time distribution of `urs_core::response` is produced by numerically
//! inverting a Laplace–Stieltjes transform, so the inverter itself must be trusted
//! before it can certify anything built on it.  These tests feed the Euler inverter
//! the *analytic* LSTs of distributions whose CDFs are known in closed form —
//! exponential, hyperexponential and Erlang mixtures with randomised parameters —
//! and require the inverted values to reproduce the exact CDFs pointwise.  Euler
//! inversion of the response-time transform is the independent check the test
//! suites hold `ResponseAnalysis`'s uniformised CDF to, so this is the ground it
//! stands on.

use proptest::prelude::*;
use unreliable_servers::core::{invert_lst_cdf, InversionOptions};
use unreliable_servers::dist::{ContinuousDistribution, Exponential, HyperExponential};
use unreliable_servers::linalg::Complex;

/// Pointwise tolerance for the inverted CDF values.  Euler summation with the default
/// decay parameter carries a discretisation error of roughly `1e-10`; `1e-7` leaves
/// two orders of magnitude of slack for roundoff in the closed forms themselves.
const TOLERANCE: f64 = 1e-7;

/// Closed-form Erlang(k, rate) CDF: `1 − e^{−rt} Σ_{i<k} (rt)^i / i!`.
fn erlang_cdf(k: u32, rate: f64, t: f64) -> f64 {
    let x = rate * t;
    let mut term = 1.0;
    let mut sum = 1.0;
    for i in 1..k {
        term *= x / i as f64;
        sum += term;
    }
    1.0 - (-x).exp() * sum
}

/// Strategy: a hyperexponential with 2–3 phases, normalised random weights and
/// well-separated positive rates.
fn hyperexp_strategy() -> impl Strategy<Value = HyperExponential> {
    (
        proptest::collection::vec(0.05_f64..1.0, 2_usize..4),
        proptest::collection::vec(0.05_f64..10.0, 3),
    )
        .prop_map(|(raw_weights, rates)| {
            let total: f64 = raw_weights.iter().sum();
            let weights: Vec<f64> = raw_weights.iter().map(|w| w / total).collect();
            HyperExponential::new(&weights, &rates[..weights.len()])
                .expect("normalised weights and positive rates are valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Exp(rate)` has LST `rate/(s + rate)`; Euler inversion must recover
    /// `1 − e^{−rate·t}` across three decades of rates and a wide span of times.
    #[test]
    fn exponential_round_trips_under_euler_inversion(
        rate in 0.02_f64..20.0,
        factor in 0.05_f64..4.0,
    ) {
        let dist = Exponential::new(rate).unwrap();
        let t = factor / rate;
        let inverted = invert_lst_cdf(
            |s| Ok((s + rate).recip() * rate),
            t,
            &InversionOptions::default(),
        ).unwrap();
        prop_assert!(
            (inverted - dist.cdf(t)).abs() < TOLERANCE,
            "{inverted} vs exact {} at t = {t}", dist.cdf(t)
        );
    }

    /// A hyperexponential has LST `Σ wᵢ rᵢ/(s + rᵢ)` — the same family the paper fits
    /// to the Sun trace, so this is the transform shape the response analysis feeds
    /// the inverter.
    #[test]
    fn hyperexponential_round_trips_under_euler_inversion(
        dist in hyperexp_strategy(),
        factor in 0.05_f64..4.0,
    ) {
        let t = factor * dist.mean();
        let weights = dist.weights().to_vec();
        let rates = dist.rates().to_vec();
        let inverted = invert_lst_cdf(
            |s| {
                let mut lst = Complex::ZERO;
                for (w, r) in weights.iter().zip(&rates) {
                    lst += (s + *r).recip() * (w * r);
                }
                Ok(lst)
            },
            t,
            &InversionOptions::default(),
        ).unwrap();
        prop_assert!(
            (inverted - dist.cdf(t)).abs() < TOLERANCE,
            "{inverted} vs exact {} at t = {t}", dist.cdf(t)
        );
    }

    /// A two-component Erlang mixture `w·Erlang(k₁, r₁) + (1−w)·Erlang(k₂, r₂)` has
    /// LST `w(r₁/(s+r₁))^{k₁} + (1−w)(r₂/(s+r₂))^{k₂}`.  Erlang CDFs have an inflection
    /// away from the origin (unlike everything monotone-density above), so this
    /// exercises the quadrature on a qualitatively different shape.
    #[test]
    fn erlang_mixtures_round_trip_under_euler_inversion(
        k1 in 1_u32..=6,
        k2 in 1_u32..=6,
        r1 in 0.1_f64..10.0,
        r2 in 0.1_f64..10.0,
        weight in 0.05_f64..0.95,
        factor in 0.05_f64..4.0,
    ) {
        let mean = weight * k1 as f64 / r1 + (1.0 - weight) * k2 as f64 / r2;
        let t = factor * mean;
        let exact = weight * erlang_cdf(k1, r1, t) + (1.0 - weight) * erlang_cdf(k2, r2, t);
        let inverted = invert_lst_cdf(
            |s| {
                let e1 = ((s + r1).recip() * r1).powi(k1);
                let e2 = ((s + r2).recip() * r2).powi(k2);
                Ok(e1 * weight + e2 * (1.0 - weight))
            },
            t,
            &InversionOptions::default(),
        ).unwrap();
        prop_assert!((inverted - exact).abs() < TOLERANCE, "{inverted} vs exact {exact} at t = {t}");
    }
}
