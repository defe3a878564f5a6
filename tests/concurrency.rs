//! Concurrency properties of the budget layer and the solver: split
//! children charged from real threads must conserve every counter when
//! settled back, and a cancel token fired at an arbitrary moment during
//! a solve may degrade the answer but never corrupt it, and stops it
//! promptly.

use proptest::prelude::*;
use qrel::arith::BigRational;
use qrel::prelude::{
    exact_reliability, Budget, DatabaseBuilder, Fact, FoQuery, Method, Resource, Solver,
    UnreliableDatabase,
};
use std::thread;
use std::time::{Duration, Instant};

fn r(n: i64, d: u64) -> BigRational {
    BigRational::from_ratio(n, d)
}

/// Charge each child its list of amounts from its own OS thread, then
/// hand the children back for settling on the caller's thread.
fn charge_threaded(children: Vec<Budget>, charges: &[Vec<u64>]) -> Vec<Budget> {
    thread::scope(|s| {
        let handles: Vec<_> = children
            .into_iter()
            .zip(charges)
            .map(|(child, list)| {
                s.spawn(move || {
                    for &amount in list {
                        // A rejected charge must not commit anything —
                        // conservation below depends on it.
                        let _ = child.charge(Resource::Samples, amount);
                    }
                    child
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Unlimited budget: every charge lands, so the settled parent must
    /// show exactly the grand total — no double counts, no losses, no
    /// matter how the threads interleave.
    #[test]
    fn threaded_split_settle_conserves_the_grand_total(
        k in 1usize..8,
        charges in proptest::collection::vec(
            proptest::collection::vec(1u64..50, 0..12), 8),
    ) {
        let parent = Budget::unlimited();
        let children = charge_threaded(parent.split(k), &charges[..k]);
        let mut expected = 0u64;
        for list in &charges[..k] {
            expected += list.iter().sum::<u64>();
        }
        for child in &children {
            parent.settle(child);
        }
        prop_assert_eq!(parent.spent(Resource::Samples), expected);
    }

    /// Capped budget: the settled parent must show exactly the sum of
    /// what its children admitted, never exceed the cap, and inherit a
    /// tripped child's exhaustion.
    #[test]
    fn threaded_split_settle_respects_the_cap(
        limit in 1u64..200,
        charges in proptest::collection::vec(
            proptest::collection::vec(1u64..50, 0..12), 4),
    ) {
        let parent = Budget::unlimited().with_max_samples(limit);
        let children = charge_threaded(parent.split(4), &charges);
        let mut admitted = 0u64;
        let mut any_tripped = false;
        for child in &children {
            admitted += child.spent(Resource::Samples);
            any_tripped |= child.probe().is_err();
            parent.settle(child);
        }
        prop_assert_eq!(parent.spent(Resource::Samples), admitted);
        prop_assert!(admitted <= limit);
        prop_assert_eq!(parent.probe().is_err(), any_tripped);
    }
}

/// Fourteen uncertain facts (16384 worlds): enough enumeration work for
/// a cancel to land mid-solve at the longer delays.
fn wide_ud() -> UnreliableDatabase {
    let db = DatabaseBuilder::new()
        .universe_size(14)
        .relation("S", 1)
        .tuples("S", (0..7).map(|i| vec![i]))
        .build();
    let mut ud = UnreliableDatabase::reliable(db);
    for i in 0..14 {
        ud.set_error(&Fact::new(0, vec![i]), r(1, 10)).unwrap();
    }
    ud
}

/// Whatever instant the cancel token fires — before the solve, mid-
/// enumeration, or after the answer is already out — the solver must
/// either report an error, a `Partial` answer, or a *correct* answer
/// with its stated guarantee. A cancel must never surface a wrong
/// number under a guaranteed confidence label.
#[test]
fn cancel_fired_mid_solve_never_yields_a_wrong_guaranteed_answer() {
    let ud = wide_ud();
    let q = FoQuery::parse("exists x. S(x)").unwrap();
    let oracle = exact_reliability(&ud, &q).unwrap().reliability;
    let (eps, _delta) = (0.1, 0.05);
    for delay_us in [0u64, 200, 1_000, 5_000, 20_000] {
        let budget = Budget::unlimited();
        let token = budget.cancel_token();
        let report = thread::scope(|s| {
            s.spawn(move || {
                thread::sleep(Duration::from_micros(delay_us));
                token.cancel();
            });
            Solver::new()
                .with_seed(5)
                .with_accuracy(eps, 0.05)
                .with_max_exact_worlds(1 << 14)
                .solve(&ud, &q, &budget)
        });
        match report {
            // Cancelled before anything ran: a clean refusal is fine.
            Err(_) => {}
            Ok(rep) if rep.confidence.is_guaranteed() => {
                // The solver claims a guarantee — hold it to the oracle
                // (3ε slack keeps the Fptras tail risk negligible).
                let exact = oracle.to_f64();
                assert!(
                    (rep.reliability - exact).abs() <= 3.0 * eps,
                    "delay {delay_us}µs: guaranteed answer {} vs oracle {exact}",
                    rep.reliability
                );
                if let Some(value) = &rep.exact {
                    assert_eq!(value, &oracle, "delay {delay_us}µs: exact answer differs");
                }
            }
            // Degraded: any value is admissible as long as it is
            // labelled Partial — which `is_guaranteed() == false` is.
            Ok(_) => {}
        }
    }
}

/// A cancel reaches a running safe plan: the plan rung polls the token
/// before every answer tuple, so a solve that takes seconds to finish
/// returns a bracketed partial answer soon after the cancel fires.
#[test]
fn cancel_stops_a_running_safe_plan_with_a_partial_answer() {
    // R/2 and S/2 over 300 elements, each edge observed with p = 0.3 and
    // the first 1,000 tuples of each relation uncertain: the full plan
    // walks 90,000 answer tuples times 300 witnesses.
    let n = 300u32;
    let mut edges = [Vec::new(), Vec::new()];
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for rel in &mut edges {
        for a in 0..n {
            for b in 0..n {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state % 10 < 3 {
                    rel.push(vec![a, b]);
                }
            }
        }
    }
    let [r_edges, s_edges] = edges;
    let db = DatabaseBuilder::new()
        .universe_size(n as usize)
        .relation("R", 2)
        .relation("S", 2)
        .tuples("R", r_edges)
        .tuples("S", s_edges)
        .build();
    let mut ud = UnreliableDatabase::reliable(db);
    let mus = [r(1, 3), r(2, 7), r(1, 11)];
    for rel in 0..2 {
        for i in 0..1_000u32 {
            let fact = Fact::new(rel, vec![i / n, i % n]);
            ud.set_error(&fact, mus[i as usize % 3].clone()).unwrap();
        }
    }
    let q = FoQuery::parse("exists z. (R(x, z) & S(y, z))").unwrap();
    let budget = Budget::unlimited();
    let token = budget.cancel_token();
    let started = Instant::now();
    let report = thread::scope(|s| {
        s.spawn(move || {
            thread::sleep(Duration::from_millis(50));
            token.cancel();
        });
        Solver::new()
            .with_method(Method::Plan)
            .solve(&ud, &q, &budget)
    })
    .expect("tuples finished before the cancel give a partial answer");
    let elapsed = started.elapsed();
    assert!(
        !report.confidence.is_guaranteed(),
        "{:?}",
        report.confidence
    );
    assert_eq!(report.method, Method::Plan);
    let (lo, hi) = report.bounds.expect("a bracket from the finished tuples");
    assert!(lo <= report.reliability && report.reliability <= hi);
    assert!(
        elapsed < Duration::from_secs(1),
        "the cancel took {elapsed:?} to stop the plan"
    );
}
