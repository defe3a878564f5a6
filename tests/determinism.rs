//! The determinism contract, end to end: for a fixed seed, every
//! sampling engine and the solver produce bit-identical answers
//! regardless of the thread count, the `RAYON_NUM_THREADS` hint, or how
//! many times they are re-run. The contract holds because the shard
//! count is fixed (not derived from the machine), each shard owns a
//! seed-split RNG, and shard results merge as exact integers.

use qrel::arith::BigRational;
use qrel::count::naive_mc::naive_mc_probability_sharded;
use qrel::count::KarpLuby;
use qrel::logic::prop::{Dnf, Lit};
use qrel::prelude::{
    Budget, DatabaseBuilder, FoQuery, Method, Resource, Solver, UnreliableDatabase,
};

fn r(n: i64, d: u64) -> BigRational {
    BigRational::from_ratio(n, d)
}

fn small_ud() -> UnreliableDatabase {
    let db = DatabaseBuilder::new()
        .universe_size(3)
        .relation("S", 1)
        .tuples("S", [vec![0], vec![2]])
        .build();
    let mut ud = UnreliableDatabase::reliable(db);
    ud.set_relation_error("S", r(1, 4)).unwrap();
    ud
}

#[test]
fn samplers_are_bit_identical_across_thread_counts_and_reruns() {
    let d = Dnf::from_terms([
        vec![Lit::pos(0), Lit::neg(1)],
        vec![Lit::pos(2), Lit::pos(3)],
    ]);
    let probs = vec![r(2, 5); 4];
    let kl = KarpLuby::new(&d, &probs);
    let kl_base = kl
        .run_budgeted(20_000, &Budget::unlimited(), 7, 1)
        .0
        .estimate;
    let mc_base = naive_mc_probability_sharded(&d, &probs, 20_000, 7, 1);
    for threads in [1usize, 2, 4, 8] {
        for _rerun in 0..2 {
            let kl_est = kl
                .run_budgeted(20_000, &Budget::unlimited(), 7, threads)
                .0
                .estimate;
            let mc_est = naive_mc_probability_sharded(&d, &probs, 20_000, 7, threads);
            assert_eq!(
                kl_est.to_bits(),
                kl_base.to_bits(),
                "KL at {threads} threads"
            );
            assert_eq!(
                mc_est.to_bits(),
                mc_base.to_bits(),
                "MC at {threads} threads"
            );
        }
    }
}

/// The `(ε, δ)` entry stops at a sample position of the canonical
/// sequence, not at whatever the fastest worker reached: the estimate,
/// the sample count and the parent budget's charge are the same bits at
/// every thread count, whether the stopping rule or the samples cap ends
/// the run.
#[test]
fn stopping_rule_is_bit_identical_across_thread_counts() {
    let d = Dnf::from_terms([
        vec![Lit::pos(0), Lit::neg(1)],
        vec![Lit::pos(2), Lit::pos(3)],
        vec![Lit::neg(2), Lit::pos(1)],
    ]);
    let probs = vec![r(2, 5); 4];
    let kl = KarpLuby::new(&d, &probs);
    for cap in [None, Some(1_000u64)] {
        let run = |threads: usize| {
            let budget = match cap {
                Some(n) => Budget::unlimited().with_max_samples(n),
                None => Budget::unlimited(),
            };
            let (rep, exhausted) = kl.run_eps_delta(0.05, 0.05, &budget, 17, threads);
            assert_eq!(exhausted.is_some(), cap.is_some());
            (
                rep.estimate.to_bits(),
                rep.samples,
                budget.spent(Resource::Samples),
            )
        };
        let base = run(1);
        assert_eq!(base.1, base.2, "the charge is the samples read");
        for threads in [2usize, 4, 8] {
            assert_eq!(run(threads), base, "{threads} threads, cap {cap:?}");
        }
    }
}

/// The solver consults `RAYON_NUM_THREADS` only when no explicit thread
/// count is set — and neither source may change the answer. This test
/// owns the env var for the whole binary: no other test here reads it.
#[test]
fn solver_answer_ignores_the_rayon_num_threads_hint() {
    let ud = small_ud();
    // A self-join, so the plan rung declines; capping exact enumeration
    // then lands the ladder on a sampling rung — the only place thread
    // count could leak into the answer.
    let q = FoQuery::parse("exists x y. (S(x) & S(y))").unwrap();
    let solve = || {
        Solver::new()
            .with_seed(11)
            .with_accuracy(0.2, 0.1)
            .with_max_exact_worlds(4)
            .solve(&ud, &q, &Budget::unlimited())
            .unwrap()
    };
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let base = solve();
    assert_eq!(base.method, Method::Fptras);
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let hinted = solve();
    std::env::remove_var("RAYON_NUM_THREADS");
    let unhinted = solve();
    let explicit = Solver::new()
        .with_seed(11)
        .with_accuracy(0.2, 0.1)
        .with_max_exact_worlds(4)
        .with_threads(3)
        .solve(&ud, &q, &Budget::unlimited())
        .unwrap();
    for (label, rep) in [
        ("hint=4", &hinted),
        ("no hint", &unhinted),
        ("explicit 3", &explicit),
    ] {
        assert_eq!(rep.method, base.method, "{label}");
        assert_eq!(rep.samples, base.samples, "{label}");
        assert_eq!(
            rep.reliability.to_bits(),
            base.reliability.to_bits(),
            "{label}"
        );
    }
}

#[test]
fn solver_rerun_with_the_same_seed_is_bit_identical() {
    let ud = small_ud();
    let q = FoQuery::parse("exists x. S(x)").unwrap();
    let solve = |threads: usize| {
        Solver::new()
            .with_seed(23)
            .with_accuracy(0.2, 0.1)
            .with_max_exact_worlds(4)
            .with_threads(threads)
            .solve(&ud, &q, &Budget::unlimited())
            .unwrap()
    };
    let first = solve(2);
    let second = solve(2);
    assert_eq!(
        first.reliability.to_bits(),
        second.reliability.to_bits(),
        "same seed, same threads must reproduce the same bits"
    );
    assert_eq!(first.samples, second.samples);
    assert_eq!(first.method, second.method);
}
