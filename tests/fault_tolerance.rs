//! The fault-tolerance gate: a [`FaultPlan`] kills one compute rank at
//! every reduction-tree level it participates in, on every machine size
//! and both transport backends — and `tsqr_factor_ft` must return
//! **bitwise identical** `Q` (i.e. `V`), `R`, and `T` factors to the
//! fault-free `tsqr_factor` run, with the dead rank's share
//! reconstructed by the checksum spare.

use std::sync::Arc;

use qr3d_collectives::tree::binomial_frames;
use qr3d_core::prelude::*;
use qr3d_core::tsqr::LEAF_WORDS;
use qr3d_machine::{
    CostParams, FaultPlan, FaultyTransport, Machine, MpscTransport, RingTransport, Transport,
};
use qr3d_matrix::Matrix;

fn uniform_locals(m: usize, n: usize, p: usize, seed: u64) -> Vec<Matrix> {
    let a = Matrix::random(m, n, seed);
    let mp = m / p;
    (0..p)
        .map(|r| a.take_rows(&(r * mp..(r + 1) * mp).collect::<Vec<_>>()))
        .collect()
}

/// The fault-free reference factors from plain `tsqr_factor` on `p`
/// ranks (no spares, no fault layer).
fn reference(locs: &[Matrix], p: usize) -> Vec<QrFactors> {
    let locs = locs.to_vec();
    let machine = Machine::new(p, CostParams::unit());
    machine
        .run(move |rank| {
            let w = rank.world();
            tsqr_factor(rank, &w, &locs[w.rank()])
        })
        .results
}

fn backends() -> Vec<(&'static str, Arc<dyn Transport>)> {
    vec![
        ("mpsc", Arc::new(MpscTransport)),
        ("ring", Arc::new(RingTransport::default())),
    ]
}

/// Run the FT factorization on `p + c` ranks with `victim` killed at
/// tree level `level`, and check every rank's factors bitwise against
/// the fault-free reference.
fn check_kill(
    label: &str,
    inner: Arc<dyn Transport>,
    locs: &[Matrix],
    reference: &[QrFactors],
    p: usize,
    c: usize,
    victim: usize,
    level: u64,
) {
    let cfg = FtConfig { spares: c };
    let (mp, n) = (locs[0].rows(), locs[0].cols());
    let plan = FaultPlan::new().kill_at_level(victim, level);
    let transport = Arc::new(FaultyTransport::wrap(inner, plan));
    let locs = locs.to_vec();
    let machine = Machine::new(p + c, CostParams::unit()).with_transport(transport);
    let out = machine.run(move |rank| {
        let w = rank.world();
        let a = if w.rank() < p {
            locs[w.rank()].clone()
        } else {
            Matrix::zeros(mp, n)
        };
        tsqr_factor_ft(rank, &w, &a, &cfg)
    });

    let ctx = format!("{label}: P={p} victim={victim} level={level}");
    let mut recovered: Option<&QrFactors> = None;
    for s in p..p + c {
        if let FtResult::Spare {
            recovered: Some((r, f)),
        } = &out.results[s]
        {
            assert_eq!(*r, victim, "{ctx}: spare {s} recovered the wrong rank");
            assert!(recovered.is_none(), "{ctx}: two spares recovered");
            recovered = Some(f);
        }
    }
    for r in 0..p {
        let got = if r == victim {
            assert!(
                matches!(out.results[r], FtResult::Dead),
                "{ctx}: victim must report Dead"
            );
            recovered.unwrap_or_else(|| panic!("{ctx}: no spare recovered the victim"))
        } else {
            match &out.results[r] {
                FtResult::Compute(f) => f,
                other => panic!("{ctx}: rank {r} returned {other:?}"),
            }
        };
        assert_eq!(got.v_local, reference[r].v_local, "{ctx}: rank {r} V");
        assert_eq!(got.r, reference[r].r, "{ctx}: rank {r} R");
        assert_eq!(got.t, reference[r].t, "{ctx}: rank {r} T");
    }
}

/// The gated sweep: every (victim, level) pair at P ∈ {2, 4, 8}, one
/// checksum spare, on both transports. A rank's levels are exactly the
/// depths of its binomial-tree frames.
#[test]
fn killed_rank_at_every_tree_level_recovers_bitwise() {
    let (n, mp, c) = (4usize, 6usize, 1usize);
    for p in [2usize, 4, 8] {
        let locs = uniform_locals(p * mp, n, p, 100 + p as u64);
        let reference = reference(&locs, p);
        for (name, inner) in backends() {
            for victim in 0..p {
                for f in binomial_frames(victim, p, 0) {
                    check_kill(
                        name,
                        Arc::clone(&inner),
                        &locs,
                        &reference,
                        p,
                        c,
                        victim,
                        f.depth,
                    );
                }
            }
        }
    }
}

/// Leaves of two blocks (`tree.rs`'s blocked leaf QR), one victim per
/// tree level of `P = 4`: the spare decodes the dead rank's rows and
/// replays its leaf tree along with its position.
#[test]
fn killed_rank_with_a_blocked_leaf_recovers_bitwise() {
    let (p, n) = (4usize, 4usize);
    let mp = LEAF_WORDS / n + 2 * n;
    let locs = uniform_locals(p * mp, n, p, 104);
    let reference = reference(&locs, p);
    for victim in [2usize, 1] {
        let level = binomial_frames(victim, p, 0)[0].depth;
        check_kill(
            "mpsc",
            Arc::new(MpscTransport),
            &locs,
            &reference,
            p,
            1,
            victim,
            level,
        );
    }
}

/// Root death with striped spares: the stripe owning rank 0 recovers
/// the root's full output (V, T, and R), the other spare stays idle.
#[test]
fn root_death_with_two_spares_recovers_t_and_r() {
    let (p, c, mp, n) = (4usize, 2usize, 5usize, 3usize);
    let locs = uniform_locals(p * mp, n, p, 42);
    let reference = reference(&locs, p);
    for (name, inner) in backends() {
        check_kill(name, inner, &locs, &reference, p, c, 0, 0);
    }
}

/// Reproducibility: the same fault plan yields the same recovered
/// factors twice (determinism survives injection).
#[test]
fn faulted_runs_are_reproducible() {
    let (p, c, mp, n) = (4usize, 1usize, 6usize, 4usize);
    let locs = uniform_locals(p * mp, n, p, 7);
    let reference = reference(&locs, p);
    for _ in 0..2 {
        check_kill(
            "mpsc",
            Arc::new(MpscTransport),
            &locs,
            &reference,
            p,
            c,
            2,
            1,
        );
    }
}
