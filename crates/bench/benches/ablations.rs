//! Experiment E10 — ablations of the design choices the paper leans on:
//!
//! 1. bidirectional-exchange vs binomial-tree broadcast/reduce (the
//!    Appendix A.2 optimization 1D-CAQR-EG exists to exploit);
//! 2. two-phase vs single-phase index vs direct all-to-all (\[HBJ96\] /
//!    [BHK+97]);
//! 3. tsqr vs 1D-CAQR-EG — the recursion is exactly "as if we had used
//!    bidirectional exchange reduce and broadcast within tsqr, despite
//!    the fact that these algorithms are inapplicable" (§6.3);
//! 4. 2d-house vs caqr panels (per-column vs per-panel latency).

use qr3d_bench::report::header;
use qr3d_bench::{run_caqr1d, run_caqr2d, run_house2d, run_tsqr};
use qr3d_collectives::alltoall::{all_to_all, all_to_all_direct, all_to_all_index};
use qr3d_collectives::bidir::{broadcast_bidir, reduce_bidir};
use qr3d_collectives::binomial::{broadcast_binomial, reduce_binomial};
use qr3d_collectives::BlockSizes;
use qr3d_core::house2d::Grid2Config;
use qr3d_core::params::caqr1d_block;
use qr3d_machine::{Clock, Comm, CostParams, Machine, Rank};

fn measure(p: usize, f: impl Fn(&mut Rank, &Comm) + Sync) -> Clock {
    Machine::new(p, CostParams::unit())
        .run(|rank| {
            let w = rank.world();
            f(rank, &w)
        })
        .stats
        .critical()
}

fn main() {
    header("Ablation 1 — broadcast/reduce: binomial tree vs bidirectional exchange");
    println!(
        "{:<10} {:>6} | {:>10} {:>8} | {:>10} {:>8}",
        "op", "B", "tree W", "tree S", "exch W", "exch S"
    );
    let p = 16;
    for b in [64usize, 1024, 8192] {
        let tree = measure(p, |rank, w| {
            let data = (w.rank() == 0).then(|| vec![1.0; b]);
            let _ = broadcast_binomial(rank, w, 0, data, b);
        });
        let exch = measure(p, |rank, w| {
            let data = (w.rank() == 0).then(|| vec![1.0; b]);
            let _ = broadcast_bidir(rank, w, 0, data, b);
        });
        println!(
            "{:<10} {:>6} | {:>10.0} {:>8.0} | {:>10.0} {:>8.0}",
            "broadcast", b, tree.words, tree.msgs, exch.words, exch.msgs
        );
        if b >= 1024 {
            assert!(
                exch.words < tree.words,
                "B={b}: exchange must win bandwidth"
            );
        }
        let tree = measure(p, |rank, w| {
            let _ = reduce_binomial(rank, w, 0, vec![1.0; b]);
        });
        let exch = measure(p, |rank, w| {
            let _ = reduce_bidir(rank, w, 0, vec![1.0; b]);
        });
        println!(
            "{:<10} {:>6} | {:>10.0} {:>8.0} | {:>10.0} {:>8.0}",
            "reduce", b, tree.words, tree.msgs, exch.words, exch.msgs
        );
    }

    header("Ablation 2 — all-to-all algorithms (P = 16, uniform B = 64)");
    let b = 64;
    let sizes = BlockSizes::uniform(p, b);
    let mk_blocks =
        |me: usize| -> Vec<Vec<f64>> { (0..p).map(|d| vec![(me + d) as f64; b]).collect() };
    let direct = measure(p, |rank, w| {
        let _ = all_to_all_direct(rank, w, mk_blocks(w.rank()), &sizes);
    });
    let index = measure(p, |rank, w| {
        let _ = all_to_all_index(rank, w, mk_blocks(w.rank()), &sizes);
    });
    let two_phase = measure(p, |rank, w| {
        let _ = all_to_all(rank, w, mk_blocks(w.rank()), &sizes);
    });
    println!("{:<12} {:>10} {:>8}", "variant", "W", "S");
    for (name, c) in [
        ("direct", &direct),
        ("index", &index),
        ("two-phase", &two_phase),
    ] {
        println!("{:<12} {:>10.0} {:>8.0}", name, c.words, c.msgs);
    }
    assert!(
        index.msgs < direct.msgs,
        "index algorithm must use fewer messages"
    );
    assert!(
        direct.words < index.words,
        "the latency saving costs bandwidth (blocks hop log P times)"
    );

    header("Ablation 3 — tsqr vs 1D-CAQR-EG (the §6.3 log-factor bandwidth saving)");
    println!("{:<22} {:>4} | {:>10} {:>8}", "algorithm", "P", "W", "S");
    let n = 32;
    for p in [8usize, 16, 32] {
        let m = n * p;
        let t = run_tsqr(m, n, p, 41);
        let c = run_caqr1d(m, n, p, caqr1d_block(n, p, 1.0), 41);
        println!(
            "{:<22} {:>4} | {:>10.0} {:>8.0}",
            "tsqr", p, t.words, t.msgs
        );
        println!(
            "{:<22} {:>4} | {:>10.0} {:>8.0}",
            "1d-caqr-eg (ε=1)", p, c.words, c.msgs
        );
        println!(
            "    P={p}: bandwidth saving ×{:.2} for ×{:.2} more messages",
            t.words / c.words,
            c.msgs / t.msgs
        );
        if p >= 16 {
            assert!(c.words < t.words);
        }
    }

    header("Ablation 4 — 2D panels: per-column (2d-house) vs tsqr (caqr)");
    let (m, n, p) = (256usize, 32usize, 8usize);
    let grid = Grid2Config::new(4, 2, 8);
    let house = run_house2d(m, n, p, grid, 42);
    let caqr = run_caqr2d(m, n, p, grid, 42);
    println!("2d-house: W={:.0} S={:.0}", house.words, house.msgs);
    println!("caqr-2d : W={:.0} S={:.0}", caqr.words, caqr.msgs);
    assert!(caqr.msgs < house.msgs, "tsqr panels must cut latency");

    println!("\n[ablations done]");
}
