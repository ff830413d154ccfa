//! Property tests: every collective agrees with its naive specification
//! for arbitrary processor counts, roots, and (possibly empty) block
//! sizes.

use proptest::prelude::*;
use qr3d_collectives::prelude::*;
use qr3d_machine::{CostParams, Machine};

fn machine(p: usize) -> Machine {
    Machine::new(p, CostParams::unit())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn broadcast_spec(p in 1usize..9, root_sel in 0usize..9, b in 0usize..40, variant in 0u8..3) {
        let root = root_sel % p;
        let expect: Vec<f64> = (0..b).map(|k| (root * 100 + k) as f64).collect();
        let data = expect.clone();
        let out = machine(p).run(|rank| {
            let w = rank.world();
            let payload = (w.rank() == root).then(|| data.clone());
            match variant {
                0 => broadcast(rank, &w, root, payload, b),
                1 => broadcast_binomial(rank, &w, root, payload, b),
                _ => broadcast_bidir(rank, &w, root, payload, b),
            }
        });
        for r in out.results {
            prop_assert_eq!(&r, &expect);
        }
    }

    #[test]
    fn reduce_spec(p in 1usize..9, root_sel in 0usize..9, b in 0usize..40, variant in 0u8..3) {
        let root = root_sel % p;
        let out = machine(p).run(|rank| {
            let w = rank.world();
            let mine: Vec<f64> = (0..b).map(|k| (w.rank() + k) as f64).collect();
            match variant {
                0 => reduce(rank, &w, root, mine),
                1 => reduce_binomial(rank, &w, root, mine),
                _ => reduce_bidir(rank, &w, root, mine),
            }
        });
        let expect: Vec<f64> = (0..b)
            .map(|k| (0..p).map(|r| (r + k) as f64).sum())
            .collect();
        for (r, res) in out.results.iter().enumerate() {
            if r == root {
                let got = res.as_ref().unwrap();
                for (g, e) in got.iter().zip(&expect) {
                    prop_assert!((g - e).abs() < 1e-9);
                }
            } else {
                prop_assert!(res.is_none());
            }
        }
    }

    #[test]
    fn all_reduce_spec(p in 1usize..9, b in 0usize..30, variant in 0u8..3) {
        let out = machine(p).run(|rank| {
            let w = rank.world();
            let mine: Vec<f64> = (0..b).map(|k| (w.rank() * b + k) as f64).collect();
            match variant {
                0 => all_reduce(rank, &w, mine),
                1 => all_reduce_binomial(rank, &w, mine),
                _ => all_reduce_bidir(rank, &w, mine),
            }
        });
        let expect: Vec<f64> = (0..b)
            .map(|k| (0..p).map(|r| (r * b + k) as f64).sum())
            .collect();
        for res in &out.results {
            for (g, e) in res.iter().zip(&expect) {
                prop_assert!((g - e).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn scatter_gather_inverse(p in 1usize..9, root_sel in 0usize..9, base in 0usize..6) {
        let root = root_sel % p;
        let sizes: Vec<usize> = (0..p).map(|i| (base + i) % 5).collect();
        let sz = sizes.clone();
        let out = machine(p).run(|rank| {
            let w = rank.world();
            let blocks = (w.rank() == root).then(|| {
                (0..p).map(|d| vec![(d * 7) as f64; sz[d]]).collect::<Vec<_>>()
            });
            let mine = scatter(rank, &w, root, blocks, &sz);
            // Gather back: root must recover exactly what it scattered.
            gather(rank, &w, root, &mine, &sz)
        });
        // The root's gather result is the rank-ordered concatenation.
        let flat = out.results[root].as_ref().unwrap();
        let mut off = 0;
        for (d, &s) in sizes.iter().enumerate() {
            prop_assert_eq!(&flat[off..off + s], &vec![(d * 7) as f64; s][..]);
            off += s;
        }
        prop_assert_eq!(off, flat.len());
    }

    #[test]
    fn all_gather_spec(p in 1usize..9, base in 0usize..6) {
        let sizes: Vec<usize> = (0..p).map(|i| (base + 2 * i) % 7).collect();
        let sz = sizes.clone();
        let out = machine(p).run(|rank| {
            let w = rank.world();
            let mine = vec![w.rank() as f64; sz[w.rank()]];
            all_gather(rank, &w, mine, &sz)
        });
        for res in &out.results {
            for (i, b) in res.iter().enumerate() {
                prop_assert_eq!(b, &vec![i as f64; sizes[i]]);
            }
        }
    }

    #[test]
    fn reduce_scatter_spec(p in 1usize..9, base in 0usize..6) {
        let sizes: Vec<usize> = (0..p).map(|i| (base + i) % 4).collect();
        let sz = sizes.clone();
        let out = machine(p).run(|rank| {
            let w = rank.world();
            let blocks: Vec<Vec<f64>> = (0..p)
                .map(|d| vec![(w.rank() + d) as f64; sz[d]])
                .collect();
            reduce_scatter(rank, &w, blocks, &sz)
        });
        for (d, res) in out.results.iter().enumerate() {
            let expect: f64 = (0..p).map(|r| (r + d) as f64).sum();
            prop_assert_eq!(res, &vec![expect; sizes[d]]);
        }
    }

    #[test]
    fn all_to_all_variants_agree(p in 1usize..8, seed in 0usize..100) {
        let sizes = BlockSizes::from_fn(p, |s, d| (seed + 3 * s + 5 * d) % 6);
        let make = |me: usize| -> Vec<Vec<f64>> {
            (0..p)
                .map(|d| (0..sizes.get(me, d)).map(|k| (me * 991 + d * 31 + k) as f64).collect())
                .collect()
        };
        let run = |which: u8| {
            let sz = sizes.clone();
            machine(p)
                .run(|rank| {
                    let w = rank.world();
                    let blocks = make(w.rank());
                    match which {
                        0 => all_to_all_direct(rank, &w, blocks, &sz),
                        1 => all_to_all_index(rank, &w, blocks, &sz),
                        _ => all_to_all(rank, &w, blocks, &sz),
                    }
                })
                .results
        };
        let a = run(0);
        let b = run(1);
        let c = run(2);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
    }

    /// The two-phase engine, driven through its callbacks on uneven (and
    /// often empty, sometimes skewed) blocks, delivers exactly the blocks
    /// the pairwise exchange does.
    #[test]
    fn two_phase_engine_matches_direct(p in 1usize..10, seed in 0u64..1_000_000, hot in 0usize..9) {
        let sizes = uneven_sizes(p, seed, hot % p);
        let block = |me: usize, d: usize| -> Vec<f64> {
            (0..sizes.get(me, d)).map(|k| (me * 1_000_003 + d * 1009 + k) as f64).collect()
        };
        let direct = machine(p)
            .run(|rank| {
                let w = rank.world();
                let blocks = (0..p).map(|d| block(w.rank(), d)).collect();
                all_to_all_direct(rank, &w, blocks, &sizes)
                    .iter()
                    .map(|b| b.to_vec())
                    .collect::<Vec<_>>()
            })
            .results;
        let engine = machine(p)
            .run(|rank| {
                let w = rank.world();
                let me = w.rank();
                let blocks: Vec<Vec<f64>> = (0..p).map(|d| block(me, d)).collect();
                let mut got: Vec<Vec<f64>> = (0..p).map(|s| vec![f64::NAN; sizes.get(s, me)]).collect();
                all_to_all_with(
                    rank,
                    &w,
                    &sizes,
                    |d, range, msg| msg.extend_from_slice(&blocks[d][range]),
                    |s, off, words| got[s][off..off + words.len()].copy_from_slice(words),
                );
                got
            })
            .results;
        prop_assert_eq!(&engine, &direct);
    }

    /// Cost sanity on every collective: latency stays logarithmic.
    #[test]
    fn latency_is_polylogarithmic(p in 2usize..33, b in 1usize..20) {
        let out = machine(p).run(|rank| {
            let w = rank.world();
            let payload = (w.rank() == 0).then(|| vec![1.0; b]);
            broadcast(rank, &w, 0, payload, b)
        });
        let s = out.stats.critical().msgs;
        let lg = (p as f64).log2().ceil().max(1.0);
        // Both endpoints are charged and the bidirectional variant runs
        // two phases (scatter + all-gather): ≤ 4 message events per level.
        prop_assert!(s <= 4.0 * lg + 2.0, "S={s} for p={p}");
    }
}

/// Uneven block sizes from `seed`: 0–16 words, a third of them empty,
/// and every block from `hot` four times larger.
fn uneven_sizes(p: usize, seed: u64, hot: usize) -> BlockSizes {
    BlockSizes::from_fn(p, |s, d| {
        let mut z = seed ^ ((s * 64 + d) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 29;
        let w = if z.is_multiple_of(3) {
            0
        } else {
            (z >> 8) as usize % 17
        };
        if s == hot {
            4 * w
        } else {
            w
        }
    })
}

/// Per-rank `(messages sent, words sent, critical-path messages,
/// critical-path words)` of the two-phase `all_to_all` on fixed uneven
/// sizes, as recorded before the engine replaced the block-by-block
/// implementation: the engine sends the same envelopes.
#[test]
fn two_phase_counts_are_unchanged() {
    #[allow(clippy::type_complexity)]
    let pins: [(usize, &[u32], &[u32], &[u32], &[u32]); 4] = [
        (3, &[4, 4, 4], &[19, 18, 19], &[8, 8, 8], &[40, 38, 40]),
        (
            4,
            &[4, 4, 4, 4],
            &[34, 37, 36, 37],
            &[8, 8, 8, 8],
            &[78, 79, 78, 79],
        ),
        (
            6,
            &[6, 6, 6, 6, 6, 6],
            &[68, 71, 73, 69, 66, 72],
            &[12, 12, 12, 12, 12, 12],
            &[149, 143, 153, 143, 154, 145],
        ),
        (
            9,
            &[8, 8, 8, 8, 8, 8, 8, 8, 8],
            &[127, 128, 126, 116, 129, 128, 127, 136, 134],
            &[16, 16, 16, 16, 16, 16, 16, 16, 16],
            &[281, 283, 283, 281, 282, 282, 282, 281, 282],
        ),
    ];
    for (p, msgs, words, path_msgs, path_words) in pins {
        let sizes = BlockSizes::from_fn(p, |s, d| (7 * s + 3 * d + 2) % 11);
        let out = machine(p).run(|rank| {
            let w = rank.world();
            let me = w.rank();
            let blocks = (0..p).map(|d| vec![me as f64; sizes.get(me, d)]).collect();
            all_to_all(rank, &w, blocks, &sizes)
        });
        let (totals, clocks) = (&out.stats.totals, &out.stats.per_rank);
        let got = |f: &dyn Fn(usize) -> f64| (0..p).map(|r| f(r) as u32).collect::<Vec<_>>();
        assert_eq!(got(&|r| totals[r].msgs_sent), msgs, "p={p} messages sent");
        assert_eq!(got(&|r| totals[r].words_sent), words, "p={p} words sent");
        assert_eq!(got(&|r| clocks[r].msgs), path_msgs, "p={p} path messages");
        assert_eq!(got(&|r| clocks[r].words), path_words, "p={p} path words");
    }
}
