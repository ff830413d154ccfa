//! Algorithm and parameter selection for a concrete machine — the
//! operational form of the paper's headline: "by varying a parameter to
//! navigate the bandwidth/latency tradeoff, we can tune this algorithm
//! for machines with different communication costs."
//!
//! Given `(m, n, P)` and the machine's `(α, β, γ)`, evaluate every
//! algorithm's cost formula (with its tuning parameter swept over its
//! admissible range) under `γF + βW + αS` and return the cheapest.
//!
//! ## Condition-number-gated candidates
//!
//! Cost formulas alone cannot rank algorithms whose *applicability*
//! depends on the data: CholeskyQR2 beats TSQR on every communication
//! axis, but squares the condition number through its Gram matrix and is
//! numerically valid only for `κ(A) ≲ 1/√ε`. The kappa-aware entry points
//! ([`candidates_with_kappa`], [`recommend_with_kappa`]) therefore take
//! the caller's condition-number estimate and refuse to offer CholeskyQR2
//! without an estimate under [`CHOLQR2_KAPPA_GUARD`]. The plain
//! [`candidates`]/[`recommend`] treat κ as unknown (conservative: no
//! CholeskyQR2).
//!
//! ## Costs are single-thread-normalized
//!
//! The flop terms `F` in every candidate's formula — and therefore the
//! advisor's rankings — are the *single-thread* arithmetic counts of the
//! paper's model: one rank, one stream of flops at rate γ. Each rank
//! runs its kernels on one thread, and the kernels may execute those
//! flops with SIMD (`QR3D_SIMD`), which does not change what is
//! *charged*: SIMD width folds into the effective γ a deployment
//! measures for its machine. Its wall-clock speedup is measured (and
//! gated) in the benchmark suite, never fed back into the cost formulas
//! — which is what keeps every `cost/*` record bitwise-stable across
//! hardware.

use crate::algorithms::{
    caqr2d_cost, cholqr2_batch_cost, cholqr2_cost, geqp3_cost, house2d_cost, rrqr_cost,
    theorem1_cost, theorem2_cost, tsqr_batch_cost, tsqr_cost,
};
use crate::Cost3;

/// The condition-number guard for CholeskyQR2: `1/√ε ≈ 6.7e7` for f64.
/// Below it, CholeskyQR2's orthogonality error is `O(ε)` (the Gram
/// matrix's `κ² ε < 1` keeps the Cholesky factor meaningful and the
/// second pass repairs the first); above it, the Gram matrix is
/// numerically indefinite and the factorization can break down outright.
pub const CHOLQR2_KAPPA_GUARD: f64 = 67_108_864.0; // 2²⁶ ≈ 1/√ε

/// An algorithm choice with its tuned parameter (if any) — what the
/// advisor recommends and, re-exported as `qr3d_core`'s `QrBackend`,
/// what the dispatcher runs. The paper's `1d-house` baseline
/// ([`house1d_cost`](crate::algorithms::house1d_cost)) is not one: it
/// undercuts tsqr only at `n = 1`, by the `n³ log P` flops of tsqr's
/// tree.
///
/// Deliberately **not** `PartialEq`: two variants carry `f64` tuning
/// parameters, and float `==` on swept grids invites spurious
/// mismatches. Compare with [`Choice::same_algorithm`] (ignore the
/// parameter) or [`Choice::approx_eq`] (parameter within a tolerance).
#[derive(Debug, Clone, Copy)]
pub enum Choice {
    /// tsqr.
    Tsqr,
    /// 1D-CAQR-EG with the given ε ∈ [0, 1].
    Caqr1d {
        /// The Theorem 2 tradeoff parameter.
        epsilon: f64,
    },
    /// `2d-house`.
    House2d,
    /// 2D caqr.
    Caqr2d,
    /// 3D-CAQR-EG with the given δ ∈ [1/2, 2/3].
    Caqr3d {
        /// The Theorem 1 tradeoff parameter.
        delta: f64,
    },
    /// CholeskyQR2 (requires a condition-number estimate under
    /// [`CHOLQR2_KAPPA_GUARD`]).
    CholQr2,
    /// Distributed column-pivoted QR — the strong rank-revealing
    /// backend (exact greedy pivoting, `Θ(n log P)` latency); returns a
    /// permutation and the detected numerical rank.
    PivotQr,
    /// Randomized rank-revealing QR — sketch-pivoted, `O(log P)`
    /// latency; the cheap path when only the numerical rank and a
    /// well-conditioned basis are needed. Tall-skinny only (its final
    /// TSQR pass needs `m ≥ n·P`).
    RandRrqr,
}

impl Choice {
    /// True when `self` and `other` are the same algorithm, ignoring any
    /// tuning parameter.
    pub fn same_algorithm(&self, other: &Choice) -> bool {
        std::mem::discriminant(self) == std::mem::discriminant(other)
    }

    /// True when `self` and `other` are the same algorithm *and* their
    /// tuning parameters (if any) differ by at most `tol`. This is the
    /// comparison tests should use instead of float `==`.
    pub fn approx_eq(&self, other: &Choice, tol: f64) -> bool {
        match (self, other) {
            (Choice::Caqr1d { epsilon: a }, Choice::Caqr1d { epsilon: b }) => (a - b).abs() <= tol,
            (Choice::Caqr3d { delta: a }, Choice::Caqr3d { delta: b }) => (a - b).abs() <= tol,
            _ => self.same_algorithm(other),
        }
    }
}

/// A recommendation: the choice, its predicted cost triple, and the
/// modeled runtime on the given machine.
#[derive(Debug, Clone, Copy)]
pub struct Recommendation {
    /// Which algorithm (and parameter) to run.
    pub choice: Choice,
    /// Its predicted `(F, W, S)`.
    pub cost: Cost3,
    /// `γF + βW + αS` on the queried machine.
    pub time: f64,
}

/// All candidates for an `m × n` problem on `P` processors with the
/// caller's condition-number estimate (`None` = unknown), tuning
/// parameters swept on a grid.
///
/// Gates:
/// * tall-skinny algorithms (tsqr, 1D-CAQR-EG) require `m/n ≥ P`;
/// * CholeskyQR2 requires `m ≥ n` **and** `kappa ≤ `
///   [`CHOLQR2_KAPPA_GUARD`] — with κ unknown it is never offered, no
///   matter how cheap its formula looks.
pub fn candidates_with_kappa(
    m: usize,
    n: usize,
    p: usize,
    kappa: Option<f64>,
) -> Vec<(Choice, Cost3)> {
    let mut out = Vec::new();
    if tall_skinny_admissible(m, n, p) {
        out.push((Choice::Tsqr, tsqr_cost(m, n, p)));
        for k in 0..=4 {
            let epsilon = k as f64 / 4.0;
            out.push((Choice::Caqr1d { epsilon }, theorem2_cost(m, n, p, epsilon)));
        }
    }
    if m >= n && cholqr2_admissible(kappa) {
        out.push((Choice::CholQr2, cholqr2_cost(m, n, p)));
    }
    out.push((Choice::House2d, house2d_cost(m, n, p)));
    out.push((Choice::Caqr2d, caqr2d_cost(m, n, p)));
    for k in 0..=4 {
        let delta = 0.5 + (k as f64 / 4.0) / 6.0; // [1/2, 2/3]
        out.push((Choice::Caqr3d { delta }, theorem1_cost(m, n, p, delta)));
    }
    out
}

/// All candidates with the condition number unknown (CholeskyQR2 never
/// offered). See [`candidates_with_kappa`].
pub fn candidates(m: usize, n: usize, p: usize) -> Vec<(Choice, Cost3)> {
    candidates_with_kappa(m, n, p, None)
}

/// True when CholeskyQR2 is numerically admissible for the given
/// condition-number estimate: known, sane, and under the guard.
pub fn cholqr2_admissible(kappa: Option<f64>) -> bool {
    matches!(kappa, Some(k) if (1.0..=CHOLQR2_KAPPA_GUARD).contains(&k))
}

/// The tall-skinny aspect gate, `m ≥ n·P`: the 1D block-row algorithms
/// (1d-house, tsqr, 1D-CAQR-EG — and the fused batch paths built on
/// them) need every rank to own at least `n` of the `m` rows, which
/// under a balanced layout (`⌊m/P⌋ ≥ n`) is exactly `m ≥ n·P`. This is
/// the **single** definition shared by the advisor's candidate gates,
/// the dispatcher, and the serving layer's fusability check, so they
/// can never silently diverge from the kernels' per-rank row asserts.
pub fn tall_skinny_admissible(m: usize, n: usize, p: usize) -> bool {
    m >= n.max(1).saturating_mul(p)
}

/// The caller's knowledge about the input's column rank — the gate that
/// decides whether the advisor may offer the full-rank family at all.
///
/// The full-rank backends *mishandle* rank deficiency in two distinct
/// ways: CholeskyQR2 breaks down (reported, at least), while plain
/// Householder silently produces a factorization whose `R` hides the
/// deficiency. A rank-revealing backend is the only choice that turns
/// "rank unknown/deficient" into an *answer* (the detected rank and a
/// permutation ordering the independent columns first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RankHint {
    /// The caller asserts full column rank — the historical contract of
    /// every backend, and the default: selection behaves exactly as
    /// [`recommend_with_kappa`].
    #[default]
    Full,
    /// The caller does not know the rank and wants it *detected*, not
    /// masked: only rank-revealing candidates are offered.
    Unknown,
    /// The input is known or suspected rank-deficient: only
    /// rank-revealing candidates are offered.
    Deficient,
}

impl RankHint {
    /// True when the hint demands a rank-revealing backend.
    pub fn requires_rank_revealing(&self) -> bool {
        !matches!(self, RankHint::Full)
    }
}

/// The rank-revealing candidates for an `m × n` problem on `P`
/// processors: distributed pivoted QR (any `m ≥ n`) and randomized RRQR
/// (whose unpivoted-TSQR final pass needs the tall-skinny aspect gate).
pub fn rank_revealing_candidates(m: usize, n: usize, p: usize) -> Vec<(Choice, Cost3)> {
    let mut out = Vec::new();
    if m >= n {
        out.push((Choice::PivotQr, geqp3_cost(m, n, p)));
    }
    if tall_skinny_admissible(m, n, p) {
        out.push((Choice::RandRrqr, rrqr_cost(m, n, p)));
    }
    out
}

/// The cheapest candidate under `γF + βW + αS` given the caller's rank
/// hint *and* condition-number estimate:
///
/// * [`RankHint::Full`] delegates to [`recommend_with_kappa`] — the
///   historical behavior, κ guard included;
/// * [`RankHint::Unknown`] / [`RankHint::Deficient`] route to the
///   cheapest **rank-revealing** backend
///   ([`rank_revealing_candidates`]), so a suspected-deficient or
///   rank-unknown input is *diagnosed* instead of letting CholeskyQR2
///   refuse or Householder silently mask the deficiency.
///
/// # Panics
/// If `m < n` with a non-`Full` hint (no rank-revealing candidate
/// exists for wide shapes).
pub fn recommend_with_rank_hint(
    m: usize,
    n: usize,
    p: usize,
    hint: RankHint,
    kappa: Option<f64>,
    alpha: f64,
    beta: f64,
    gamma: f64,
) -> Recommendation {
    if !hint.requires_rank_revealing() {
        return recommend_with_kappa(m, n, p, kappa, alpha, beta, gamma);
    }
    let mut best: Option<Recommendation> = None;
    for (choice, cost) in rank_revealing_candidates(m, n, p) {
        let time = cost.time(alpha, beta, gamma);
        if best.map(|b| time < b.time).unwrap_or(true) {
            best = Some(Recommendation { choice, cost, time });
        }
    }
    best.expect("rank-revealing candidates require m ≥ n")
}

/// The cheapest candidate under `γF + βW + αS`, given the caller's
/// condition-number estimate (`None` = unknown).
pub fn recommend_with_kappa(
    m: usize,
    n: usize,
    p: usize,
    kappa: Option<f64>,
    alpha: f64,
    beta: f64,
    gamma: f64,
) -> Recommendation {
    let mut best: Option<Recommendation> = None;
    for (choice, cost) in candidates_with_kappa(m, n, p, kappa) {
        let time = cost.time(alpha, beta, gamma);
        if best.map(|b| time < b.time).unwrap_or(true) {
            best = Some(Recommendation { choice, cost, time });
        }
    }
    best.expect("candidate list is never empty")
}

/// A batch recommendation: which algorithm to run over `k` independent
/// same-shape problems, and whether to run it **fused** (all problems
/// share one reduction tree per communication phase — `S_batch ≈
/// S_single`) or sequentially (`k` back-to-back runs — every cost
/// component scales with `k`).
#[derive(Debug, Clone, Copy)]
pub struct BatchRecommendation {
    /// Which algorithm (and parameter) to run.
    pub choice: Choice,
    /// Whether to fuse the batch into shared reduction trees. Only the
    /// tall-skinny single-tree algorithms (tsqr, CholeskyQR2) fuse.
    pub fused: bool,
    /// Predicted `(F, W, S)` for the whole batch.
    pub cost: Cost3,
    /// `γF + βW + αS` on the queried machine.
    pub time: f64,
}

/// All candidates for serving `k` independent `m × n` problems on `P`
/// processors: every single-problem candidate run `k` times sequentially
/// (cost scaled by `k`), plus — for `k ≥ 2` — the fused tall-skinny
/// variants whose reduction trees are shared across the batch. The same
/// gates as [`candidates_with_kappa`] apply (aspect for the tall-skinny
/// family, the κ guard for CholeskyQR2 — `kappa` must bound **every**
/// problem in the batch).
pub fn batch_candidates_with_kappa(
    m: usize,
    n: usize,
    p: usize,
    k: usize,
    kappa: Option<f64>,
) -> Vec<(Choice, bool, Cost3)> {
    let mut out: Vec<(Choice, bool, Cost3)> = candidates_with_kappa(m, n, p, kappa)
        .into_iter()
        .map(|(choice, cost)| (choice, false, cost.scaled(k as f64)))
        .collect();
    if k >= 2 {
        if tall_skinny_admissible(m, n, p) {
            out.push((Choice::Tsqr, true, tsqr_batch_cost(m, n, p, k)));
        }
        if m >= n && cholqr2_admissible(kappa) {
            out.push((Choice::CholQr2, true, cholqr2_batch_cost(m, n, p, k)));
        }
    }
    out
}

/// The cheapest way to serve a batch of `k` same-shape problems under
/// `γF + βW + αS`, fused or sequential. See
/// [`batch_candidates_with_kappa`].
pub fn recommend_batch_with_kappa(
    m: usize,
    n: usize,
    p: usize,
    k: usize,
    kappa: Option<f64>,
    alpha: f64,
    beta: f64,
    gamma: f64,
) -> BatchRecommendation {
    let mut best: Option<BatchRecommendation> = None;
    for (choice, fused, cost) in batch_candidates_with_kappa(m, n, p, k, kappa) {
        let time = cost.time(alpha, beta, gamma);
        if best.map(|b| time < b.time).unwrap_or(true) {
            best = Some(BatchRecommendation {
                choice,
                fused,
                cost,
                time,
            });
        }
    }
    best.expect("candidate list is never empty")
}

/// The cheapest candidate with the condition number unknown. See
/// [`recommend_with_kappa`].
pub fn recommend(
    m: usize,
    n: usize,
    p: usize,
    alpha: f64,
    beta: f64,
    gamma: f64,
) -> Recommendation {
    recommend_with_kappa(m, n, p, None, alpha, beta, gamma)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALPHA_CLUSTER: f64 = 1e-3;
    const BETA_CLUSTER: f64 = 1e-7;
    const ALPHA_SUPER: f64 = 1e-5;
    const BETA_SUPER: f64 = 2e-8;
    const GAMMA: f64 = 1e-9;

    #[test]
    fn tall_skinny_on_latency_machine_avoids_house() {
        let r = recommend(1 << 22, 1 << 6, 1 << 8, ALPHA_CLUSTER, BETA_CLUSTER, GAMMA);
        assert!(
            !matches!(r.choice, Choice::House2d),
            "latency-dominated machines must avoid per-column algorithms, got {:?}",
            r.choice
        );
        // Low-ε / tsqr territory: latency-optimal end.
        match r.choice {
            Choice::Tsqr => {}
            Choice::Caqr1d { epsilon } => assert!(epsilon <= 0.5, "got ε = {epsilon}"),
            other => panic!("expected a tall-skinny algorithm, got {other:?}"),
        }
    }

    #[test]
    fn tall_skinny_on_bandwidth_machine_reaches_the_w_lower_bound() {
        // With bandwidth absurdly precious, the pick must attain W = Θ(n²)
        // — the Section 8.3 lower bound. Several algorithms tie there
        // (high-ε 1d-caqr-eg, and 2D caqr whose W formula degenerates to
        // n² at aspect ≤ 1); what matters is that no log-factor W is left.
        let (m, n, p) = (1usize << 22, 1usize << 6, 1usize << 8);
        let r = recommend(m, n, p, 1e-9, 1e-3, GAMMA);
        let n2 = (n * n) as f64;
        assert!(
            r.cost.words <= 1.5 * n2,
            "bandwidth machine must get W ≈ n² (lower bound), got {} with {:?}",
            r.cost.words,
            r.choice
        );
        // And never a tree-depth W like tsqr's n² log P.
        assert!(!matches!(r.choice, Choice::Tsqr));
    }

    #[test]
    fn squareish_on_bandwidth_machine_prefers_3d_high_delta() {
        let n = 1 << 16;
        let r = recommend(4 * n, n, 1 << 10, 1e-9, 1e-3, GAMMA);
        match r.choice {
            Choice::Caqr3d { delta } => {
                assert!(delta > 0.6, "bandwidth machine wants δ → 2/3, got {delta}")
            }
            other => panic!("expected 3d-caqr-eg, got {other:?}"),
        }
    }

    #[test]
    fn squareish_delta_moves_with_the_latency_to_bandwidth_ratio() {
        // Directionality: cranking α up must never *raise* the chosen δ
        // (more latency pressure ⇒ latency-leaner settings), and the
        // extremes land at the two δ endpoints.
        let n = 1 << 16;
        let (m, p) = (4 * n, 1 << 10);
        let delta_of = |alpha: f64, beta: f64| match recommend(m, n, p, alpha, beta, GAMMA).choice {
            Choice::Caqr3d { delta } => delta,
            Choice::Caqr2d | Choice::House2d => 0.5, // 2D sits at the latency end's W
            other => panic!("expected a square-ish algorithm, got {other:?}"),
        };
        let latency_heavy = delta_of(10.0, 1e-9);
        let balanced = delta_of(ALPHA_CLUSTER, BETA_CLUSTER);
        let bandwidth_heavy = delta_of(1e-9, 1e-3);
        assert!(latency_heavy <= balanced + 1e-12);
        assert!(balanced <= bandwidth_heavy + 1e-12);
        assert!(
            latency_heavy <= 0.51,
            "α-dominated ⇒ δ → 1/2, got {latency_heavy}"
        );
        assert!(
            bandwidth_heavy >= 0.66,
            "β-dominated ⇒ δ → 2/3, got {bandwidth_heavy}"
        );
    }

    #[test]
    fn candidates_respect_aspect_gate() {
        // Square problem: no tall-skinny candidates.
        let c = candidates(1024, 1024, 64);
        assert!(c
            .iter()
            .all(|(ch, _)| !matches!(ch, Choice::Tsqr | Choice::Caqr1d { .. })));
        // Very tall: both families present.
        let c = candidates(1 << 20, 16, 64);
        assert!(c.iter().any(|(ch, _)| matches!(ch, Choice::Tsqr)));
        assert!(c.iter().any(|(ch, _)| matches!(ch, Choice::Caqr3d { .. })));
    }

    #[test]
    fn recommendation_is_argmin() {
        let (m, n, p) = (1 << 18, 1 << 8, 1 << 6);
        let r = recommend(m, n, p, ALPHA_SUPER, BETA_SUPER, GAMMA);
        for (_, cost) in candidates(m, n, p) {
            assert!(r.time <= cost.time(ALPHA_SUPER, BETA_SUPER, GAMMA) + 1e-12);
        }
    }

    #[test]
    fn cholqr2_requires_a_condition_estimate() {
        // Unknown κ: never offered, regardless of shape or machine.
        for (m, n) in [(4096usize, 64usize), (1 << 20, 1 << 6)] {
            let c = candidates_with_kappa(m, n, 16, None);
            assert!(
                c.iter().all(|(ch, _)| !matches!(ch, Choice::CholQr2)),
                "unknown κ must suppress CholeskyQR2"
            );
        }
    }

    #[test]
    fn cholqr2_respects_the_kappa_guard() {
        assert!(cholqr2_admissible(Some(10.0)));
        assert!(cholqr2_admissible(Some(1e6)));
        assert!(cholqr2_admissible(Some(CHOLQR2_KAPPA_GUARD)));
        assert!(!cholqr2_admissible(Some(CHOLQR2_KAPPA_GUARD * 1.001)));
        assert!(!cholqr2_admissible(Some(1e10)));
        assert!(!cholqr2_admissible(Some(0.5)), "κ < 1 is nonsense");
        assert!(!cholqr2_admissible(Some(f64::NAN)));
        assert!(!cholqr2_admissible(None));
        // And the candidate list follows the guard.
        let below = candidates_with_kappa(4096, 64, 16, Some(100.0));
        assert!(below.iter().any(|(ch, _)| matches!(ch, Choice::CholQr2)));
        let above = candidates_with_kappa(4096, 64, 16, Some(1e10));
        assert!(above.iter().all(|(ch, _)| !matches!(ch, Choice::CholQr2)));
    }

    #[test]
    fn well_conditioned_tall_skinny_on_cluster_picks_cholqr2() {
        // The acceptance shape: 4096 × 64 on 16 ranks of a
        // latency-dominated cluster, κ ≈ 100 ≪ 1/√ε.
        let r = recommend_with_kappa(
            4096,
            64,
            16,
            Some(100.0),
            ALPHA_CLUSTER,
            BETA_CLUSTER,
            GAMMA,
        );
        assert!(
            matches!(r.choice, Choice::CholQr2),
            "expected CholeskyQR2, got {:?}",
            r.choice
        );
        // Same input with κ above the guard: falls back to the
        // Householder tall-skinny family.
        let r = recommend_with_kappa(4096, 64, 16, Some(1e10), ALPHA_CLUSTER, BETA_CLUSTER, GAMMA);
        assert!(
            matches!(r.choice, Choice::Tsqr | Choice::Caqr1d { .. }),
            "ill-conditioned input must avoid CholeskyQR2, got {:?}",
            r.choice
        );
    }

    #[test]
    fn large_squareish_prefers_caqr_even_with_good_kappa() {
        // The replicated n³ Cholesky term sinks CholeskyQR2 once n is
        // large relative to m/P: 3D-CAQR-EG keeps F = mn²/P.
        let (m, n, p) = (1 << 14, 1 << 12, 1 << 8);
        let r = recommend_with_kappa(m, n, p, Some(10.0), ALPHA_CLUSTER, BETA_CLUSTER, GAMMA);
        assert!(
            !matches!(r.choice, Choice::CholQr2),
            "square-ish input must not pick CholeskyQR2, got {:?}",
            r.choice
        );
    }

    #[test]
    fn batched_well_conditioned_tall_skinny_fuses_cholqr2() {
        // The service acceptance shape: k = 8 problems of 512 × 16 on
        // P = 8 ranks of a latency-dominated cluster, κ ≈ 100. Fusing
        // the Gram all-reduces amortizes the α·log P latency across the
        // batch, so the advisor must pick *fused* CholeskyQR2.
        let r = recommend_batch_with_kappa(
            512,
            16,
            8,
            8,
            Some(100.0),
            ALPHA_CLUSTER,
            BETA_CLUSTER,
            GAMMA,
        );
        assert!(
            matches!(r.choice, Choice::CholQr2) && r.fused,
            "expected fused CholeskyQR2, got {:?} (fused = {})",
            r.choice,
            r.fused
        );
        // The fused pick's latency must be that of ONE problem, not k.
        let single = cholqr2_cost(512, 16, 8);
        assert_eq!(r.cost.msgs, single.msgs, "S_batch ≈ S_single");
    }

    #[test]
    fn batch_of_one_never_fuses() {
        for kappa in [None, Some(100.0)] {
            let c = batch_candidates_with_kappa(4096, 64, 16, 1, kappa);
            assert!(c.iter().all(|(_, fused, _)| !fused));
            let r = recommend_batch_with_kappa(
                4096,
                64,
                16,
                1,
                kappa,
                ALPHA_CLUSTER,
                BETA_CLUSTER,
                GAMMA,
            );
            assert!(!r.fused);
        }
    }

    #[test]
    fn batch_without_kappa_still_fuses_but_never_cholqr2() {
        // Unknown κ: the Gram path stays locked out, but fused tsqr is
        // numerically safe at any condition number and must still win on
        // a latency-dominated machine.
        let c = batch_candidates_with_kappa(4096, 64, 16, 8, None);
        assert!(c.iter().all(|(ch, _, _)| !matches!(ch, Choice::CholQr2)));
        assert!(c
            .iter()
            .any(|(ch, fused, _)| matches!(ch, Choice::Tsqr) && *fused));
        let r =
            recommend_batch_with_kappa(4096, 64, 16, 8, None, ALPHA_CLUSTER, BETA_CLUSTER, GAMMA);
        assert!(r.fused, "latency-dominated machines want the fused tree");
    }

    #[test]
    fn batch_recommendation_is_argmin() {
        let (m, n, p, k) = (1 << 14, 32, 16, 12);
        let r = recommend_batch_with_kappa(m, n, p, k, Some(50.0), ALPHA_SUPER, BETA_SUPER, GAMMA);
        for (_, _, cost) in batch_candidates_with_kappa(m, n, p, k, Some(50.0)) {
            assert!(r.time <= cost.time(ALPHA_SUPER, BETA_SUPER, GAMMA) + 1e-12);
        }
    }

    #[test]
    fn square_ish_batches_without_kappa_do_not_fuse() {
        // The fused candidates are exactly the tall-skinny single-tree
        // family: with κ unknown (no CholeskyQR2) and the aspect gate
        // closed (no tsqr), a square batch has nothing to fuse and runs
        // sequentially with a square-ish algorithm.
        let c = batch_candidates_with_kappa(1024, 1024, 64, 8, None);
        assert!(c.iter().all(|(_, fused, _)| !fused));
        // With an asserted κ the Gram path opens even for square shapes
        // (its gate is m ≥ n) — offered, though rarely optimal there.
        let c = batch_candidates_with_kappa(1024, 1024, 64, 8, Some(10.0));
        assert!(c
            .iter()
            .any(|(ch, fused, _)| matches!(ch, Choice::CholQr2) && *fused));
    }

    #[test]
    fn full_rank_hint_is_the_historical_behavior() {
        // RankHint::Full must reproduce recommend_with_kappa exactly —
        // the hint is additive, never a behavior change for existing
        // callers.
        for (m, n, kappa) in [
            (4096usize, 64usize, Some(100.0)),
            (1 << 18, 1 << 8, None),
            (1024, 1024, Some(1e10)),
        ] {
            let a = recommend_with_rank_hint(
                m,
                n,
                64,
                RankHint::Full,
                kappa,
                ALPHA_CLUSTER,
                BETA_CLUSTER,
                GAMMA,
            );
            let b = recommend_with_kappa(m, n, 64, kappa, ALPHA_CLUSTER, BETA_CLUSTER, GAMMA);
            assert!(
                a.choice.approx_eq(&b.choice, 1e-12),
                "{:?} vs {:?}",
                a.choice,
                b.choice
            );
            assert_eq!(a.time, b.time);
        }
    }

    #[test]
    fn non_full_hints_route_to_rank_revealing() {
        for hint in [RankHint::Unknown, RankHint::Deficient] {
            // Tall-skinny on a latency-dominated cluster: the O(log P)
            // sketch path must beat the Θ(n log P) pivot tournament.
            let r = recommend_with_rank_hint(
                1 << 20,
                64,
                256,
                hint,
                None,
                ALPHA_CLUSTER,
                BETA_CLUSTER,
                GAMMA,
            );
            assert!(
                matches!(r.choice, Choice::RandRrqr),
                "{hint:?}: expected RandRrqr, got {:?}",
                r.choice
            );
            // Square-ish: the aspect gate closes RandRrqr, PivotQr is
            // the only (and correct) rank-revealing option.
            let r = recommend_with_rank_hint(
                2048,
                1024,
                64,
                hint,
                Some(100.0),
                ALPHA_CLUSTER,
                BETA_CLUSTER,
                GAMMA,
            );
            assert!(
                matches!(r.choice, Choice::PivotQr),
                "{hint:?}: expected PivotQr, got {:?}",
                r.choice
            );
        }
    }

    #[test]
    fn rank_hint_overrides_even_an_asserted_kappa() {
        // A κ assertion opens CholeskyQR2 under Full, but a deficient
        // hint must still refuse the whole full-rank family (a deficient
        // input *will* break the Gram path down).
        let r = recommend_with_rank_hint(
            4096,
            64,
            16,
            RankHint::Deficient,
            Some(100.0),
            ALPHA_CLUSTER,
            BETA_CLUSTER,
            GAMMA,
        );
        assert!(
            matches!(r.choice, Choice::PivotQr | Choice::RandRrqr),
            "got {:?}",
            r.choice
        );
    }

    #[test]
    fn rank_revealing_candidates_respect_gates() {
        // Square: only PivotQr.
        let c = rank_revealing_candidates(1024, 1024, 64);
        assert_eq!(c.len(), 1);
        assert!(matches!(c[0].0, Choice::PivotQr));
        // Tall-skinny: both.
        let c = rank_revealing_candidates(1 << 16, 16, 64);
        assert!(c.iter().any(|(ch, _)| matches!(ch, Choice::PivotQr)));
        assert!(c.iter().any(|(ch, _)| matches!(ch, Choice::RandRrqr)));
        // Wide: none.
        assert!(rank_revealing_candidates(8, 16, 4).is_empty());
    }

    #[test]
    fn rank_hint_default_is_full() {
        assert_eq!(RankHint::default(), RankHint::Full);
        assert!(!RankHint::Full.requires_rank_revealing());
        assert!(RankHint::Unknown.requires_rank_revealing());
        assert!(RankHint::Deficient.requires_rank_revealing());
    }

    #[test]
    fn rrqr_amortizes_the_pivot_tournament_latency() {
        // The reason RandRrqr exists: S = O(log P) vs Θ(n log P).
        let (m, n, p) = (1usize << 20, 1usize << 8, 1usize << 8);
        let pivot = crate::algorithms::geqp3_cost(m, n, p);
        let rrqr = crate::algorithms::rrqr_cost(m, n, p);
        assert!(
            rrqr.msgs * 10.0 < pivot.msgs,
            "rrqr S = {} must be far below pivot S = {}",
            rrqr.msgs,
            pivot.msgs
        );
    }

    #[test]
    fn choice_comparisons_are_tolerance_aware() {
        let a = Choice::Caqr1d { epsilon: 0.25 };
        let b = Choice::Caqr1d {
            epsilon: 0.25 + 1e-12,
        };
        let c = Choice::Caqr1d { epsilon: 0.75 };
        assert!(a.same_algorithm(&b) && a.same_algorithm(&c));
        assert!(a.approx_eq(&b, 1e-9), "nearby parameters compare equal");
        assert!(!a.approx_eq(&c, 1e-9), "distant parameters do not");
        assert!(!a.same_algorithm(&Choice::Tsqr));
        assert!(Choice::CholQr2.approx_eq(&Choice::CholQr2, 0.0));
        assert!(!Choice::Caqr3d { delta: 0.5 }.approx_eq(&Choice::Caqr1d { epsilon: 0.5 }, 1.0));
    }
}
