//! # qr3d-cost — the paper's analytic cost model
//!
//! Closed-form asymptotic cost formulas (arithmetic `F`, bandwidth `W`,
//! latency `S`) for every algorithm and collective the paper analyzes,
//! used by the benchmark harness to compare measured critical-path costs
//! against the paper's predictions:
//!
//! * [`collectives`] — Table 1.
//! * [`algorithms`] — Lemma 5 (tsqr), Equation (11) (1D-CAQR-EG),
//!   Equation (13) (3D-CAQR-EG), and the Table 2/3 baseline rows.
//! * [`bounds`] — the Section 8.3 communication lower bounds.
//!
//! All formulas drop constant factors (they are `O(·)` bounds); the
//! harness compares *shapes* — ratios, scaling exponents, who-wins — not
//! absolute values.

#![forbid(unsafe_code)]

pub mod advisor;
pub mod algorithms;
pub mod bounds;
pub mod collectives;

/// An asymptotic cost triple: critical-path flops, words, and messages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cost3 {
    /// Arithmetic operations `F`.
    pub flops: f64,
    /// Words moved `W`.
    pub words: f64,
    /// Messages `S`.
    pub msgs: f64,
}

impl Cost3 {
    /// The zero cost.
    pub fn zero() -> Self {
        Cost3 {
            flops: 0.0,
            words: 0.0,
            msgs: 0.0,
        }
    }

    /// Componentwise sum.
    pub fn plus(self, other: Cost3) -> Cost3 {
        Cost3 {
            flops: self.flops + other.flops,
            words: self.words + other.words,
            msgs: self.msgs + other.msgs,
        }
    }

    /// Componentwise scaling: the cost of running `self` `k` times
    /// back-to-back (sequential batch serving).
    pub fn scaled(self, k: f64) -> Cost3 {
        Cost3 {
            flops: k * self.flops,
            words: k * self.words,
            msgs: k * self.msgs,
        }
    }

    /// Modeled runtime `γF + βW + αS`.
    pub fn time(&self, alpha: f64, beta: f64, gamma: f64) -> f64 {
        gamma * self.flops + beta * self.words + alpha * self.msgs
    }
}

/// `log₂ p`, floored at 1 (so it can multiply/divide without vanishing
/// for `p ≤ 2`).
pub fn lg(p: usize) -> f64 {
    (p as f64).log2().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost3_algebra() {
        let a = Cost3 {
            flops: 1.0,
            words: 2.0,
            msgs: 3.0,
        };
        let b = Cost3 {
            flops: 10.0,
            words: 20.0,
            msgs: 30.0,
        };
        let c = a.plus(b);
        assert_eq!(
            c,
            Cost3 {
                flops: 11.0,
                words: 22.0,
                msgs: 33.0
            }
        );
        assert_eq!(c.time(1.0, 1.0, 1.0), 66.0);
        assert_eq!(Cost3::zero().time(5.0, 5.0, 5.0), 0.0);
    }

    #[test]
    fn lg_floors_at_one() {
        assert_eq!(lg(1), 1.0);
        assert_eq!(lg(2), 1.0);
        assert_eq!(lg(8), 3.0);
    }
}

/// Glob-import surface.
pub mod prelude {
    pub use crate::advisor::{
        batch_candidates_with_kappa, candidates, candidates_with_kappa, cholqr2_admissible,
        rank_revealing_candidates, recommend, recommend_batch_with_kappa, recommend_with_kappa,
        recommend_with_rank_hint, tall_skinny_admissible, BatchRecommendation, Choice, RankHint,
        Recommendation, CHOLQR2_KAPPA_GUARD,
    };
    pub use crate::algorithms::{
        caqr1d_cost, caqr2d_cost, caqr3d_cost, cholqr2_batch_cost, cholqr2_cost, geqp3_cost,
        house1d_cost, house2d_cost, rrqr_cost, theorem1_cost, theorem2_cost, tsqr_batch_cost,
        tsqr_cost, tsqr_ft_cost,
    };
    pub use crate::bounds::{lower_bounds_square, lower_bounds_tall};
    pub use crate::collectives::{self as collective_costs};
    pub use crate::{lg, Cost3};
}
