//! Brute-force Bayes oracle: the §4 "general solution" over the whole live
//! set with a scalar Lemma-1 density of its own, sharing nothing with the
//! index's traversal, columnar kernels or bound bookkeeping.

use gauss_tree::{MliqResult, TiqResult};
use pfv::combine::log_joint;
use pfv::{log_sum_exp, CombineMode, Pfv};

/// Log densities closer than this are a tie; posteriors closer than this to
/// the threshold may fall on either side of it.
const TIE: f64 = 1e-9;

/// What the oracle expects of one query.
#[derive(Debug, Clone, Default)]
pub struct Expected {
    /// Every id whose density ties with the maximum.
    pub mliq_ids: Vec<u64>,
    /// Ids surely at or above the TIQ threshold (ascending).
    pub tiq_in: Vec<u64>,
    /// Ids within `TIE` of the threshold: accepted in or out.
    pub tiq_boundary: Vec<u64>,
    /// When set, the 1-MLIQ answer must also equal this one bit for bit
    /// (`forest_drift`: the answer of one tree over the live set).
    pub identical: Option<Vec<MliqResult>>,
}

/// `ln √(2π)`.
const LN_SQRT_2PI: f64 = 0.918_938_533_204_672_7;

/// `ln p(q|v)` by Lemma 1: `Σ ln N(μv, s)(μq)` with `s` the combined spread.
/// One logarithm per object, of the product of the spreads, where
/// `log_joint` takes one per dimension: the oracle reads the whole live set
/// for every query, and this makes it three times cheaper. A product that
/// leaves the normal range falls back to `log_joint`.
fn log_density(mode: CombineMode, v: &Pfv, q: &Pfv) -> f64 {
    let (mut spreads, mut zz) = (1.0f64, 0.0f64);
    for i in 0..v.dims() {
        let ((mv, sv), (mq, sq)) = (v.component(i), q.component(i));
        let s = mode.combine_sigma(sv, sq);
        let z = (mq - mv) / s;
        spreads *= s;
        zz += z * z;
    }
    if spreads.is_normal() {
        -spreads.ln() - v.dims() as f64 * LN_SQRT_2PI - 0.5 * zz
    } else {
        log_joint(mode, v, q)
    }
}

fn expect_one(mode: CombineMode, db: &[(u64, Pfv)], q: &Pfv, theta: Option<f64>) -> Expected {
    let lds: Vec<f64> = db.iter().map(|(_, v)| log_density(mode, v, q)).collect();
    let best = lds.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut e = Expected::default();
    for ((id, _), &ld) in db.iter().zip(&lds) {
        if ld >= best - TIE {
            e.mliq_ids.push(*id);
        }
    }
    if let Some(theta) = theta {
        let denom = log_sum_exp(&lds);
        for ((id, _), &ld) in db.iter().zip(&lds) {
            let p = (ld - denom).exp();
            if p >= theta + TIE {
                e.tiq_in.push(*id);
            } else if p > theta - TIE {
                e.tiq_boundary.push(*id);
            }
        }
        e.tiq_in.sort_unstable();
    }
    e
}

/// Expected answers for every query; those flagged in `tiq` also get their
/// TIQ sets at threshold `theta`. Queries are split over `threads` workers.
pub fn brute_force(
    mode: CombineMode,
    db: &[(u64, Pfv)],
    queries: &[Pfv],
    tiq: &[bool],
    theta: f64,
    threads: usize,
) -> Vec<Expected> {
    let chunk = queries.len().div_ceil(threads.max(1)).max(1);
    let mut out = Vec::with_capacity(queries.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .enumerate()
            .map(|(c, qs)| {
                scope.spawn(move || {
                    qs.iter()
                        .enumerate()
                        .map(|(i, q)| {
                            let theta = tiq[c * chunk + i].then_some(theta);
                            expect_one(mode, db, q, theta)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            // lint: allow(no-panic) -- a worker panics only on a bug in this file; hand it on
            out.extend(h.join().expect("oracle worker"));
        }
    });
    out
}

/// A 1-MLIQ answer is right when it names one of the tied best objects and
/// equals the reference answer, if there is one.
pub fn mliq_ok(expected: &Expected, got: &[MliqResult]) -> bool {
    got.len() == 1
        && expected.mliq_ids.contains(&got[0].id)
        && expected.identical.as_deref().is_none_or(|r| r == got)
}

/// A TIQ answer is right when it holds every sure member and nothing beyond
/// the sure members and the boundary.
pub fn tiq_ok(expected: &Expected, got: &[TiqResult]) -> bool {
    let mut ids: Vec<u64> = got.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    let before = ids.len();
    ids.dedup();
    before == ids.len()
        && expected
            .tiq_in
            .iter()
            .all(|id| ids.binary_search(id).is_ok())
        && ids.iter().all(|id| {
            expected.tiq_in.binary_search(id).is_ok() || expected.tiq_boundary.contains(id)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pfv1(mu: f64, sigma: f64) -> Pfv {
        Pfv::new(vec![mu], vec![sigma]).expect("valid pfv")
    }

    #[test]
    fn own_density_agrees_with_the_library() {
        let v = Pfv::new(vec![0.1, 0.7, 0.3], vec![0.02, 0.3, 1e-3]).expect("valid pfv");
        let q = Pfv::new(vec![0.12, 0.1, 0.3], vec![0.05, 0.2, 0.4]).expect("valid pfv");
        for mode in [CombineMode::Convolution, CombineMode::AdditiveSigma] {
            let (own, lib) = (log_density(mode, &v, &q), log_joint(mode, &v, &q));
            assert!(
                (own - lib).abs() < 1e-12 * lib.abs().max(1.0),
                "{own} vs {lib}"
            );
        }
        // 400 dimensions of spread 1e-3 underflow the product: the fallback.
        let tiny = Pfv::new(vec![0.0; 400], vec![1e-3; 400]).expect("valid pfv");
        let own = log_density(CombineMode::Convolution, &tiny, &tiny);
        assert_eq!(own, log_joint(CombineMode::Convolution, &tiny, &tiny));
    }

    #[test]
    fn oracle_ranks_and_thresholds() {
        let db = vec![
            (7, pfv1(0.0, 0.1)),
            (8, pfv1(5.0, 0.1)),
            (9, pfv1(0.0, 0.1)),
        ];
        let q = pfv1(0.05, 0.1);
        let e = &brute_force(CombineMode::Convolution, &db, &[q], &[true], 0.2, 2)[0];
        assert_eq!(e.mliq_ids, vec![7, 9], "exact ties are all accepted");
        assert_eq!(e.tiq_in, vec![7, 9]);
        let hit = |id| MliqResult {
            id,
            log_density: 0.0,
        };
        assert!(mliq_ok(e, &[hit(9)]));
        assert!(!mliq_ok(e, &[hit(8)]));
        assert!(!mliq_ok(e, &[]));
        let pinned = Expected {
            identical: Some(vec![hit(7)]),
            ..e.clone()
        };
        assert!(mliq_ok(&pinned, &[hit(7)]));
        assert!(
            !mliq_ok(&pinned, &[hit(9)]),
            "a tied id still differs from the reference"
        );
        let t = |id| TiqResult {
            id,
            log_density: 0.0,
            probability: 0.5,
            prob_lo: 0.5,
            prob_hi: 0.5,
        };
        assert!(tiq_ok(e, &[t(9), t(7)]));
        assert!(!tiq_ok(e, &[t(7)]), "a missing member is a false dismissal");
        assert!(
            !tiq_ok(e, &[t(7), t(9), t(8)]),
            "a non-member is a false hit"
        );
    }
}
