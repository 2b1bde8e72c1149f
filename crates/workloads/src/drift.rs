//! Drifting-sensor streams for sustained-ingest workloads.
//!
//! Models a fleet of sensors whose true state wanders through feature
//! space as a bounded random walk. Each stream event re-observes a
//! sensor through its Gaussian error model (an *upsert* of that sensor's
//! pfv), registers a new sensor, or retires one (a *delete*). The mix is
//! exactly what a write-optimized store has to absorb: a hot stream of
//! same-id updates and tombstones layered over a slowly growing
//! population — unlike [`crate::dataset`], which builds a static
//! snapshot for bulk loading.
//!
//! Streams are infinite iterators, deterministic per seed.

use crate::dataset::{sample_standard_normal, SigmaSpec};
use pfv::Pfv;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of a [`DriftStream`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Sensors registered before the first event is drawn.
    pub initial_sensors: usize,
    /// Feature-space dimensionality.
    pub dims: usize,
    /// Per-observation uncertainty model.
    pub sigma: SigmaSpec,
    /// Random-walk step scale per observation of a sensor (standard
    /// deviation of the Gaussian step in every dimension).
    pub drift: f64,
    /// Reflective walls of the walk, applied per dimension.
    pub bounds: (f64, f64),
    /// Probability an event re-observes an existing sensor (upsert of a
    /// live id) instead of registering a fresh one.
    pub update_fraction: f64,
    /// Probability an event retires a live sensor (delete). Evaluated
    /// before `update_fraction`.
    pub delete_fraction: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            initial_sensors: 64,
            dims: 4,
            sigma: SigmaSpec::uniform(0.05, 0.4),
            drift: 0.02,
            bounds: (0.0, 1.0),
            update_fraction: 0.6,
            delete_fraction: 0.05,
        }
    }
}

/// One stream event.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamOp {
    /// A (re-)observation of sensor `id`: insert or overwrite its pfv.
    Upsert(u64, Pfv),
    /// Sensor `id` retired: remove it (a tombstone in LSM terms).
    Delete(u64),
}

impl StreamOp {
    /// The sensor id the event concerns.
    #[must_use]
    pub fn id(&self) -> u64 {
        match self {
            StreamOp::Upsert(id, _) | StreamOp::Delete(id) => *id,
        }
    }
}

/// An infinite, deterministic drifting-sensor event stream.
///
/// ```
/// use gauss_workloads::drift::{DriftConfig, DriftStream, StreamOp};
///
/// let mut stream = DriftStream::new(DriftConfig::default(), 7);
/// let ops: Vec<StreamOp> = stream.by_ref().take(100).collect();
/// assert_eq!(ops.len(), 100);
/// // Same seed, same prefix.
/// let again: Vec<StreamOp> = DriftStream::new(DriftConfig::default(), 7)
///     .take(100)
///     .collect();
/// assert_eq!(ops, again);
/// ```
#[derive(Debug)]
pub struct DriftStream {
    config: DriftConfig,
    rng: StdRng,
    /// Live sensors: (id, current walk center).
    sensors: Vec<(u64, Vec<f64>)>,
    next_id: u64,
}

impl DriftStream {
    /// A stream over `config` seeded with `seed`.
    ///
    /// # Panics
    /// Panics if `dims == 0`, the bounds are not an ascending non-empty
    /// interval, or a fraction lies outside `[0, 1]`.
    #[must_use]
    pub fn new(config: DriftConfig, seed: u64) -> Self {
        assert!(config.dims > 0, "dims must be positive");
        assert!(
            config.bounds.0 < config.bounds.1,
            "bounds must be an ascending interval"
        );
        for f in [config.update_fraction, config.delete_fraction] {
            assert!((0.0..=1.0).contains(&f), "fractions must lie in [0, 1]");
        }
        let mut stream = Self {
            config,
            rng: StdRng::seed_from_u64(seed),
            sensors: Vec::new(),
            next_id: 0,
        };
        for _ in 0..config.initial_sensors {
            stream.register();
        }
        stream
    }

    /// Ids currently live (inserted and not retired).
    #[must_use]
    pub fn live_ids(&self) -> Vec<u64> {
        self.sensors.iter().map(|(id, _)| *id).collect()
    }

    fn register(&mut self) -> usize {
        let (lo, hi) = self.config.bounds;
        let center: Vec<f64> = (0..self.config.dims)
            .map(|_| self.rng.random_range(lo..hi))
            .collect();
        let id = self.next_id;
        self.next_id += 1;
        self.sensors.push((id, center));
        self.sensors.len() - 1
    }

    /// Advances sensor `idx`'s walk and observes it through its error
    /// model.
    fn observe(&mut self, idx: usize) -> StreamOp {
        let (lo, hi) = self.config.bounds;
        let drift = self.config.drift;
        let dims = self.config.dims;
        let mut center = std::mem::take(&mut self.sensors[idx].1);
        for c in &mut center {
            let mut x = *c + drift * sample_standard_normal(&mut self.rng);
            // Reflect into [lo, hi]; one bounce suffices for sane drifts,
            // clamp covers the rest.
            if x < lo {
                x = lo + (lo - x);
            }
            if x > hi {
                x = hi - (x - hi);
            }
            *c = x.clamp(lo, hi);
        }
        let sigmas = self.config.sigma.draw_object_for(&mut self.rng, &center);
        let means: Vec<f64> = center
            .iter()
            .zip(&sigmas)
            .map(|(&c, &s)| {
                (c + s * sample_standard_normal(&mut self.rng)).clamp(lo - 1.0, hi + 1.0)
            })
            .collect();
        debug_assert_eq!(means.len(), dims);
        let id = self.sensors[idx].0;
        self.sensors[idx].1 = center;
        #[expect(clippy::expect_used, reason = "draw_object_for yields valid sigmas")]
        let pfv = Pfv::new(means, sigmas).expect("drift stream sigmas are positive and finite");
        StreamOp::Upsert(id, pfv)
    }
}

impl Iterator for DriftStream {
    type Item = StreamOp;

    fn next(&mut self) -> Option<StreamOp> {
        let roll: f64 = self.rng.random();
        if !self.sensors.is_empty() && roll < self.config.delete_fraction {
            let idx = self.rng.random_range(0..self.sensors.len());
            let (id, _) = self.sensors.swap_remove(idx);
            return Some(StreamOp::Delete(id));
        }
        let idx = if !self.sensors.is_empty()
            && roll < self.config.delete_fraction + self.config.update_fraction
        {
            self.rng.random_range(0..self.sensors.len())
        } else {
            self.register()
        };
        Some(self.observe(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn cfg() -> DriftConfig {
        DriftConfig {
            initial_sensors: 16,
            dims: 3,
            ..DriftConfig::default()
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<StreamOp> = DriftStream::new(cfg(), 42).take(500).collect();
        let b: Vec<StreamOp> = DriftStream::new(cfg(), 42).take(500).collect();
        let c: Vec<StreamOp> = DriftStream::new(cfg(), 43).take(500).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ops_are_consistent_with_live_set() {
        let mut stream = DriftStream::new(cfg(), 9);
        let mut live: HashSet<u64> = stream.live_ids().into_iter().collect();
        assert_eq!(live.len(), 16);
        let mut saw_delete = 0u32;
        let mut saw_update = 0u32;
        let mut saw_fresh = 0u32;
        for op in stream.by_ref().take(2000) {
            match op {
                StreamOp::Upsert(id, ref pfv) => {
                    assert_eq!(pfv.dims(), 3);
                    for (&m, &s) in pfv.means().iter().zip(pfv.sigmas()) {
                        assert!(s > 0.0);
                        assert!((-1.0..=2.0).contains(&m), "mean {m} escaped bounds");
                    }
                    if live.insert(id) {
                        saw_fresh += 1;
                    } else {
                        saw_update += 1;
                    }
                }
                StreamOp::Delete(id) => {
                    assert!(live.remove(&id), "deleted id {id} was not live");
                    saw_delete += 1;
                }
            }
        }
        assert!(saw_delete > 0 && saw_update > 0 && saw_fresh > 0);
        let now: HashSet<u64> = stream.live_ids().into_iter().collect();
        assert_eq!(live, now, "stream live set drifted from replayed ops");
    }

    #[test]
    fn drift_moves_centers() {
        let mut cfg = cfg();
        cfg.update_fraction = 1.0;
        cfg.delete_fraction = 0.0;
        cfg.initial_sensors = 1;
        let mut stream = DriftStream::new(cfg, 3);
        let first = match stream.next().unwrap() {
            StreamOp::Upsert(_, p) => p,
            StreamOp::Delete(_) => unreachable!("no deletes configured"),
        };
        let later = match stream.nth(200).unwrap() {
            StreamOp::Upsert(_, p) => p,
            StreamOp::Delete(_) => unreachable!("no deletes configured"),
        };
        assert_ne!(first.means(), later.means());
    }
}
