//! Sensor-station identification with on-disk persistence.
//!
//! A network of environmental stations reports feature vectors
//! (temperature, humidity, particulate readings, …) whose accuracy depends
//! on each station's calibration state. Given an anonymous reading, a
//! threshold identification query returns every station that could have
//! produced it with at least some probability — the TIQ example from the
//! paper ("all persons that could be shown on the image with ≥ 10 %").
//!
//! The index is bulk-loaded into a page file — written once, committed
//! once — then reopened and queried — demonstrating the storage layer end
//! to end.
//!
//! Run: `cargo run --release --example sensor_fusion`

use gausstree::pfv::Pfv;
use gausstree::storage::{AccessStats, FileStore, SharedBufferPool, DEFAULT_PAGE_SIZE};
use gausstree::tree::ReadView;
use gausstree::tree::{GaussTree, TreeConfig};
use gausstree::workloads::dataset::sample_standard_normal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIMS: usize = 6;
const STATIONS: usize = 300;

fn main() {
    let dir = std::env::temp_dir().join(format!("gauss-sensors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stations.gtree");

    let mut rng = StdRng::seed_from_u64(7);
    let truths: Vec<Vec<f64>> = (0..STATIONS)
        .map(|_| (0..DIMS).map(|_| rng.random::<f64>() * 10.0).collect())
        .collect();

    // Build and persist the index.
    {
        let mut stations = Vec::with_capacity(STATIONS);
        for (id, t) in truths.iter().enumerate() {
            // Freshly calibrated stations report precisely; stale ones noisily.
            let calibration: f64 = rng.random_range(0.05..0.8);
            let sigmas: Vec<f64> = (0..DIMS)
                .map(|_| calibration * rng.random_range(0.5..1.5))
                .collect();
            let means: Vec<f64> = t
                .iter()
                .zip(sigmas.iter())
                .map(|(&x, &s)| x + s * sample_standard_normal(&mut rng))
                .collect();
            stations.push((id as u64, Pfv::new(means, sigmas).unwrap()));
        }
        let store = FileStore::create(&path, DEFAULT_PAGE_SIZE).unwrap();
        let pool = SharedBufferPool::new(store, 1024, AccessStats::new_shared());
        let tree = GaussTree::bulk_load(pool, TreeConfig::new(DIMS), stations).unwrap();
        println!(
            "persisted {} stations into {} ({} pages)",
            tree.len(),
            path.display(),
            tree.pool().num_pages()
        );
    } // tree dropped, file closed

    // Reopen from disk and identify an anonymous reading.
    {
        let store = FileStore::open(&path, DEFAULT_PAGE_SIZE).unwrap();
        let pool = SharedBufferPool::new(store, 1024, AccessStats::new_shared());
        let tree = GaussTree::open(pool).unwrap();
        println!(
            "reopened: {} stations, height {}, dims {}",
            tree.len(),
            tree.height(),
            tree.dims()
        );

        let station = 123usize;
        let sigmas = vec![0.2; DIMS];
        let means: Vec<f64> = truths[station]
            .iter()
            .zip(sigmas.iter())
            .map(|(&x, &s)| x + s * sample_standard_normal(&mut rng))
            .collect();
        let reading = Pfv::new(means, sigmas).unwrap();

        println!("\nanonymous reading: {reading}");
        println!("TIQ(10%) — stations that could have produced it:");
        let hits = tree.tiq(&reading, 0.10, 1e-6).unwrap();
        for r in &hits {
            let marker = if r.id as usize == station {
                "  <-- true source"
            } else {
                ""
            };
            println!(
                "  station #{:<4} P = {:>5.1}%{}",
                r.id,
                100.0 * r.probability,
                marker
            );
        }
        assert!(
            hits.iter().any(|r| r.id as usize == station),
            "the true station should pass a 10% threshold for a precise reading"
        );

        let snap = tree.stats().snapshot();
        println!(
            "\nquery cost: {} logical / {} physical page reads",
            snap.logical_reads, snap.physical_reads
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}
