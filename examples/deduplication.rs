//! Record deduplication with uncertain attributes.
//!
//! A customer database accumulated records from several source systems,
//! each measuring "the same" attributes with different reliability (a
//! geocoder with coarse resolution, a form with free-text age, …). For an
//! incoming record, a TIQ returns every existing record that plausibly
//! describes the same entity — with a calibrated probability instead of an
//! opaque similarity score, so the dedup threshold has an interpretation
//! ("merge automatically above 90 %, send to review above 20 %").
//!
//! Run: `cargo run --release --example deduplication`

use gausstree::pfv::Pfv;
use gausstree::storage::{AccessStats, MemStore, SharedBufferPool, DEFAULT_PAGE_SIZE};
use gausstree::tree::ReadView;
use gausstree::tree::{GaussTree, TreeConfig};
use gausstree::workloads::dataset::sample_standard_normal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIMS: usize = 4; // age, household size, geo-x, geo-y (normalised)
const ENTITIES: usize = 400;

/// Per-source measurement reliabilities (σ per attribute).
const SOURCES: [(&str, [f64; DIMS]); 3] = [
    ("CRM export      ", [0.5, 0.2, 0.01, 0.01]),
    ("web form        ", [2.0, 0.8, 0.30, 0.30]),
    ("call-centre note", [5.0, 1.5, 0.80, 0.80]),
];

fn observe(truth: &[f64], sigmas: &[f64], rng: &mut StdRng) -> Pfv {
    let means: Vec<f64> = truth
        .iter()
        .zip(sigmas.iter())
        .map(|(&x, &s)| x + s * sample_standard_normal(rng))
        .collect();
    Pfv::new(means, sigmas.to_vec()).unwrap()
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2024);

    // True entities.
    let truths: Vec<Vec<f64>> = (0..ENTITIES)
        .map(|_| {
            vec![
                20.0 + rng.random::<f64>() * 60.0, // age
                1.0 + rng.random::<f64>() * 5.0,   // household size
                rng.random::<f64>() * 100.0,       // geo-x
                rng.random::<f64>() * 100.0,       // geo-y
            ]
        })
        .collect();

    // Each entity was ingested once through a random source system.
    let pool = SharedBufferPool::new(
        MemStore::new(DEFAULT_PAGE_SIZE),
        4096,
        AccessStats::new_shared(),
    );
    let mut tree = GaussTree::create(pool, TreeConfig::new(DIMS)).unwrap();
    let mut provenance = Vec::with_capacity(ENTITIES);
    for (id, t) in truths.iter().enumerate() {
        let (name, sigmas) = SOURCES[rng.random_range(0..SOURCES.len())];
        tree.insert(id as u64, &observe(t, &sigmas, &mut rng))
            .unwrap();
        provenance.push(name);
    }

    // A batch of incoming records: most are re-observations of existing
    // entities, some are genuinely new.
    let mut auto_merged = 0;
    let mut to_review = 0;
    let mut created = 0;
    let mut correct_links = 0;
    let mut reobs_links = 0;
    let mut new_entity_merges = 0;
    for batch in 0..120 {
        let is_new = batch % 6 == 5;
        let (truth_id, truth_vec);
        let fresh;
        if is_new {
            fresh = vec![
                20.0 + rng.random::<f64>() * 60.0,
                1.0 + rng.random::<f64>() * 5.0,
                rng.random::<f64>() * 100.0,
                rng.random::<f64>() * 100.0,
            ];
            truth_id = usize::MAX;
            truth_vec = &fresh;
        } else {
            truth_id = rng.random_range(0..ENTITIES);
            truth_vec = &truths[truth_id];
        }
        let (_, sigmas) = SOURCES[rng.random_range(0..SOURCES.len())];
        let incoming = observe(truth_vec, &sigmas, &mut rng);

        let matches = tree.tiq(&incoming, 0.20, 1e-4).unwrap();
        match matches.first() {
            Some(best) if best.probability >= 0.90 => {
                auto_merged += 1;
                if is_new {
                    // The identification probability is conditioned on the
                    // query BEING one of the stored objects (paper §3).
                    // Genuinely new entities violate that assumption and can
                    // be matched overconfidently — production dedup needs an
                    // open-world guard (e.g. an absolute density floor).
                    new_entity_merges += 1;
                } else {
                    reobs_links += 1;
                    if best.id as usize == truth_id {
                        correct_links += 1;
                    }
                }
            }
            Some(_) => to_review += 1,
            None => created += 1,
        }
    }

    println!("processed 120 incoming records against {ENTITIES} stored entities:");
    println!("  auto-merged (P ≥ 90%):    {auto_merged}");
    println!("  sent to review (P ≥ 20%): {to_review}");
    println!("  created as new:           {created}");
    println!("  re-observation merges:    {correct_links}/{reobs_links} correct");
    println!(
        "  closed-world caveat:      {new_entity_merges} genuinely new entities \
were matched ≥90% — the §3 posterior assumes the query IS stored; guard with \
an absolute density floor in open-world settings"
    );
    assert!(
        reobs_links == 0 || correct_links * 100 >= reobs_links * 90,
        "re-observation merges above 90% probability should rarely be wrong \
({correct_links}/{reobs_links})"
    );

    // Show one concrete decision with its probability breakdown.
    let probe = observe(&truths[42], &SOURCES[1].1, &mut rng);
    println!("\nexample: incoming record {probe}");
    for m in tree.tiq(&probe, 0.05, 1e-4).unwrap() {
        println!(
            "  candidate #{:<4} from {:<16} P = {:>5.1}%",
            m.id,
            provenance[m.id as usize],
            100.0 * m.probability
        );
    }
}
