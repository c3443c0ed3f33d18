//! Figure 6 — Domain-folding design impact.
//!
//! Matelda-Standard vs. Matelda-Santos (unionability-score folding) vs.
//! Matelda-RS (row-sampled embeddings) on DGov-NTR: effectiveness per
//! budget plus average runtimes (§4.5.2 quotes 4963s Santos / 1130s
//! Standard / 998s RS at the authors' scale — the *ordering* is the
//! reproducible claim). On Quintet the paper notes SANTOS produces the
//! same folds as the standard method; we verify that too.

use matelda_bench::{budget_axis, secs, Extra, MateldaSystem, Scale, Sweep, SweepLake};
use matelda_core::{domain_folds, DomainFolding, MateldaConfig};
use matelda_embed::encoder::HashedEncoder;
use matelda_lakegen::{DGovLake, QuintetLake};

fn variants() -> Vec<MateldaSystem> {
    vec![
        MateldaSystem::standard(),
        MateldaSystem::variant(
            "Matelda-Santos",
            MateldaConfig { domain_folding: DomainFolding::SantosLike, ..Default::default() },
        ),
        MateldaSystem::variant(
            "Matelda-RS",
            // The paper samples 1% of rows; our tables are ~50 rows, so the
            // equivalent "small but non-degenerate" sample is 10%.
            MateldaConfig { domain_folding: DomainFolding::RowSampling(0.1), ..Default::default() },
        ),
        // Extension: SANTOS unionability over MinHash sketches — the
        // scalable variant of the same folding idea.
        MateldaSystem::variant(
            "Matelda-SantosMH",
            MateldaConfig { domain_folding: DomainFolding::SantosSketch(64), ..Default::default() },
        ),
    ]
}

fn main() {
    let scale = Scale::from_env();
    println!("=== Figure 6: Domain folding design impact (scale: {scale:?}) ===\n");

    // Quintet fold-equality check (the reason the paper shows no Quintet
    // graph for SANTOS).
    let quintet = QuintetLake::default().generate(1);
    let encoder = HashedEncoder::default();
    let norm = |mut folds: Vec<Vec<usize>>| {
        folds.iter_mut().for_each(|f| f.sort_unstable());
        folds.sort();
        folds
    };
    let standard_folds = norm(
        domain_folds(&quintet.dirty, DomainFolding::Hdbscan, &encoder, 0)
            .iter()
            .map(|f| f.tables())
            .collect(),
    );
    let santos_folds = norm(
        domain_folds(&quintet.dirty, DomainFolding::SantosLike, &encoder, 0)
            .iter()
            .map(|f| f.tables())
            .collect(),
    );
    println!(
        "Quintet: SANTOS folds == standard folds? {} ({:?})\n",
        standard_folds == santos_folds,
        santos_folds
    );

    let n = scale.tables(143);
    let lakes: Vec<SweepLake> =
        vec![("DGov-NTR", Box::new(move |s| DGovLake::ntr().with_n_tables(n).generate(s)))];
    let budgets = budget_axis(scale);
    let sweep = Sweep::run("fig6", scale, &lakes, &budgets, |_, _| variants());
    let caption = "F1 and runtime per domain-folding design";
    sweep.print_f1_table("DGov-NTR", caption, Some(Extra::Time));

    println!("average runtimes:");
    let mut names = sweep.systems("DGov-NTR").to_vec();
    names.sort();
    for name in &names {
        let cells: Vec<_> =
            budgets.iter().filter_map(|&b| sweep.cell("DGov-NTR", name, b)).collect();
        println!(
            "  {name}: {}",
            secs(cells.iter().map(|c| c.seconds).sum::<f64>() / cells.len() as f64)
        );
    }
    sweep.finish().expect("write EVAL matrix");

    println!("\nshape checks (paper §4.5.2): Santos ≈ Standard ≈ RS in F1;");
    println!("runtime Santos > Standard > RS. Extension: SantosMH (MinHash-");
    println!("sketched unionability) should match Santos's F1 at a fraction of");
    println!("its folding cost.");
}
