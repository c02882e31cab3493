//! E4 — Regenerates Table I: the 8 placements of the three-`MathTask`
//! scientific code (sizes 50/75/300, n=10 RLS iterations each), N=30
//! measurements, clustered into performance classes with relative scores.
//!
//! Expected structure (paper): C1 {DDA, DAA·0.6}; C2 {DDD, DAA·0.4};
//! C3 {ADA, ADD, DAD·0.7}; C4 {AAA, DAD·0.3}; C5 {AAD}. At `SEED` this
//! prints C1 {DDA, DAA·0.59}; C2 {DDD, DAA·0.41}; then ADA, {DAD, ADD,
//! AAD} and AAA — five final classes. The head matches the paper (DDA
//! best, DAA straddling C1/C2, DDD in C2); in the tail AAA, not AAD, is
//! the slowest. The `paper_artifacts_at_seed` test pins this structure.

use relperf_bench::{header, print_clusters, print_summary, run_pipeline, SEED};
use relperf_core::report::{clustering_markdown, score_table_markdown};
use relperf_workloads::experiment::Experiment;

fn main() {
    header("Table I — clustering of the 8 placements (N = 30, Rep = 100)");
    let exp = Experiment::table1(10);
    let (measured, table) = run_pipeline(&exp, 30, 100, SEED);

    print_summary(&measured);
    print_clusters(&table, &measured);

    let labels: Vec<String> = measured.iter().map(|m| m.label.clone()).collect();
    println!("\nMarkdown (paper Table I layout):\n");
    println!("{}", score_table_markdown(&table, &labels));
    println!("Final assignment:\n");
    println!("{}", clustering_markdown(&table.final_assignment(), &labels));

    let idx = |l: &str| measured.iter().position(|m| m.label == l).unwrap();
    let speedup = measured[idx("DDD")].sample.mean() / measured[idx("DDA")].sample.mean();
    println!("DDA speed-up over DDD at n=10: {speedup:.3} (paper: ≈1.05)");
}
