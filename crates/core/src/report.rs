//! Report rendering: Markdown and CSV emitters for the paper's tables and
//! figures — the relative-score layout of Table I, the sort walkthrough of
//! Fig. 2, and ASCII histogram panels in the style of Fig. 1b.

use crate::cluster::{Clustering, ScoreTable};

/// Renders the per-cluster relative-score view (the paper's Table I layout:
/// one row per (cluster, algorithm, score) with the cluster label only on
/// its first row).
pub fn score_table_markdown(table: &ScoreTable, labels: &[String]) -> String {
    assert_eq!(
        labels.len(),
        table.num_algorithms(),
        "one label per algorithm required"
    );
    let mut out = String::from("| Cluster | Algorithm | Relative Score |\n|---|---|---|\n");
    for (idx, cluster) in table.clusters().iter().enumerate() {
        let mut first = true;
        for &(alg, score) in cluster {
            let cluster_cell = if first {
                format!("C{}", idx + 1)
            } else {
                String::new()
            };
            first = false;
            out.push_str(&format!(
                "| {} | alg{} | {:.2} |\n",
                cluster_cell, labels[alg], score
            ));
        }
    }
    out
}

/// Renders a final (single-class-per-algorithm) clustering as Markdown.
pub fn clustering_markdown(clustering: &Clustering, labels: &[String]) -> String {
    let mut out = String::from("| Cluster | Algorithm | Cumulative Score |\n|---|---|---|\n");
    for rank in 1..=clustering.num_classes() {
        let mut first = true;
        for a in clustering.class(rank) {
            let cell = if first { format!("C{rank}") } else { String::new() };
            first = false;
            out.push_str(&format!(
                "| {} | alg{} | {:.2} |\n",
                cell, labels[a.algorithm], a.score
            ));
        }
    }
    out
}

/// Renders the relative-score table as CSV (`algorithm,rank,score` rows,
/// positive scores only).
pub fn score_table_csv(table: &ScoreTable, labels: &[String]) -> String {
    assert_eq!(labels.len(), table.num_algorithms());
    let mut out = String::from("algorithm,rank,score\n");
    for alg in 0..table.num_algorithms() {
        for rank in 1..=table.num_classes() {
            let s = table.score(alg, rank);
            if s > 0.0 {
                out.push_str(&format!("{},{},{:.4}\n", labels[alg], rank, s));
            }
        }
    }
    out
}

/// Renders aligned histogram panels (one per algorithm) — the textual
/// equivalent of the paper's Fig. 1b distribution plot.
pub fn histogram_panels(
    panels: &[(String, relperf_measure::sample::Histogram)],
    bar_width: usize,
) -> String {
    let mut out = String::new();
    for (label, hist) in panels {
        out.push_str(&format!("── {label} ──\n"));
        out.push_str(&hist.render_ascii(bar_width));
        out.push('\n');
    }
    out
}

/// Renders a complete experiment report: summary statistics, the
/// per-cluster score table, the final assignment, and the decision-model
/// profiles — one self-contained Markdown document per experiment.
pub fn full_report(
    title: &str,
    table: &ScoreTable,
    labels: &[String],
    profiles: &[crate::decision::AlgorithmProfile],
) -> String {
    assert_eq!(labels.len(), table.num_algorithms());
    let mut out = format!("# {title}\n\n## Summary\n\n");
    out.push_str("| Algorithm | Class | Score | Mean time [s] | Device MFLOPs | Cost |\n");
    out.push_str("|---|---|---|---|---|---|\n");
    for p in profiles {
        out.push_str(&format!(
            "| alg{} | C{} | {:.2} | {:.6} | {:.2} | {:.6} |\n",
            p.label,
            p.rank,
            p.score,
            p.mean_time_s,
            p.device_flops as f64 / 1e6,
            p.operating_cost
        ));
    }
    out.push_str("\n## Relative scores\n\n");
    out.push_str(&score_table_markdown(table, labels));
    out.push_str("\n## Final assignment\n\n");
    out.push_str(&clustering_markdown(&table.final_assignment(), labels));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{relative_scores_seeded, ClusterConfig};
    use relperf_measure::Outcome;
    use relperf_measure::Sample;

    fn table() -> (ScoreTable, Vec<String>) {
        static LEVELS: [usize; 3] = [1, 0, 1];
        let cmp = |_stream: u64, a: usize, b: usize| match LEVELS[a].cmp(&LEVELS[b]) {
            std::cmp::Ordering::Less => Outcome::Better,
            std::cmp::Ordering::Greater => Outcome::Worse,
            std::cmp::Ordering::Equal => Outcome::Equivalent,
        };
        let t = relative_scores_seeded(3, ClusterConfig::with_repetitions(10), 91, cmp);
        let labels = vec!["DD".to_string(), "AD".to_string(), "DA".to_string()];
        (t, labels)
    }

    #[test]
    fn markdown_contains_all_algorithms() {
        let (t, labels) = table();
        let md = score_table_markdown(&t, &labels);
        assert!(md.contains("algAD"));
        assert!(md.contains("algDD"));
        assert!(md.contains("algDA"));
        assert!(md.contains("C1"));
        assert!(md.contains("C2"));
        assert!(md.starts_with("| Cluster |"));
    }

    #[test]
    fn clustering_markdown_renders_classes() {
        let (t, labels) = table();
        let md = clustering_markdown(&t.final_assignment(), &labels);
        assert!(md.contains("C1"));
        assert!(md.contains("C2"));
        assert!(md.contains("1.00"));
    }

    #[test]
    fn csv_rows_for_positive_scores_only() {
        let (t, labels) = table();
        let csv = score_table_csv(&t, &labels);
        let lines: Vec<&str> = csv.trim().lines().collect();
        // Header + one row per algorithm (deterministic comparator).
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "algorithm,rank,score");
        assert!(lines.iter().skip(1).all(|l| l.ends_with("1.0000")));
    }

    #[test]
    #[should_panic(expected = "one label per algorithm")]
    fn label_count_checked() {
        let (t, _) = table();
        score_table_markdown(&t, &["x".to_string()]);
    }

    #[test]
    fn full_report_contains_all_sections() {
        let (t, labels) = table();
        let profiles: Vec<crate::decision::AlgorithmProfile> = labels
            .iter()
            .enumerate()
            .map(|(i, l)| crate::decision::AlgorithmProfile {
                label: l.clone(),
                rank: t.final_assignment().assignment(i).rank,
                score: 1.0,
                mean_time_s: 0.1 * (i + 1) as f64,
                device_flops: 1_000,
                accel_flops: 0,
                operating_cost: 0.0,
                device_energy_j: 1.0,
            })
            .collect();
        let doc = full_report("Test Experiment", &t, &labels, &profiles);
        assert!(doc.starts_with("# Test Experiment"));
        assert!(doc.contains("## Summary"));
        assert!(doc.contains("## Relative scores"));
        assert!(doc.contains("## Final assignment"));
        assert!(doc.contains("algAD"));
    }

    #[test]
    fn histogram_panels_render() {
        let s = Sample::new(vec![1.0, 1.1, 1.2, 2.0]).unwrap();
        let text = histogram_panels(&[("algDD".into(), s.histogram(4))], 20);
        assert!(text.contains("── algDD ──"));
        assert!(text.contains('#'));
    }
}
