//! Report rendering: Markdown emitters for the paper's tables and figures —
//! the relative-score layout of Table I, the final class assignment, and
//! ASCII histogram panels in the style of Fig. 1b.

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
    #[should_panic(expected = "one label per algorithm")]
    fn label_count_checked() {
        let (t, _) = table();
        score_table_markdown(&t, &["x".to_string()]);
    }

    #[test]
    fn histogram_panels_render() {
        let s = Sample::new(vec![1.0, 1.1, 1.2, 2.0]).unwrap();
        let text = histogram_panels(&[("algDD".into(), s.histogram(4))], 20);
        assert!(text.contains("── algDD ──"));
        assert!(text.contains('#'));
    }
}
