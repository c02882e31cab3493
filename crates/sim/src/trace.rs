//! Execution traces: Gantt-style timelines and utilization summaries
//! derived from an [`ExecutionRecord`].
//!
//! Used by the examples to *show* where an algorithm spends its time —
//! the visual counterpart of the paper's claim that the data movement of
//! an offloaded loop can eat its compute gain.

use crate::executor::ExecutionRecord;
use crate::task::Loc;

/// One rendered timeline segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Task name.
    pub name: String,
    /// Where the task ran.
    pub loc: Loc,
    /// Start offset from t=0, seconds.
    pub start_s: f64,
    /// Segment duration, seconds.
    pub duration_s: f64,
    /// Portion of the duration spent on the link, seconds.
    pub transfer_s: f64,
}

/// Builds the sequential timeline of an execution record.
pub fn timeline(record: &ExecutionRecord) -> Vec<Segment> {
    let mut t = 0.0;
    record
        .per_task
        .iter()
        .map(|task| {
            let seg = Segment {
                name: task.name.clone(),
                loc: task.loc,
                start_s: t,
                duration_s: task.time_s,
                transfer_s: task.transfer_s,
            };
            t += task.time_s;
            seg
        })
        .collect()
}

/// Per-resource utilization fractions of a record (busy time / total).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Utilization {
    /// Edge-device busy fraction.
    pub device: f64,
    /// Busy fraction of the accelerators together.
    pub accelerator: f64,
    /// Busy fraction of the links together.
    pub link: f64,
}

/// Computes utilization from a record. All zero for an empty record.
pub fn utilization(record: &ExecutionRecord) -> Utilization {
    if record.total_time_s <= 0.0 {
        return Utilization {
            device: 0.0,
            accelerator: 0.0,
            link: 0.0,
        };
    }
    Utilization {
        device: record.device_busy_s / record.total_time_s,
        accelerator: record.accel_busy_s / record.total_time_s,
        link: record.transfer_s / record.total_time_s,
    }
}

/// Renders an ASCII Gantt chart of the record, `width` characters wide.
///
/// Each task is one row; compute cells carry the letter of where the task
/// ran (`D`, `A`, `B`, …), `~` marks link time (appended at the task's tail, which is
/// a rendering simplification — transfers are interleaved in reality).
pub fn render_gantt(record: &ExecutionRecord, width: usize) -> String {
    assert!(width >= 10, "gantt needs at least 10 columns");
    let total = record.total_time_s;
    if total <= 0.0 {
        return String::from("(empty execution)\n");
    }
    let mut out = String::new();
    for seg in timeline(record) {
        let start = (seg.start_s / total * width as f64).round() as usize;
        let len = ((seg.duration_s / total * width as f64).round() as usize).max(1);
        let transfer_len =
            ((seg.transfer_s / total * width as f64).round() as usize).min(len);
        let compute_len = len - transfer_len;
        let fill = seg.loc.to_string();
        out.push_str(&format!("{:<6} |", seg.name));
        out.push_str(&" ".repeat(start.min(width)));
        out.push_str(&fill.repeat(compute_len.min(width.saturating_sub(start))));
        out.push_str(&"~".repeat(transfer_len.min(
            width.saturating_sub(start + compute_len),
        )));
        out.push_str(&format!(
            "  {:.4}s{}\n",
            seg.duration_s,
            if seg.transfer_s > 0.0 {
                format!(" (link {:.4}s)", seg.transfer_s)
            } else {
                String::new()
            }
        ));
    }
    let u = utilization(record);
    out.push_str(&format!(
        "util   | device {:.0}%  accel {:.0}%  link {:.0}%\n",
        100.0 * u.device,
        100.0 * u.accelerator,
        100.0 * u.link
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::TaskRecord;

    fn record() -> ExecutionRecord {
        ExecutionRecord {
            total_time_s: 1.0,
            device_busy_s: 0.6,
            accel_busy_s: 0.3,
            transfer_s: 0.1,
            per_task: vec![
                TaskRecord {
                    name: "L1".into(),
                    loc: Loc::Device,
                    time_s: 0.6,
                    transfer_s: 0.0,
                    flops: 100,
                },
                TaskRecord {
                    name: "L2".into(),
                    loc: Loc::Accelerator(0),
                    time_s: 0.4,
                    transfer_s: 0.1,
                    flops: 200,
                },
            ],
            ..Default::default()
        }
    }

    #[test]
    fn timeline_offsets_are_cumulative() {
        let tl = timeline(&record());
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0].start_s, 0.0);
        assert!((tl[1].start_s - 0.6).abs() < 1e-12);
        assert_eq!(tl[1].loc, Loc::Accelerator(0));
    }

    #[test]
    fn utilization_fractions() {
        let u = utilization(&record());
        assert!((u.device - 0.6).abs() < 1e-12);
        assert!((u.accelerator - 0.3).abs() < 1e-12);
        assert!((u.link - 0.1).abs() < 1e-12);
    }

    #[test]
    fn utilization_of_empty_record_is_zero() {
        let u = utilization(&ExecutionRecord::default());
        assert_eq!(u.device, 0.0);
        assert_eq!(u.accelerator, 0.0);
        assert_eq!(u.link, 0.0);
    }

    #[test]
    fn gantt_renders_both_rows() {
        let g = render_gantt(&record(), 40);
        assert!(g.contains("L1"));
        assert!(g.contains("L2"));
        assert!(g.contains('D'));
        assert!(g.contains('A'));
        assert!(g.contains('~'));
        assert!(g.contains("util"));
    }

    #[test]
    fn gantt_empty_record() {
        assert!(render_gantt(&ExecutionRecord::default(), 40).contains("empty"));
    }

    #[test]
    #[should_panic(expected = "at least 10 columns")]
    fn gantt_width_checked() {
        render_gantt(&record(), 5);
    }
}
