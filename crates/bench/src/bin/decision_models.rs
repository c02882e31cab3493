//! E6 — The Sec. IV decision models:
//!
//! 1. operating-cost vs speed trade-off over the Table I clusters
//!    (choose DDD when the accelerator is expensive, DDA when speed
//!    matters), and
//! 2. the energy-budget hysteresis switch between alg_DDD (all compute on
//!    the device) and alg_DAA (most FLOPs offloaded), with the full
//!    controller trace.

use relperf_bench::{header, run_pipeline, SEED};
use relperf_core::decision::{CostSpeedModel, EnergyBudgetController, Mode};
use relperf_workloads::experiment::{profiles, Experiment};

fn main() {
    header("Sec. IV decision models over the Table I clusters");
    let exp = Experiment::table1(10);
    let (measured, table) = run_pipeline(&exp, 30, 100, SEED);
    let clustering = table.final_assignment();
    let profs = profiles(&measured, &clustering);

    println!(
        "{:<6} {:>5} {:>7} {:>12} {:>14} {:>12} {:>14}",
        "alg", "class", "score", "mean [s]", "device MFLOPs", "cost", "device E [J]"
    );
    for p in &profs {
        println!(
            "{:<6} {:>5} {:>7.2} {:>12.6} {:>14.2} {:>12.6} {:>14.6}",
            p.label,
            p.rank,
            p.score,
            p.mean_time_s,
            p.device_flops as f64 / 1e6,
            p.operating_cost,
            p.device_energy_j
        );
    }

    println!("\n-- cost/speed trade-off --");
    for (name, model) in [
        (
            "speed-first (w_cost = 0.05)",
            CostSpeedModel { time_weight: 1.0, cost_weight: 0.05, confidence_weight: 0.1 },
        ),
        (
            "balanced    (w_cost = 1.0)",
            CostSpeedModel { time_weight: 1.0, cost_weight: 1.0, confidence_weight: 0.1 },
        ),
        (
            "frugal      (w_cost = 10)",
            CostSpeedModel { time_weight: 1.0, cost_weight: 10.0, confidence_weight: 0.1 },
        ),
    ] {
        let pick = model.select(&profs).expect("non-empty candidate set");
        println!("{name}: selects alg{}", profs[pick].label);
    }
    let cheapest_best = CostSpeedModel::cheapest_within_rank(&profs, 2).unwrap();
    println!(
        "cheapest within the two best classes: alg{}",
        profs[cheapest_best].label
    );

    println!("\n-- energy-budget switching (DDD <-> DAA) --");
    let high = profs.iter().find(|p| p.label == "DDD").unwrap();
    let low = profs.iter().find(|p| p.label == "DAA").unwrap();
    let ctrl = EnergyBudgetController {
        high_watermark_j: 6.0 * high.device_energy_j,
        low_watermark_j: 2.0 * high.device_energy_j,
        dissipation_j: 0.55 * high.device_energy_j,
    };
    let trace = ctrl.simulate(high, low, 60);
    for step in &trace {
        let mode = match step.mode {
            Mode::HighPerformance => "DDD",
            Mode::LowEnergy => "DAA",
        };
        println!(
            "run {:>3}: {}  reservoir = {:>8.4} J{}",
            step.run,
            mode,
            step.reservoir_j,
            if step.switched { "  << switch" } else { "" }
        );
    }
    let switches = trace.iter().filter(|s| s.switched).count();
    println!("total mode switches over 60 runs: {switches}");
}
