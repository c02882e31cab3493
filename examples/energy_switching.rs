//! Energy-aware algorithm switching (the paper's second Sec. IV scenario):
//! run alg_DDD (everything on the edge device) until the device's energy
//! reservoir fills up, switch to alg_DAA (which offloads most device
//! FLOPs), and switch back once the device has cooled down.
//!
//! Expected output: the per-run device energy of both algorithms, the
//! hysteresis thresholds, then a `run N [DDD|DAA] █… J` bar timeline
//! showing the reservoir saw-toothing between the switch-down and
//! switch-up levels.
//!
//! Run with: `cargo run --release --example energy_switching`

use relative_performance::prelude::*;

fn main() {
    let experiment = Experiment::table1(10);
    let seed = 99;
    let measured = measure_all_seeded(&experiment, 30, seed, Parallelism::auto());

    let comparator = BootstrapComparator::new(5);
    let table = cluster_measurements_seeded(
        &measured,
        &comparator,
        ClusterConfig::with_repetitions(50),
        seed,
    );
    let profs = profiles(&measured, &table.final_assignment());

    let high = profs.iter().find(|p| p.label == "DDD").unwrap();
    let low = profs.iter().find(|p| p.label == "DAA").unwrap();
    println!(
        "high-performance alg{}: {:.4} J on the device per run",
        high.label, high.device_energy_j
    );
    println!(
        "low-energy       alg{}: {:.4} J on the device per run ({}x fewer device FLOPs)",
        low.label,
        low.device_energy_j,
        high.device_flops / low.device_flops.max(1)
    );

    let controller = EnergyBudgetController {
        high_watermark_j: 6.0 * high.device_energy_j,
        low_watermark_j: 2.0 * high.device_energy_j,
        dissipation_j: 0.55 * high.device_energy_j,
    };
    println!(
        "\nhysteresis: switch down at {:.3} J, back up at {:.3} J\n",
        controller.high_watermark_j, controller.low_watermark_j
    );

    let trace = controller.simulate(high, low, 50);
    for step in &trace {
        let bar_len = (step.reservoir_j / controller.high_watermark_j * 30.0) as usize;
        println!(
            "run {:>3} [{}] {:<30} {:>8.4} J{}",
            step.run,
            match step.mode {
                Mode::HighPerformance => "DDD",
                Mode::LowEnergy => "DAA",
            },
            "█".repeat(bar_len.min(30)),
            step.reservoir_j,
            if step.switched { "  << switch" } else { "" }
        );
    }

    let switches = trace.iter().filter(|s| s.switched).count();
    let low_share = trace.iter().filter(|s| s.mode == Mode::LowEnergy).count() as f64
        / trace.len() as f64;
    println!(
        "\n{} switches; {:.0}% of runs in low-energy mode",
        switches,
        100.0 * low_share
    );
}
