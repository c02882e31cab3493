//! Absolute-output golden of the simulator: the seeded measurement samples
//! of the paper's two experiments and every field of the noiseless
//! execution record of every preset, pinned as FNV-1a digests of their
//! exact bits.
//!
//! The other goldens compare code paths with each other; this one pins
//! what the simulator *prints*, so a refactor of the executor that moves a
//! noise draw or reorders a float sum fails here even when every code path
//! moves together.

use relperf_core::cluster::Parallelism;
use relperf_sim::{presets, ExecutionRecord, Platform};
use relperf_workloads::experiment::{measure_all_seeded, Experiment};

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn record(&mut self, rec: &ExecutionRecord) {
        self.f64(rec.total_time_s);
        self.f64(rec.device_busy_s);
        self.f64(rec.accel_busy_s);
        self.f64(rec.transfer_s);
        self.u64(rec.device_flops);
        self.u64(rec.accel_flops);
        self.u64(rec.bytes_transferred);
        self.f64(rec.energy.device_j);
        self.f64(rec.energy.accel_j);
        self.f64(rec.energy.link_j);
        self.f64(rec.operating_cost);
        self.u64(rec.per_task.len() as u64);
        for t in &rec.per_task {
            self.bytes(t.name.as_bytes());
            self.bytes(t.loc.to_string().as_bytes());
            self.f64(t.time_s);
            self.f64(t.transfer_s);
            self.u64(t.flops);
        }
    }
}

fn samples_digest(exp: &Experiment, n: usize, seed: u64) -> u64 {
    let mut h = Fnv::new();
    for m in measure_all_seeded(exp, n, seed, Parallelism::serial()) {
        h.bytes(m.label.as_bytes());
        for &v in m.sample.values() {
            h.f64(v);
        }
    }
    h.0
}

/// Digest of `execute_noiseless` on every placement of `exp`, run on
/// `platform`.
fn records_digest(platform: &Platform, exp: &Experiment) -> u64 {
    let mut h = Fnv::new();
    for (label, placement) in &exp.placements {
        h.bytes(label.as_bytes());
        h.record(&platform.execute_noiseless(&exp.tasks, placement));
    }
    h.0
}

#[test]
fn golden_measurement_samples_pinned() {
    let got = [
        samples_digest(&Experiment::fig1(), 30, 1235),
        samples_digest(&Experiment::table1(10), 30, 1235),
    ];
    assert_eq!(
        got,
        [0xa7d5_f025_d137_f69a, 0x57a8_4455_d1f3_60a2],
        "{got:#018x?}"
    );
}

#[test]
fn golden_noiseless_records_pinned() {
    let fig1 = Experiment::fig1();
    let table1 = Experiment::table1(10);
    let fem = Experiment::table1_fem(10);
    // Every preset on its own experiment; the two presets without one run
    // the Table I code.
    let got = [
        records_digest(&presets::fig1_platform(), &fig1),
        records_digest(&presets::table1_platform(), &table1),
        records_digest(&presets::table1_fem_platform(), &fem),
        records_digest(&presets::raspberry_platform(), &table1),
        records_digest(&presets::smartphone_platform(), &table1),
    ];
    assert_eq!(
        got,
        [
            0xf4ab_915b_eb0c_8d99,
            0xfccb_c6cb_52cd_1a72,
            0x4120_7593_4da1_446f,
            0xa24f_28f6_afaf_a45f,
            0x1447_be39_9929_4076,
        ],
        "{got:#018x?}"
    );
}
