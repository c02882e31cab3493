//! The repository benchmark: wire request in → scored table out.
//!
//! ```text
//! perfbench --workload <solo_campaign|fleet_campaign|ingest_stream>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (see `perfbench/README.md`). Inputs come
//! from `--seed`; every response is checked against a bare
//! `ClusterSession` oracle; the last line of stdout is one JSON object
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Scratch files live under `.perfbench/` and are removed
//! at exit; traced runs leave their span CSVs in `.perfbench/trace/`.

mod drive;
mod inputs;
mod layers;
mod stats;
mod trace;

use drive::{open_stack, plain_store, run_window, ConnResult, Stack, UnitSample, Window};
use inputs::{generate, Inputs, Workload};
use relperf_measure::ScratchThreeWayComparator;
use relperf_service::journal::JournalStore;
use relperf_service::stats::ServiceStats;
use stats::{median, quantile, tail_q, union_len};
use std::cell::Cell;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use trace::{
    CountingStream, JournalCounters, Recorder, StreamTaps, TimedComparator, TimedJournalStore,
};

/// Times the full stack is opened per untraced run; `setup_s` is the
/// median.
const SETUP_REPS: usize = 31;
/// Unmeasured closed-loop time before the window opens.
const WARMUP: Duration = Duration::from_secs(1);
/// Time the per-tier solo costs get in a traced run.
const TIER_BUDGET: Duration = Duration::from_secs(3);
/// Window of the saturation probe in a traced run.
const PROBE: Duration = Duration::from_secs(4);
/// Spans are stored for at most this much of the traced window.
const SPAN_WINDOW: Duration = Duration::from_secs(1);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or(format!("missing {flag}"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <solo_campaign|fleet_campaign|ingest_stream> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let dir = PathBuf::from(".perfbench").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let result = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("create {}: {e}", dir.display()))
        .and_then(|()| {
            eprintln!(
                "perfbench: {} seed {} for {} s (trace {}), journal filesystem {}",
                args.workload.name(),
                args.seed,
                args.seconds,
                args.trace as u8,
                filesystem_of(&dir)
            );
            if args.trace {
                traced_run(&args, &dir)
            } else {
                plain_run(&args, &dir)
            }
        });
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(report) => println!("{}", report.json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The run's result line.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                eprintln!("  {name:<28} {value:>16.6} {unit}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Merged results of one measured window.
struct Measured {
    samples: Vec<UnitSample>,
    units: u64,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    snapshot_bytes: u64,
    snapshots: u64,
    stats: Option<(ServiceStats, ServiceStats)>,
    seconds: f64,
}

impl Measured {
    fn new(results: Vec<ConnResult>, win: Window) -> Result<Self, String> {
        let mut m = Measured {
            samples: Vec::new(),
            units: 0,
            attempted: 0,
            failed: 0,
            mismatches: 0,
            snapshot_bytes: 0,
            snapshots: 0,
            stats: None,
            seconds: (win.end - win.start).as_secs_f64(),
        };
        for r in results {
            if let Some(e) = &r.first_error {
                eprintln!("perfbench: {e}");
            }
            m.samples.extend(r.samples);
            m.units += r.units;
            m.attempted += r.attempted;
            m.failed += r.failed;
            m.mismatches += r.mismatches;
            m.snapshot_bytes += r.snapshot_bytes;
            m.snapshots += r.snapshots;
            m.stats = m.stats.or(r.stats);
        }
        if m.samples.is_empty() {
            return Err("no request completed inside the window".into());
        }
        Ok(m)
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.latency().as_secs_f64() * 1e3)
            .collect()
    }

    fn p50_ms(&self) -> f64 {
        median(&self.latencies_ms())
    }
}

fn window(seconds: f64) -> Window {
    let start = Instant::now() + WARMUP;
    Window {
        start,
        end: start + Duration::from_secs_f64(seconds),
    }
}

/// Opens the plain (untraced) stack.
fn open_plain(
    inputs: &Inputs,
    dir: &Path,
) -> Result<Stack<relperf_measure::BootstrapComparator, UnixStream>, String> {
    let w = inputs.workload;
    open_stack(
        w,
        w.tenants_per_connection(),
        inputs.comparator(),
        dir,
        plain_store,
        |s| s,
    )
}

/// Runs one window on an open stack and closes it.
fn measure<C, S>(
    mut stack: Stack<C, S>,
    inputs: &Arc<Inputs>,
    seconds: f64,
    recorder: Option<&Arc<Recorder>>,
    edge: impl FnMut(bool),
) -> Result<Measured, String>
where
    C: ScratchThreeWayComparator + Send + Sync + 'static,
    S: Read + Write + Send,
{
    let win = window(seconds);
    if let Some(r) = recorder {
        r.keep_between(win.start, (win.start + SPAN_WINDOW).min(win.end));
    }
    let results = run_window(&mut stack, inputs, win, recorder, edge);
    stack.close()?;
    Measured::new(results, win)
}

/// Generates the inputs and their oracle tables (not part of `setup_s`)
/// and prints the run's effective configuration on stderr.
fn timed_inputs(workload: Workload, seed: u64) -> Arc<Inputs> {
    let started = Instant::now();
    let inputs = generate(workload, seed);
    eprintln!(
        "perfbench: {} campaigns generated and oracle-scored in {:.2} s\n{}\nset-ups per run    {SETUP_REPS}\nwarm-up            {WARMUP:?}",
        inputs.pool.len(),
        started.elapsed().as_secs_f64(),
        inputs.describe()
    );
    Arc::new(inputs)
}

/// Opens and closes the full stack once; returns the time the opening
/// took.
fn setup_once(inputs: &Inputs, dir: &Path) -> Result<f64, String> {
    let started = Instant::now();
    let stack = open_plain(inputs, dir)?;
    let took = started.elapsed().as_secs_f64();
    stack.close()?;
    Ok(took)
}

/// `--trace 0`: the end-to-end metrics.
fn plain_run(args: &Args, dir: &Path) -> Result<Report, String> {
    let inputs = timed_inputs(args.workload, args.seed);
    // Half the set-ups run before the window and half after it, so one
    // slow spell of the host's disk does not move the median.
    let mut setups = Vec::new();
    for r in 0..SETUP_REPS / 2 {
        setups.push(setup_once(&inputs, &dir.join(format!("setup-{r}")))?);
    }
    let started = Instant::now();
    let stack = open_plain(&inputs, &dir.join("measured"))?;
    setups.push(started.elapsed().as_secs_f64());
    let steal = HostSteal::start();
    let m = measure(stack, &inputs, args.seconds, None, |_| {})?;
    eprintln!(
        "perfbench: the hypervisor stole {:.1}% of the guest's CPU time during the window",
        steal.frac() * 100.0
    );
    for r in setups.len()..SETUP_REPS {
        setups.push(setup_once(&inputs, &dir.join(format!("setup-{r}")))?);
    }
    let lat = m.latencies_ms();
    let mut report = Report {
        correct: m.mismatches == 0,
        attempted: m.attempted,
        failed: m.failed,
        metrics: Vec::new(),
    };
    eprintln!(
        "perfbench: {} requests in the window, {} units, tail quantile {} at {:.3} ms",
        lat.len(),
        m.units,
        tail_q(lat.len()),
        quantile(&lat, tail_q(lat.len()))
    );
    report.put("lat_p50_ms", median(&lat), "ms");
    // The bounded tail is p90: beyond it the host's contention bursts, not
    // the code, decide the value (see README).
    report.put("lat_p90_ms", quantile(&lat, 0.9), "ms");
    report.put("throughput_per_s", m.units as f64 / m.seconds, "1/s");
    report.put("setup_s", median(&setups), "s");
    report.put("peak_rss_mb", peak_rss_mb(), "MiB");
    Ok(report)
}

/// Counter readings taken at the traced window's edges.
#[derive(Default, Clone, Copy)]
struct Edge {
    compare_busy_ns: u64,
    journal: [u64; 8],
    frames: u64,
    tx: u64,
    rx: u64,
}

/// `--trace 1`: an untraced reference window, then the same window with
/// every tracing wrapper in place, then the core replay, the per-tier
/// solo costs, the codec re-timing, and the saturation probe.
fn traced_run(args: &Args, dir: &Path) -> Result<Report, String> {
    let w = args.workload;
    let inputs = timed_inputs(w, args.seed);
    let half = args.seconds / 2.0;
    let steal = HostSteal::start();
    let plain = measure(
        open_plain(&inputs, &dir.join("plain"))?,
        &inputs,
        half,
        None,
        |_| {},
    )?;
    let steal = steal.frac();

    let recorder = Recorder::new();
    let comparator = TimedComparator::new(inputs.comparator(), Arc::clone(&recorder));
    let compare_counters = Arc::clone(&comparator.counters);
    let journal = Arc::new(JournalCounters::default());
    let conns = w.tenants_per_connection();
    let taps: Vec<Arc<Mutex<StreamTaps>>> = conns.iter().map(|_| Arc::default()).collect();
    let next_tap = Cell::new(0);
    let stack = open_stack(
        w,
        conns,
        comparator,
        &dir.join("traced"),
        |s| {
            Box::new(TimedJournalStore::new(
                s,
                Arc::clone(&recorder),
                Arc::clone(&journal),
            )) as Box<dyn JournalStore>
        },
        |s| {
            let i = next_tap.get();
            next_tap.set(i + 1);
            CountingStream::new(s, Arc::clone(&taps[i]))
        },
    )?;
    let mut edges = [Edge::default(); 2];
    let traced = measure(stack, &inputs, half, Some(&recorder), |opening| {
        let (mut frames, mut tx, mut rx) = (0, 0, 0);
        for t in &taps {
            let t = t.lock().expect("taps poisoned");
            frames += t.tx.frames;
            tx += t.tx.bytes;
            rx += t.rx.bytes;
        }
        edges[usize::from(!opening)] = Edge {
            compare_busy_ns: compare_counters.busy_ns.load(Ordering::Relaxed),
            journal: journal.read(),
            frames,
            tx,
            rx,
        };
    })?;
    let [e0, e1] = edges;
    let jd: Vec<u64> = e1
        .journal
        .iter()
        .zip(e0.journal)
        .map(|(b, a)| b - a)
        .collect();

    let core_recorder = Recorder::new();
    let core = layers::core_replay(&inputs, &core_recorder);
    let tiers = layers::tiers(&inputs, &dir.join("tiers"), TIER_BUDGET)?;
    let codec = {
        let t = taps[0].lock().expect("taps poisoned");
        layers::codec_us_per_req(&t.tx.kept, &t.rx.kept)?
    };
    write_trace(args, &recorder, &core_recorder);
    let sat = saturation_probe(args.seed, &dir.join("saturation"))?;

    let lat = traced.latencies_ms();
    let lat_s: f64 = lat.iter().sum::<f64>() / 1e3;
    // Window counters grow with throughput; per counted request they show
    // what each request costs.
    let per_req = |delta: u64| delta as f64 / lat.len() as f64;
    let compares = recorder.spans("measure.compare");
    let intervals: Vec<(u64, u64)> = compares.iter().map(|c| (c.start, c.end)).collect();
    let covered = union_len(&intervals);
    let busy: u64 = compares.iter().map(|c| c.dur()).sum();
    let (s0, s1) = traced.stats.ok_or("no Stats read over the wire")?;
    let batches = s1.batches - s0.batches;

    let mut r = Report {
        correct: plain.mismatches + traced.mismatches + core.mismatches + sat.mismatches == 0,
        attempted: plain.attempted + traced.attempted + sat.attempted,
        failed: plain.failed + traced.failed + sat.failed,
        metrics: Vec::new(),
    };
    let plain_lat = plain.latencies_ms();
    r.put(
        "lat_p99_ms",
        quantile(&plain_lat, tail_q(plain_lat.len())),
        "ms",
    );
    r.put("host.steal_frac", steal, "ratio");
    r.put("measure.compare.calls", core.compares as f64, "count");
    r.put("measure.compare.busy_s", core.compare_busy_s, "s");
    r.put("measure.compare.p50_us", core.compare_p50_us, "us");
    r.put(
        "measure.compare.wave_share",
        (e1.compare_busy_ns - e0.compare_busy_ns) as f64 / 1e9 / lat_s,
        "ratio",
    );
    r.put("core.score.p50_ms", median(&core.score_ms), "ms");
    r.put("core.score.self_ms", median(&core.self_ms), "ms");
    r.put(
        "core.compares_per_wave",
        core.compares as f64 / core.scores.max(1) as f64,
        "count",
    );
    r.put(
        "core.extend.us_per_kval",
        core.extend_ns as f64 / core.extend_values.max(1) as f64,
        "us",
    );
    r.put(
        "parallel.threads_per_score",
        tiers.threads_per_score,
        "count",
    );
    r.put(
        "parallel.overlap",
        if covered > 0 {
            busy as f64 / covered as f64
        } else {
            0.0
        },
        "ratio",
    );
    r.put("service.tier_ms", tiers.added_ms[0], "ms");
    r.put("runtime.tier_ms", tiers.added_ms[1], "ms");
    r.put("wire.tier_ms", tiers.added_ms[2], "ms");
    r.put("runtime.queue_wait_p50_ms", median(&sat.waits), "ms");
    r.put(
        "runtime.queue_wait_p99_ms",
        quantile(&sat.waits, tail_q(sat.waits.len())),
        "ms",
    );
    r.put("fleet.wave_p50_ms", median(&sat.lat), "ms");
    r.put(
        "fleet.wave_p99_ms",
        quantile(&sat.lat, tail_q(sat.lat.len())),
        "ms",
    );
    r.put("fleet.waves_per_s", sat.waves_per_s, "1/s");
    r.put("service.spills_per_wave", sat.spills_per_wave, "count");
    r.put(
        "service.rehydrations_per_wave",
        sat.rehydrations_per_wave,
        "count",
    );
    r.put("service.batches_per_req", per_req(batches), "count");
    r.put(
        "service.ops_per_batch",
        (s1.ops_executed - s0.ops_executed) as f64 / batches.max(1) as f64,
        "count",
    );
    r.put(
        "service.rejections",
        (s1.rejections - s0.rejections + sat.rejections) as f64,
        "count",
    );
    r.put("journal.appends_per_req", per_req(jd[0]), "count");
    r.put("journal.syncs_per_req", per_req(jd[1]), "count");
    r.put("journal.bytes_per_req", per_req(jd[2]), "bytes");
    r.put("journal.append_us_per_req", per_req(jd[3]) / 1e3, "us");
    r.put("journal.sync_us_per_req", per_req(jd[4]) / 1e3, "us");
    r.put("journal.checkpoints_per_req", per_req(jd[5]), "count");
    r.put("journal.checkpoint_us_per_req", per_req(jd[6]) / 1e3, "us");
    r.put("journal.checkpoint_bytes_per_req", per_req(jd[7]), "bytes");
    r.put("wire.frames_per_req", per_req(e1.frames - e0.frames), "count");
    r.put("wire.bytes_tx_per_req", per_req(e1.tx - e0.tx), "bytes");
    r.put("wire.bytes_rx_per_req", per_req(e1.rx - e0.rx), "bytes");
    r.put("wire.codec_us_per_req", codec, "us");
    r.put(
        "snapshot.bytes",
        traced.snapshot_bytes as f64 / traced.snapshots.max(1) as f64,
        "bytes",
    );
    let overhead = traced.p50_ms() - plain.p50_ms();
    r.put("trace.overhead_ms", overhead, "ms");
    r.put("trace.overhead_frac", overhead / plain.p50_ms(), "ratio");
    r.put(
        "fail_frac",
        r.failed as f64 / r.attempted.max(1) as f64,
        "ratio",
    );
    eprintln!(
        "perfbench: traced window {} requests, {} spans kept ({} dropped), tiers {:?} ms over {} rounds",
        lat.len(),
        recorder.len(),
        recorder.dropped(),
        tiers.p50_ms,
        tiers.rounds
    );
    Ok(r)
}

/// What the saturation probe measured.
struct Saturation {
    /// Wave latency minus the bare `ClusterSession` execute time of the
    /// same wave, ms.
    waits: Vec<f64>,
    lat: Vec<f64>,
    waves_per_s: f64,
    spills_per_wave: f64,
    rehydrations_per_wave: f64,
    rejections: u64,
    mismatches: u64,
    attempted: u64,
    failed: u64,
}

/// Runs `fleet_campaign` traffic for [`PROBE`]: 64 tenants over 2
/// connections with 32 resident sessions saturate both cores and make
/// the registry spill and rehydrate. Its timings follow the host's load
/// as much as the code, so a traced run reports them without a bound
/// instead of as end-to-end metrics.
fn saturation_probe(seed: u64, dir: &Path) -> Result<Saturation, String> {
    let inputs = timed_inputs(Workload::Fleet, seed);
    let m = measure(
        open_plain(&inputs, dir)?,
        &inputs,
        PROBE.as_secs_f64(),
        None,
        |_| {},
    )?;
    let core = layers::core_replay(&inputs, &Recorder::new());
    let (s0, s1) = m.stats.ok_or("no Stats read over the wire")?;
    let waves = m.samples.len() as f64;
    let waits = m
        .samples
        .iter()
        .map(|s| (s.latency().as_secs_f64() - core.bare[s.campaign][s.step].as_secs_f64()) * 1e3)
        .collect();
    Ok(Saturation {
        waits,
        lat: m.latencies_ms(),
        waves_per_s: m.units as f64 / m.seconds,
        spills_per_wave: (s1.spills - s0.spills) as f64 / waves,
        rehydrations_per_wave: (s1.rehydrations - s0.rehydrations) as f64 / waves,
        rejections: s1.rejections - s0.rejections,
        mismatches: m.mismatches + core.mismatches,
        attempted: m.attempted,
        failed: m.failed,
    })
}

/// Writes the traced window's and the core replay's spans as CSV. Each
/// traced run replaces its workload's previous files, so repeated runs
/// do not pile up span dumps in the checkout.
fn write_trace(args: &Args, service: &Recorder, core: &Recorder) {
    let dir = Path::new(".perfbench").join("trace");
    let stem = args.workload.name();
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        service.write_csv(&dir.join(format!("{stem}-service.csv")))?;
        core.write_csv(&dir.join(format!("{stem}-core.csv")))
    });
    match written {
        Ok(()) => eprintln!("perfbench: spans written to {}", dir.display()),
        Err(e) => eprintln!("perfbench: could not write spans: {e}"),
    }
}

/// CPU time the hypervisor took from the whole guest (the `steal` column
/// of `/proc/stat`). Time the host steals stretches every wall-clock
/// metric without any change in the code.
struct HostSteal([u64; 2]);

impl HostSteal {
    fn start() -> Self {
        HostSteal(Self::read())
    }

    /// Share of the guest's CPU time stolen since `start`.
    fn frac(&self) -> f64 {
        let [steal, total] = Self::read();
        (steal - self.0[0]) as f64 / (total - self.0[1]).max(1) as f64
    }

    /// `[steal, total]` ticks over all CPUs.
    fn read() -> [u64; 2] {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|t| t.parse().ok())
            .collect();
        [ticks.get(7).copied().unwrap_or(0), ticks.iter().sum()]
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The filesystem type holding `dir`, from the longest matching mount
/// point in `/proc/self/mountinfo`.
fn filesystem_of(dir: &Path) -> String {
    let Ok(path) = dir.canonicalize() else {
        return "unknown".into();
    };
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    info.lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let mount = Path::new(*fields.get(4)?);
            let sep = fields.iter().position(|f| *f == "-")?;
            let fstype = fields.get(sep + 1)?;
            path.starts_with(mount)
                .then(|| (mount.as_os_str().len(), fstype.to_string()))
        })
        .max()
        .map_or("unknown".into(), |(_, t)| t)
}
