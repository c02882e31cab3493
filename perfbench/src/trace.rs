//! Outside-in tracing kit: wrappers that time calls into a layer's public
//! API from the benchmark's side of the boundary.
//!
//! * [`TimedComparator`] wraps any comparator through the public comparator
//!   traits and records one `measure.compare` span per comparison.
//! * [`TimedJournalStore`] wraps any [`JournalStore`] and records
//!   `journal.append` / `journal.sync` / `journal.checkpoint` spans plus
//!   byte counts.
//! * [`CountingStream`] wraps a client's duplex stream, counts bytes in
//!   both directions, splits them into wire frames, and keeps the first
//!   frames so the codec can be re-timed offline.
//!
//! Spans land in a shared in-memory [`Recorder`] and are written out as
//! CSV when the run ends. Nothing here changes what the wrapped layer
//! computes: every call is delegated unchanged.

use relperf_measure::{
    Outcome, Sample, ScratchThreeWayComparator, SeededThreeWayComparator, ThreeWayComparator,
};
use relperf_service::journal::{JournalIoError, JournalStore, StoredShard};
use std::cell::Cell;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Id of the span that caused this one (0: none known).
    pub parent: u64,
    /// Request id shared by the spans of one request (0: none known).
    pub req: u64,
    /// Small per-process thread number (see [`thread_no`]).
    pub thread: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Spans kept in memory per recorder; later spans are still counted by
/// the wrappers' own counters but not stored.
const SPAN_CAP: usize = 400_000;

/// Shared in-memory span sink.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
    /// Spans are stored only when they lie inside `[keep_from, keep_until]`.
    keep_from: AtomicU64,
    keep_until: AtomicU64,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_NO: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// Parent span and request id that new spans on this thread inherit.
    static CONTEXT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// A small stable number for the calling thread.
pub fn thread_no() -> u64 {
    THREAD_NO.with(|t| *t)
}

/// Runs `f` with `(parent, req)` as the calling thread's span context.
pub fn with_context<T>(parent: u64, req: u64, f: impl FnOnce() -> T) -> T {
    let saved = CONTEXT.with(|c| c.replace((parent, req)));
    let out = f();
    CONTEXT.with(|c| c.set(saved));
    out
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            keep_from: AtomicU64::new(0),
            keep_until: AtomicU64::new(u64::MAX),
        })
    }

    /// Stores only spans inside `[from, until]` from now on (counters are
    /// unaffected), bounding memory on long runs.
    pub fn keep_between(&self, from: Instant, until: Instant) {
        self.keep_from.store(self.at(from), Ordering::Relaxed);
        self.keep_until.store(self.at(until), Ordering::Relaxed);
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Stores a span that inherits the thread's context; returns its id.
    pub fn record(&self, name: &'static str, start: u64, end: u64) -> u64 {
        let (parent, req) = CONTEXT.with(Cell::get);
        self.record_full(name, start, end, parent, req)
    }

    pub fn record_full(
        &self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: u64,
        req: u64,
    ) -> u64 {
        let id = self.new_id();
        self.push(Span {
            id,
            name,
            start,
            end,
            parent,
            req,
            thread: thread_no(),
        });
        id
    }

    pub fn push(&self, span: Span) {
        if span.start < self.keep_from.load(Ordering::Relaxed)
            || span.end > self.keep_until.load(Ordering::Relaxed)
        {
            return;
        }
        let mut spans = self.spans.lock().expect("recorder poisoned");
        if spans.len() < SPAN_CAP {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Every stored span named `name`.
    pub fn spans(&self, name: &str) -> Vec<Span> {
        let spans = self.spans.lock().expect("recorder poisoned");
        spans.iter().filter(|s| s.name == name).copied().collect()
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("recorder poisoned").len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Writes every stored span as CSV.
    pub fn write_csv(&self, path: &std::path::Path) -> io::Result<()> {
        let spans = self.spans.lock().expect("recorder poisoned");
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,start_ns,end_ns,parent,req,thread")?;
        for s in spans.iter() {
            writeln!(
                out,
                "{},{},{},{},{},{},{}",
                s.id, s.name, s.start, s.end, s.parent, s.req, s.thread
            )?;
        }
        out.flush()
    }
}

// ---------------------------------------------------------------------
// Comparator
// ---------------------------------------------------------------------

/// Comparator counters, complete even after the span store is full.
#[derive(Debug, Default)]
pub struct CompareCounters {
    pub calls: AtomicU64,
    pub busy_ns: AtomicU64,
}

/// Times every comparison of the wrapped comparator.
#[derive(Debug)]
pub struct TimedComparator<C> {
    inner: C,
    recorder: Arc<Recorder>,
    pub counters: Arc<CompareCounters>,
}

impl<C> TimedComparator<C> {
    pub fn new(inner: C, recorder: Arc<Recorder>) -> Self {
        TimedComparator {
            inner,
            recorder,
            counters: Arc::default(),
        }
    }

    fn timed(&self, f: impl FnOnce() -> Outcome) -> Outcome {
        self.counters.calls.fetch_add(1, Ordering::Relaxed);
        timed(&self.recorder, "measure.compare", &self.counters.busy_ns, f)
    }
}

impl<C: ThreeWayComparator> ThreeWayComparator for TimedComparator<C> {
    fn compare(&self, a: &Sample, b: &Sample) -> Outcome {
        self.timed(|| self.inner.compare(a, b))
    }
}

impl<C: SeededThreeWayComparator> SeededThreeWayComparator for TimedComparator<C> {
    fn compare_seeded(&self, a: &Sample, b: &Sample, stream: u64) -> Outcome {
        self.timed(|| self.inner.compare_seeded(a, b, stream))
    }
}

impl<C: ScratchThreeWayComparator> ScratchThreeWayComparator for TimedComparator<C> {
    type Scratch = C::Scratch;

    fn new_scratch(&self) -> C::Scratch {
        self.inner.new_scratch()
    }

    fn compare_seeded_scratch(
        &self,
        scratch: &mut C::Scratch,
        a: &Sample,
        b: &Sample,
        stream: u64,
    ) -> Outcome {
        self.timed(|| self.inner.compare_seeded_scratch(scratch, a, b, stream))
    }
}

// ---------------------------------------------------------------------
// Journal store
// ---------------------------------------------------------------------

/// Journal counters shared by every shard's store.
#[derive(Debug, Default)]
pub struct JournalCounters {
    pub appends: AtomicU64,
    pub syncs: AtomicU64,
    pub bytes: AtomicU64,
    pub append_ns: AtomicU64,
    pub sync_ns: AtomicU64,
    pub checkpoints: AtomicU64,
    pub checkpoint_ns: AtomicU64,
    pub checkpoint_bytes: AtomicU64,
}

impl JournalCounters {
    /// A plain copy of the counters, in field order.
    pub fn read(&self) -> [u64; 8] {
        [
            &self.appends,
            &self.syncs,
            &self.bytes,
            &self.append_ns,
            &self.sync_ns,
            &self.checkpoints,
            &self.checkpoint_ns,
            &self.checkpoint_bytes,
        ]
        .map(|c| c.load(Ordering::Relaxed))
    }
}

/// Times every call into the wrapped journal store.
pub struct TimedJournalStore<S> {
    inner: S,
    recorder: Arc<Recorder>,
    counters: Arc<JournalCounters>,
}

impl<S> TimedJournalStore<S> {
    pub fn new(inner: S, recorder: Arc<Recorder>, counters: Arc<JournalCounters>) -> Self {
        TimedJournalStore {
            inner,
            recorder,
            counters,
        }
    }
}

impl<S: JournalStore> JournalStore for TimedJournalStore<S> {
    fn append(&mut self, bytes: &[u8]) -> Result<(), JournalIoError> {
        let c = &self.counters;
        c.appends.fetch_add(1, Ordering::Relaxed);
        c.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        let inner = &mut self.inner;
        timed(&self.recorder, "journal.append", &c.append_ns, || {
            inner.append(bytes)
        })
    }

    fn sync(&mut self) -> Result<(), JournalIoError> {
        let c = &self.counters;
        c.syncs.fetch_add(1, Ordering::Relaxed);
        let inner = &mut self.inner;
        timed(&self.recorder, "journal.sync", &c.sync_ns, || inner.sync())
    }

    fn install_checkpoint(&mut self, base: &[u8], journal: &[u8]) -> Result<(), JournalIoError> {
        let c = &self.counters;
        c.checkpoints.fetch_add(1, Ordering::Relaxed);
        c.checkpoint_bytes
            .fetch_add((base.len() + journal.len()) as u64, Ordering::Relaxed);
        let inner = &mut self.inner;
        timed(
            &self.recorder,
            "journal.checkpoint",
            &c.checkpoint_ns,
            || inner.install_checkpoint(base, journal),
        )
    }

    fn load(&mut self) -> Result<StoredShard, JournalIoError> {
        self.inner.load()
    }
}

/// Runs `f` as one span named `name`, adding its duration to `busy`.
fn timed<T>(recorder: &Recorder, name: &'static str, busy: &AtomicU64, f: impl FnOnce() -> T) -> T {
    let start = recorder.now();
    let out = f();
    let end = recorder.now();
    busy.fetch_add(end - start, Ordering::Relaxed);
    recorder.record(name, start, end);
    out
}

// ---------------------------------------------------------------------
// Counting stream
// ---------------------------------------------------------------------

/// Wire frame header: magic (4) + version (2) + payload length (4).
const FRAME_HEADER: usize = 10;
/// Wire frame trailer: FNV-1a checksum.
const FRAME_TRAILER: usize = 8;
/// Frames kept per direction for re-timing the codec.
const KEEP_FRAMES: usize = 2048;

/// Splits one direction of a byte stream into wire frames.
#[derive(Debug, Default)]
pub struct FrameTap {
    pending: Vec<u8>,
    pub bytes: u64,
    pub frames: u64,
    pub kept: Vec<Vec<u8>>,
}

impl FrameTap {
    fn feed(&mut self, bytes: &[u8]) {
        self.bytes += bytes.len() as u64;
        self.pending.extend_from_slice(bytes);
        while self.pending.len() >= FRAME_HEADER {
            let len = u32::from_le_bytes(self.pending[6..10].try_into().expect("4 bytes")) as usize;
            let total = FRAME_HEADER + len + FRAME_TRAILER;
            if self.pending.len() < total {
                break;
            }
            let frame: Vec<u8> = self.pending.drain(..total).collect();
            self.frames += 1;
            if self.kept.len() < KEEP_FRAMES {
                self.kept.push(frame);
            }
        }
    }
}

/// Both directions of one client connection.
#[derive(Debug, Default)]
pub struct StreamTaps {
    pub tx: FrameTap,
    pub rx: FrameTap,
}

/// A `Read + Write` wrapper that feeds every byte to shared [`StreamTaps`].
pub struct CountingStream<S> {
    inner: S,
    taps: Arc<Mutex<StreamTaps>>,
}

impl<S> CountingStream<S> {
    pub fn new(inner: S, taps: Arc<Mutex<StreamTaps>>) -> Self {
        CountingStream { inner, taps }
    }
}

impl<S: Read> Read for CountingStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.taps.lock().expect("taps poisoned").rx.feed(&buf[..n]);
        Ok(n)
    }
}

impl<S: Write> Write for CountingStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.taps.lock().expect("taps poisoned").tx.feed(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}
