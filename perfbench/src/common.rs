//! Shared pieces of the three workloads: the CPU clock, statistics, the
//! span recorder, host reference loops, memory high-water mark, and seeded
//! inputs.

use std::hint::black_box;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use locmps_taskgraph::TaskGraph;
use locmps_workloads::{
    ccsd_t1_graph, strassen_graph, synthetic_graph, StrassenConfig, SyntheticConfig, TceConfig,
};

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Values that must repeat bit for bit for the same seed and binary:
    /// `(name, rendered value)`. Timing-dependent counts never go here.
    pub exact: Vec<(String, String)>,
}

impl Outcome {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn exact(&mut self, name: impl Into<String>, value: impl std::fmt::Display) {
        self.exact.push((name.into(), value.to_string()));
    }

    /// The end-to-end metrics every workload reports, from the CPU time of
    /// each set-up and each request at the reference speed (`peak_rss_mb`
    /// is added by `main` when the run ends).
    pub fn end_to_end(&mut self, setups: &[Took], requests: &[Took], tail_q: f64, quality: &[f64]) {
        let cpu = sorted(requests.iter().map(Took::ref_cpu_ms).collect());
        self.attempted = cpu.len() as u64;
        let completed = (self.attempted - self.failed) as f64;
        let setup_s: Vec<f64> = setups.iter().map(|t| t.ref_cpu_ms() / 1e3).collect();
        self.push("setup_s", median(&setup_s), "s");
        self.push("ref_cpu_p50_ms", window_quantile(&cpu, 0.5), "ms");
        self.push("ref_cpu_tail_ms", window_quantile(&cpu, tail_q), "ms");
        self.push(
            "requests_per_ref_cpu_s",
            completed / (cpu.iter().sum::<f64>() / 1e3),
            "1/s",
        );
        self.push("quality_ratio", mean(quality), "ratio");
        self.push(
            "completed_share",
            completed / self.attempted as f64,
            "ratio",
        );
    }
}

/// One replay of a closed-loop workload's fixed request sequence.
pub struct PassSummary {
    pub took: Vec<Took>,
    pub failed: u64,
    pub quality: Vec<f64>,
    pub exact: Vec<(String, String)>,
}

/// The measured phase of a closed-loop workload: replays the sequence
/// while at least half of another pass fits in `seconds`, checks that
/// every pass reproduced the first one's exact values, and reports the
/// end-to-end metrics over all passes.
pub fn closed_loop(
    workload: &str,
    setups: &[Took],
    seconds: f64,
    tail_q: f64,
    mut pass: impl FnMut() -> PassSummary,
) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut passes: Vec<PassSummary> = Vec::new();
    let mut pass_s = 0.0;
    while passes.is_empty() || started.elapsed().as_secs_f64() + pass_s / 2.0 <= seconds {
        let t0 = Instant::now();
        passes.push(pass());
        pass_s = t0.elapsed().as_secs_f64();
    }
    if passes.iter().any(|p| p.exact != passes[0].exact) {
        return Err(format!(
            "{workload}: two passes of one seed disagree on an exact value"
        ));
    }
    let mut out = Outcome {
        failed: passes.iter().map(|p| p.failed).sum(),
        exact: passes[0].exact.clone(),
        ..Outcome::default()
    };
    let took: Vec<Took> = passes.iter().flat_map(|p| p.took.clone()).collect();
    out.end_to_end(setups, &took, tail_q, &passes[0].quality);
    Ok(out)
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quantile `q` of an ascending slice, estimated as the mean of the values
/// ranked within `q ± w`, where `w` is 0.05 or the distance from `q` to the
/// nearer end, whichever is less (p50: the 45th to 55th percentile; p90:
/// the 85th to 95th; p99: the 98th to 100th).
///
/// Request costs of a mixed corpus lie several percent apart near any one
/// rank, so a nearest-rank percentile jumps by that gap whenever the
/// host's noise swaps two neighbouring requests; the window's mean moves
/// only by the noise itself.
pub fn window_quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len() as f64;
    let w = 0.05f64.min(q).min(1.0 - q);
    let lo = ((q - w) * n).floor() as usize;
    let hi = (((q + w) * n).ceil() as usize).clamp(lo + 1, sorted.len());
    mean(&sorted[lo..hi])
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// CPU time of this process, all threads, user and system, in
/// milliseconds (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// The benchmark times requests and set-ups with this clock rather than
/// the wall clock: on a shared host whose cores the hypervisor lends to
/// other tenants, wall time also counts the time this process was ready to
/// run but held off its core, which moves with the neighbours' load, not
/// with the code. Work that blocks (I/O, sleeps, lock waits) is not CPU
/// time; the traced run reports `wall_over_cpu.<workload>` to show it.
pub fn cpu_ms() -> f64 {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (a `time_t`,
    // which is a `long` on Linux, and a `long`), and the clock id is a
    // constant the kernel always provides; the call writes only `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// The wall-clock origin of the run, for `Took::at_s` and speed samples.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// The CPU and wall time one piece of work took, and when (seconds since
/// the run began, at its midpoint).
#[derive(Debug, Clone, Copy)]
pub struct Took {
    pub cpu_ms: f64,
    pub wall_ms: f64,
    pub at_s: f64,
}

impl Took {
    /// The CPU time scaled to the reference speed: what the work would
    /// have taken on a core that runs the speed reference in
    /// `REFERENCE_MS` (see `sample_speed`).
    pub fn ref_cpu_ms(&self) -> f64 {
        self.cpu_ms * REFERENCE_MS / reference_around(self.at_s)
    }
}

/// A start point on both clocks.
pub struct Stopwatch {
    cpu_ms: f64,
    at: Instant,
}

impl Stopwatch {
    pub fn start() -> Self {
        Self {
            cpu_ms: cpu_ms(),
            at: Instant::now(),
        }
    }

    pub fn took(&self) -> Took {
        let wall_ms = ms(self.at);
        Took {
            cpu_ms: cpu_ms() - self.cpu_ms,
            wall_ms,
            at_s: (self.at - epoch()).as_secs_f64() + wall_ms / 2e3,
        }
    }
}

/// CPU time the speed reference takes at the reference speed (about its
/// median on the machine the README's figures come from).
const REFERENCE_MS: f64 = 1.5;
/// Between requests, a speed sample is taken once this much wall time
/// has passed since the last one.
const SAMPLE_EVERY_S: f64 = 0.1;
/// Work is scaled by the median of this many samples either side of it.
const NEAR: usize = 4;

/// `(seconds since the run began, reference CPU ms)`, in time order.
static SPEED: Mutex<Vec<(f64, f64)>> = Mutex::new(Vec::new());

/// Samples the speed reference, a sort of a fixed array of 64 Ki
/// pseudo-random keys in the benchmark's own code, if `SAMPLE_EVERY_S`
/// has passed since the last sample. Call it between requests, never
/// inside a timed one.
///
/// How fast a core runs this program's code changes by a third within
/// minutes on a shared host, with what the other tenants run beside it,
/// and CPU time changes with it; a branchy, cache-resident sort slows
/// down with it, while a plain ALU loop does not. Scaling each request by
/// the reference measured around it takes most of that out (see
/// `perfbench/README.md`).
pub fn sample_speed() {
    static KEYS: OnceLock<Vec<u64>> = OnceLock::new();
    let keys = KEYS.get_or_init(|| {
        let mut x = 0x1234_5678u64;
        (0..1 << 16)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                x >> 11
            })
            .collect()
    });
    let now = epoch().elapsed().as_secs_f64();
    let mut samples = SPEED.lock().expect("speed samples");
    if samples
        .last()
        .is_some_and(|&(t, _)| now - t < SAMPLE_EVERY_S)
    {
        return;
    }
    let c0 = cpu_ms();
    let mut v = keys.clone();
    v.sort_unstable();
    black_box(&v);
    samples.push((now, cpu_ms() - c0));
}

/// The speed reference's CPU time around `at_s`: the median of the
/// `NEAR` samples before it and the `NEAR` after it.
fn reference_around(at_s: f64) -> f64 {
    let samples = SPEED.lock().expect("speed samples");
    assert!(!samples.is_empty(), "no speed sample taken");
    let i = samples.partition_point(|&(t, _)| t < at_s);
    let lo = i.saturating_sub(NEAR);
    let hi = (i + NEAR).min(samples.len()).max(lo + 1);
    median(
        &samples[lo..hi]
            .iter()
            .map(|&(_, ms)| ms)
            .collect::<Vec<_>>(),
    )
}

/// Median CPU time of every speed sample taken so far.
pub fn reference_median_ms() -> f64 {
    let samples = SPEED.lock().expect("speed samples");
    median(&samples.iter().map(|&(_, ms)| ms).collect::<Vec<_>>())
}

/// Runs `f`, timing it on both clocks.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Took) {
    let sw = Stopwatch::start();
    let r = f();
    (r, sw.took())
}

/// Summed wall time over summed CPU time: 1 when nothing waited.
pub fn wall_over_cpu(took: &[Took]) -> f64 {
    took.iter().map(|t| t.wall_ms).sum::<f64>() / took.iter().map(|t| t.cpu_ms).sum::<f64>()
}

/// CPU time the hypervisor gave other tenants, summed over this host's
/// cores, in seconds (the `steal` column of `/proc/stat`, in 1/100 s).
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(f64::NAN, |ticks| ticks / 100.0)
}

/// Median wall time of `reps` calls of `f`, in microseconds. Unit-cost
/// probes use it so one preempted call does not skew a cost.
pub fn unit_cost_us<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// Traced closed-loop runs repeat every `PAIR_EVERY`-th request untraced,
/// back to back with its traced run, to estimate the tracing overhead. It
/// is coprime with the `runtime` class cycle, so both classes are paired.
const PAIR_EVERY: usize = 5;

/// The traced pass of a closed-loop workload: runs request `i` through
/// `traced` (which returns its timing and whatever the caller keeps), and
/// every `PAIR_EVERY`-th request also through `plain`. The untraced copy
/// runs just before or just after the traced one, alternately within each
/// request class (`class(i)`), so every class is paired in both orders.
/// Returns the kept results and the tracing overhead share of the paired
/// requests, in CPU time.
pub fn traced_pass<T>(
    n: usize,
    class: impl Fn(usize) -> usize,
    mut traced: impl FnMut(usize) -> (Took, T),
    mut plain: impl FnMut(usize) -> Took,
) -> (Vec<(Took, T)>, f64) {
    let (mut plain_ms, mut paired_ms) = (0.0, 0.0);
    let mut pairs_by_class: Vec<usize> = Vec::new();
    let mut kept = Vec::with_capacity(n);
    for i in 0..n {
        let pair = i % PAIR_EVERY == 0;
        let mut before = false;
        if pair {
            let k = class(i);
            if pairs_by_class.len() <= k {
                pairs_by_class.resize(k + 1, 0);
            }
            before = pairs_by_class[k].is_multiple_of(2);
            pairs_by_class[k] += 1;
        }
        if before {
            plain_ms += plain(i).cpu_ms;
        }
        let (took, t) = traced(i);
        if pair {
            paired_ms += took.cpu_ms;
            if !before {
                plain_ms += plain(i).cpu_ms;
            }
        }
        kept.push((took, t));
    }
    (kept, paired_ms / plain_ms - 1.0)
}

/// One recorded span: a call the benchmark made into a layer.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// In-memory span recorder. Disabled recorders cost one branch per call;
/// spans are written out only when the run ends.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        std::fs::write(path, out)
    }
}

/// Where runs leave span files and determinism records (ignored by git).
pub fn out_dir() -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create the benchmark output directory");
    dir
}

/// Fixed ALU and memory loops in the benchmark's own code, timed in CPU
/// time like the requests; they show whether the machine's cores changed
/// speed, independently of the program. The ALU figure is the median of
/// three runs of its loop.
pub fn host_reference() -> (f64, f64) {
    let alu: Vec<f64> = (0..3)
        .map(|_| {
            let c0 = cpu_ms();
            let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
            let mut acc = 0u64;
            for _ in 0..40_000_000u32 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc.wrapping_add(x.wrapping_mul(0x2545_f491_4f6c_dd1d));
            }
            black_box(acc);
            cpu_ms() - c0
        })
        .collect();
    let alu_ms = median(&alu);

    // Dependent loads over an 8 MiB random permutation: latency-bound.
    const N: usize = 1 << 21;
    let mut next: Vec<u32> = (0..N as u32).collect();
    let mut s = 0x1234_5678u64;
    for i in (1..N).rev() {
        s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let j = (s >> 33) as usize % i;
        next.swap(i, j);
    }
    let c1 = cpu_ms();
    let mut p = 0u32;
    for _ in 0..4_000_000u32 {
        p = next[p as usize];
    }
    black_box(p);
    (alu_ms, cpu_ms() - c1)
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Pins this process, and every thread it starts afterwards, to one CPU:
/// the first it may run on. Call it before any thread starts.
///
/// Every workload keeps one request in flight, so a second CPU adds no
/// parallelism, only wake-ups across CPUs. On the shared host those cost
/// more CPU time at some times than at others: `serve` hits, which pass
/// through three threads, read a 0.62–0.66 ms p50 unpinned and
/// 0.50–0.52 ms pinned in alternating runs just after a build, and
/// 0.56 against 0.51–0.53 ms in alternating runs later.
pub fn pin_to_one_cpu() -> Result<(), String> {
    use std::ffi::c_int;
    /// A `cpu_set_t`: a bit per CPU, 1024 CPUs.
    #[repr(C)]
    struct CpuSet([u64; 16]);
    extern "C" {
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
    }
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed = CpuSet([0; 16]);
    // SAFETY: `allowed` is a live, writable mask of `size` bytes, which is
    // the size passed; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let (word, bits) = allowed
        .0
        .iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .ok_or("sched_getaffinity: no CPU allowed")?;
    let mut one = CpuSet([0; 16]);
    one.0[word] = 1 << bits.trailing_zeros();
    // SAFETY: `one` is a live mask of `size` bytes, which is the size
    // passed, holding one CPU the thread may run on; pid 0 is the calling
    // thread.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Limits glibc's allocator to one arena. Call it before any thread starts.
///
/// By default every thread that allocates while the others' arenas are in
/// use gets a new arena, so how many arenas the daemon's short-lived
/// connection threads and its worker create, and which of them grow,
/// depends on thread timing: `serve`'s `peak_rss_mb` read either about 24
/// or about 33 MB from run to run. With one arena it read 16 MB every
/// time. `search` and `runtime` run on one thread and use one arena
/// either way.
pub fn single_malloc_arena() {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_ARENA_MAX: c_int = -8;
    // SAFETY: `mallopt` takes two integers and only changes the
    // allocator's tuning; no thread but this one has started yet.
    let ok = unsafe { mallopt(M_ARENA_MAX, 1) };
    assert_eq!(ok, 1, "mallopt(M_ARENA_MAX, 1) failed");
}

/// Resets `VmHWM` to the current resident set (Linux 4.0 or later), so
/// `peak_rss_mb` reports the workload's peak rather than the host
/// reference's buffer.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("reset the memory high-water mark: {e}"))
}

/// SplitMix64: the benchmark's own seeded draws, so the program sees only
/// the generated inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Input classes: the paper's three CCR settings for synthetic graphs,
/// plus its two applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Ccr0,
    Ccr01,
    Ccr1,
    Apps,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Ccr0, Class::Ccr01, Class::Ccr1, Class::Apps];
    pub const SYNTHETIC: [Class; 3] = [Class::Ccr0, Class::Ccr01, Class::Ccr1];

    pub fn label(self) -> &'static str {
        match self {
            Class::Ccr0 => "ccr_0",
            Class::Ccr01 => "ccr_0_1",
            Class::Ccr1 => "ccr_1",
            Class::Apps => "apps",
        }
    }

    pub fn ccr(self) -> f64 {
        match self {
            Class::Ccr0 => 0.0,
            Class::Ccr01 => 0.1,
            Class::Ccr1 => 1.0,
            Class::Apps => f64::NAN,
        }
    }
}

/// A seeded synthetic graph with the paper's statistics (§IV.A).
pub fn synthetic(n_tasks: usize, class: Class, seed: u64) -> TaskGraph {
    synthetic_graph(&SyntheticConfig {
        n_tasks,
        ccr: class.ccr(),
        seed,
        ..SyntheticConfig::default()
    })
}

/// Graph `slot` of a workload's fixed corpus: the same on every run and
/// for every `--seed`.
///
/// LoC-MPS search cost is chaotic in its input (jittering the task works
/// of a pass by ±5% moves its p90 latency by about 20%), so inputs whose
/// cost the search dominates come from this corpus and the seed varies the
/// rest; ten seeds then measure the code rather than the draw. See
/// `perfbench/README.md`.
pub fn corpus_graph(workload: u64, slot: usize, n_tasks: usize, class: Class) -> TaskGraph {
    synthetic(n_tasks, class, 2006 + (workload << 32) + slot as u64)
}

/// The paper's two applications in three problem sizes each: CCSD T1
/// (`i % 6 < 3`) and one-level Strassen.
pub fn application(i: usize) -> TaskGraph {
    let size = i % 3;
    if i % 6 < 3 {
        ccsd_t1_graph(&TceConfig {
            n_occ: [40, 60, 80][size],
            n_virt: [200, 300, 400][size],
            ..TceConfig::default()
        })
    } else {
        strassen_graph(&StrassenConfig {
            n: [1024, 2048, 4096][size],
            ..StrassenConfig::default()
        })
    }
}

/// Fisher–Yates shuffle driven by the benchmark's own generator.
pub fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.range(0, i));
    }
}

/// Round-trips a graph through the JSON form the CLI and daemon read, so
/// every request runs on a parsed, validated graph.
pub fn reparse(g: &TaskGraph) -> Result<TaskGraph, String> {
    let g = TaskGraph::from_json(&g.to_json())?;
    g.validate().map_err(|e| e.to_string())?;
    Ok(g)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// FNV-style hash of a sequence of floats' bit patterns (the makespans a
/// pass produced): any change in any bit changes it.
pub fn hash_bits(values: impl IntoIterator<Item = f64>) -> u64 {
    values
        .into_iter()
        .fold(FNV_OFFSET, |h, x| (h ^ x.to_bits()).wrapping_mul(FNV_PRIME))
}
