//! The four workloads: their seeded inputs, the untraced end-to-end run
//! and the traced per-layer run.
//!
//! Every input is generated from the seed here; the library only ever
//! sees the resulting spec strings and topologies.

use crate::checks::{
    cell_breaches, map_breaches, rca_breaches, session_breaches, ticks_per_ed, MapFacts,
};
use crate::report::{metric, Metric, Tally};
use crate::stats::{median, percentile};
use crate::sys;
use crate::tracer::{trace_map, trace_rca, CallTimes, StepCounts, TracedRun};
use gtd::bench::json::JsonValue;
use gtd::bench::{parse_jsonl, CampaignReport, RunRecord};
use gtd::netsim::{algo, DynamicSpec, Engine, EngineMode, NodeId, Topology, TopologySpec};
use gtd::protocol::run_single_rca;
use gtd::serve::{run_grid, run_worker, serve, GridRequest, ServeOptions, ServerHandle};
use gtd::{mapper_by_name, GtdSession, MapperConfig, MapperError, ProtocolNode, StartBehavior};
use std::hint::black_box;
use std::io::Read;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A named workload (see README.md for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    MapRandom,
    MapRing,
    RcaWide,
    CampaignWire,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MapRandom,
        Workload::MapRing,
        Workload::RcaWide,
        Workload::CampaignWire,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MapRandom => "map-random",
            Workload::MapRing => "map-ring",
            Workload::RcaWide => "rca-wide",
            Workload::CampaignWire => "campaign-wire",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What one run measured.
pub struct Measured {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Pool workers of the engine the workload's operations use.
    pub pool_workers: usize,
    /// Timed operations (maps, RCAs or served grids).
    pub ops: usize,
}

/// Run `workload` untraced and report the end-to-end metrics.
pub fn run_untraced(workload: Workload, seed: u64, seconds: f64) -> Measured {
    match workload {
        Workload::MapRandom | Workload::MapRing => {
            map_untraced(&map_input(workload, seed), seconds)
        }
        Workload::RcaWide => rca_untraced(&rca_input(seed), seconds),
        Workload::CampaignWire => campaign_untraced(seed, seconds),
    }
}

/// Run `workload` traced and report the per-layer metrics.
pub fn run_traced(workload: Workload, seed: u64, seconds: f64) -> Measured {
    match workload {
        Workload::MapRandom | Workload::MapRing => map_traced(&map_input(workload, seed), seconds),
        Workload::RcaWide => rca_traced(&rca_input(seed), seconds),
        Workload::CampaignWire => campaign_traced(seed, seconds),
    }
}

// ---------------------------------------------------------------- inputs

/// Processors of the `map-ring` ring.
const RING_N: usize = 192;

/// Processors of the `rca-wide` network.
const RCA_N: usize = 262_144;

/// One full map: a network, its master's processor and the engine mode.
pub struct MapInput {
    pub spec: TopologySpec,
    pub root: NodeId,
    pub mode: EngineMode,
}

pub fn map_input(workload: Workload, seed: u64) -> MapInput {
    match workload {
        Workload::MapRing => MapInput {
            spec: TopologySpec::Ring { n: RING_N },
            root: NodeId((seed % RING_N as u64) as u32),
            mode: EngineMode::Parallel,
        },
        _ => MapInput {
            spec: TopologySpec::RandomSc {
                n: 256,
                delta: 3,
                seed,
            },
            root: NodeId(0),
            mode: EngineMode::Sparse,
        },
    }
}

/// One standalone RCA to the root over a large seeded network.
pub struct RcaInput {
    pub spec: TopologySpec,
    pub mode: EngineMode,
}

pub fn rca_input(seed: u64) -> RcaInput {
    RcaInput {
        spec: TopologySpec::RandomSc {
            n: RCA_N,
            delta: 3,
            seed,
        },
        mode: EngineMode::Parallel,
    }
}

/// Hops of the RCA's loop from its initiator to the root and back. An RCA
/// here costs 11 ticks per loop hop less 3, so a fixed loop gives every
/// seed the same 239 ticks; 22 hops is the usual loop in this family.
const RCA_LOOP: u32 = 22;

/// The RCA's initiator: the lowest-numbered processor other than the root
/// whose loop through the root is closest to [`RCA_LOOP`] hops.
pub fn rca_source(topo: &Topology) -> NodeId {
    let from_root = algo::bfs_dist(topo, NodeId(0));
    let to_root = algo::bfs_dist_rev(topo, NodeId(0));
    let best = (1..topo.num_nodes())
        .min_by_key(|&i| from_root[i].saturating_add(to_root[i]).abs_diff(RCA_LOOP))
        .expect("the network has more than one processor");
    NodeId(best as u32)
}

/// The `campaign-wire` grid: one spec of every family, six seeded random
/// networks, a lossy and a delayed wire, and two live mutations, each run
/// by all three mappers (54 cells).
pub fn campaign_request(seed: u64) -> GridRequest {
    let s = seed;
    let mut specs = vec![
        "ring:24".to_string(),
        "torus:4,4".into(),
        "debruijn:2,4".into(),
        "kautz:2,3".into(),
        "hypercube:4".into(),
        "line-bidi:16".into(),
        format!("tree-loop:h=3,seed={s}"),
        format!("bidi-grid-faulty:w=4,h=4,p=0.2,seed={s}"),
    ];
    for i in 0..6u64 {
        let sub = s.wrapping_mul(6).wrapping_add(i);
        specs.push(format!("random-sc:n=48,delta=3,seed={sub}"));
    }
    specs.push(format!("ring:24~loss=0.01~fault-seed={s}"));
    specs.push(format!("ring:24~delay=1..3~fault-seed={s}"));
    specs.push(format!("random-sc:n=32,delta=3,seed={s}+add-edge=1@t200"));
    specs.push("ring:24+node-restart=3@t400".into());
    GridRequest::new(specs, ["gtd", "flood-echo", "routed-dfs"])
}

// ------------------------------------------------------- shared helpers

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// The engine `GtdSession::run` builds.
fn gtd_engine(topo: &Topology, mode: EngineMode, root: NodeId) -> Engine<ProtocolNode> {
    Engine::with_root_sharded(topo, mode, root, None, &mut |meta| {
        let start = if meta.is_root {
            StartBehavior::GtdRoot
        } else {
            StartBehavior::Passive
        };
        ProtocolNode::new(&meta, start)
    })
}

/// The engine `run_single_rca` builds.
fn rca_engine(topo: &Topology, mode: EngineMode, from: NodeId) -> Engine<ProtocolNode> {
    Engine::with_root_sharded(topo, mode, NodeId(0), None, &mut |meta| {
        let start = if meta.id == from {
            StartBehavior::SingleRca
        } else {
            StartBehavior::Passive
        };
        ProtocolNode::new(&meta, start)
    })
}

/// Set-up is timed this many times at least...
const SETUP_MIN_REPS: usize = 5;
/// ...and for at least this long; the median is reported.
const SETUP_MIN_S: f64 = 1.0;
/// Cap on set-up repetitions for sub-millisecond set-ups.
const SETUP_MAX_REPS: usize = 2000;

/// Median of repeated set-up timings. `one` performs and times one
/// set-up and returns its seconds.
fn setup_median(mut one: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < SETUP_MIN_REPS
        || (secs(start) < SETUP_MIN_S && samples.len() < SETUP_MAX_REPS)
    {
        samples.push(one());
    }
    median(&samples).unwrap_or_default()
}

/// One timed operation: its duration, its tick count and the checks of
/// each counted item in it (one map or RCA, or every cell of a grid).
struct Op {
    secs: f64,
    ticks: u64,
    checks: Vec<(String, Vec<String>)>,
}

/// Run `op` while another one fits in `seconds`, at least once. Every check is
/// tallied, and every operation must repeat the first one's tick count:
/// the inputs are fixed, so a different count means nondeterminism.
fn op_loop(seconds: f64, tally: &mut Tally, mut op: impl FnMut() -> Op) -> (Vec<f64>, u64) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut first_ticks = None;
    loop {
        let r = op();
        times.push(r.secs);
        let first = *first_ticks.get_or_insert(r.ticks);
        if r.ticks != first {
            tally.gate(
                "determinism",
                vec![format!(
                    "operation {} took {} ticks, the first {first}",
                    times.len(),
                    r.ticks
                )],
            );
        }
        for (what, breaches) in r.checks {
            tally.op(&what, breaches);
        }
        // stop before an operation that would run past the budget
        if secs(start) + r.secs >= seconds {
            break;
        }
    }
    (times, first_ticks.unwrap_or_default())
}

/// This process's peak resident memory in MiB (0 where unknown).
fn own_peak_rss_mb() -> f64 {
    sys::status_mb("VmHWM").unwrap_or(0.0)
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end(
    setup_s: f64,
    op_times: &[f64],
    ticks: u64,
    peak_rss_mb: f64,
    tally: &Tally,
) -> Vec<Metric> {
    let op_s = median(op_times).unwrap_or_default();
    vec![
        metric("setup_s", "s", setup_s),
        metric("op_s", "s", op_s),
        metric("ticks", "count", ticks as f64),
        metric("ticks_per_s", "1/s", ticks as f64 / op_s),
        metric("peak_rss_mb", "MB", peak_rss_mb),
        metric("ok_share", "share", tally.ok_share()),
    ]
}

// ------------------------------------------------------------- untraced

fn map_untraced(input: &MapInput, seconds: f64) -> Measured {
    let mut pool_workers = 0;
    let setup_s = setup_median(|| {
        let t0 = Instant::now();
        let topo = input.spec.build();
        let engine = gtd_engine(&topo, input.mode, input.root);
        let s = secs(t0);
        pool_workers = engine.pool_workers();
        black_box((topo, engine));
        s
    });
    let topo = input.spec.build();
    let diameter = algo::diameter(&topo);
    let mut tally = Tally::default();
    let (times, ticks) = op_loop(seconds, &mut tally, || {
        let t0 = Instant::now();
        let run = GtdSession::on(&topo)
            .root(input.root)
            .mode(input.mode)
            .run();
        let secs = secs(t0);
        let (ticks, breaches) = match &run {
            Ok(run) => (
                run.ticks,
                session_breaches(&topo, diameter, input.root, run),
            ),
            Err(e) => (0, vec![e.to_string()]),
        };
        Op {
            secs,
            ticks,
            checks: vec![(format!("map of {}", input.spec), breaches)],
        }
    });
    Measured {
        metrics: end_to_end(setup_s, &times, ticks, own_peak_rss_mb(), &tally),
        tally,
        pool_workers,
        ops: times.len(),
    }
}

fn rca_untraced(input: &RcaInput, seconds: f64) -> Measured {
    let topo = input.spec.build();
    let from = rca_source(&topo);
    drop(topo);
    let mut pool_workers = 0;
    let setup_s = setup_median(|| {
        let t0 = Instant::now();
        let topo = input.spec.build();
        let engine = rca_engine(&topo, input.mode, from);
        let s = secs(t0);
        pool_workers = engine.pool_workers();
        black_box((topo, engine));
        s
    });
    let topo = input.spec.build();
    let mut tally = Tally::default();
    let (times, ticks) = op_loop(seconds, &mut tally, || {
        let t0 = Instant::now();
        let probe = run_single_rca(&topo, from, input.mode);
        let secs = secs(t0);
        let (ticks, breaches) = match &probe {
            Ok(p) => (p.ticks, rca_breaches(p)),
            Err(e) => (0, vec![e.to_string()]),
        };
        Op {
            secs,
            ticks,
            checks: vec![(format!("RCA on {}", input.spec), breaches)],
        }
    });
    Measured {
        metrics: end_to_end(setup_s, &times, ticks, own_peak_rss_mb(), &tally),
        tally,
        pool_workers,
        ops: times.len(),
    }
}

/// How long a client waits for the coordinator to accept it.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// A coordinator on an ephemeral loopback port with one worker thread.
/// The coordinator has no shutdown, so both live until the process ends.
struct Wire {
    addr: String,
    _server: ServerHandle,
    worker: JoinHandle<std::io::Result<u64>>,
}

impl Wire {
    /// Start the coordinator and the worker, and wait until the worker
    /// has answered a one-cell probe grid. Returns the seconds it took.
    fn start() -> Result<(Wire, f64), String> {
        let t0 = Instant::now();
        let server = serve(ServeOptions::default()).map_err(|e| format!("serve: {e}"))?;
        let addr = server.addr.to_string();
        let worker = {
            let addr = addr.clone();
            std::thread::spawn(move || run_worker(&addr))
        };
        let probe = GridRequest::new(["ring:4"], ["flood-echo"]);
        let probed =
            run_grid(&addr, &probe, CONNECT_TIMEOUT).map_err(|e| format!("probe grid: {e}"));
        let wire = Wire {
            addr,
            _server: server,
            worker,
        };
        match probed {
            Ok(g) if g.errors == 0 => Ok((wire, secs(t0))),
            Ok(g) => Err(format!("probe grid failed {} cell(s)", g.errors)),
            Err(e) => Err(e),
        }
    }

    /// A worker only ends early when it failed or lost its coordinator.
    fn breaches(self) -> Vec<String> {
        if !self.worker.is_finished() {
            return Vec::new();
        }
        match self.worker.join() {
            Ok(Ok(cells)) => vec![format!("worker ended early after {cells} cells")],
            Ok(Err(e)) => vec![format!("worker failed: {e}")],
            Err(_) => vec!["worker panicked".into()],
        }
    }
}

/// The grid's reference, run in process, and what its checks need.
struct Grid {
    req: GridRequest,
    reference: CampaignReport,
    rows: Vec<String>,
    export: String,
    /// Per cell: the network's diameter for reliable static specs.
    diameters: Vec<Option<u32>>,
    inproc_s: f64,
}

impl Grid {
    fn new(seed: u64) -> Grid {
        let req = campaign_request(seed);
        let campaign = req
            .to_campaign()
            .expect("the benchmark's grid is well-formed")
            .jobs(1);
        let t0 = Instant::now();
        let reference = campaign.run().expect("the benchmark's grid is well-formed");
        let inproc_s = secs(t0);
        let rows = reference
            .records
            .iter()
            .map(|r| r.to_json().render())
            .collect();
        let per_spec = campaign.cells_per_spec();
        let diameters = req
            .specs
            .iter()
            .flat_map(|s| {
                let d = reliable_static(s).map(|topo| algo::diameter(&topo));
                std::iter::repeat_n(d, per_spec)
            })
            .collect();
        Grid {
            req,
            export: reference.to_jsonl(),
            reference,
            rows,
            diameters,
            inproc_s,
        }
    }

    /// The ticks of a served export (the sum of its successful cells'
    /// rounds) and the checks of every cell, plus the byte-identity of
    /// the whole export.
    fn check(&self, served: Result<&str, &str>) -> (u64, Vec<(String, Vec<String>)>) {
        let records = served.map_err(str::to_string).and_then(parse_jsonl);
        let mut out = Vec::new();
        for (i, row) in self.rows.iter().enumerate() {
            let what = format!("cell {i} ({})", self.reference.records[i].spec);
            let breaches = match &records {
                Ok(recs) => match recs.get(i) {
                    Some(rec) => cell_breaches(rec, row, self.diameters[i]),
                    None => vec!["missing from the served grid".into()],
                },
                Err(e) => vec![e.clone()],
            };
            out.push((what, breaches));
        }
        if served.is_ok_and(|text| text != self.export) {
            out.push((
                "export".into(),
                vec!["served export differs from the in-process export".into()],
            ));
        }
        let ticks = records.as_deref().map_or(0, ok_rounds);
        (ticks, out)
    }
}

/// The topology of a spec that is static and on reliable wires.
fn reliable_static(spec: &str) -> Option<Topology> {
    let d: DynamicSpec = spec.parse().ok()?;
    is_reliable_static(&d).then(|| d.build())
}

fn is_reliable_static(d: &DynamicSpec) -> bool {
    d.is_static() && !d.fault.is_active()
}

fn ok_rounds(records: &[RunRecord]) -> u64 {
    records
        .iter()
        .filter_map(|r| r.result.as_ref().ok())
        .map(|o| o.rounds)
        .sum()
}

/// How long a served grid may take before its process is killed.
const SERVE_TIMEOUT: Duration = Duration::from_secs(60);

/// One grid served by a process of its own. Each operation starts from a
/// fresh process because the coordinator cannot be shut down: the
/// coordinators and workers of earlier operations would otherwise stay,
/// and the process would grow with every operation.
struct Served {
    setup_s: f64,
    grid_s: f64,
    peak_rss_mb: f64,
    retries: u64,
    cached: u64,
    /// The JSONL export of the served grid.
    export: String,
}

/// The serving process (`perfbench --serve-grid <seed>`): start a
/// coordinator and a worker thread, serve the seed's grid once, and return
/// a header line with the timings followed by the grid's export.
pub fn serve_grid(seed: u64) -> Result<String, String> {
    let (wire, setup_s) = Wire::start()?;
    let t0 = Instant::now();
    let served = run_grid(&wire.addr, &campaign_request(seed), CONNECT_TIMEOUT)
        .map_err(|e| format!("served grid: {e}"))?;
    let grid_s = secs(t0);
    if let Some(b) = wire.breaches().into_iter().next() {
        return Err(b);
    }
    let head = JsonValue::obj([
        ("setup_s".to_string(), JsonValue::Num(setup_s)),
        ("grid_s".to_string(), JsonValue::Num(grid_s)),
        ("peak_rss_mb".to_string(), JsonValue::Num(own_peak_rss_mb())),
        ("retries".to_string(), JsonValue::Num(served.retries as f64)),
        ("cached".to_string(), JsonValue::Num(served.cached as f64)),
    ]);
    Ok(format!("{}\n{}", head.render(), served.report.to_jsonl()))
}

/// Run [`serve_grid`] in a child process and wait for it, killing it
/// after [`SERVE_TIMEOUT`].
fn serve_in_child(seed: u64) -> Result<Served, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--serve-grid", &seed.to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("starting the serving process: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    // The output ends when the process exits; wait for it no longer than
    // the timeout.
    let (done, finished) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let read = stdout.read_to_string(&mut text).map(|_| text);
        let _ = done.send(());
        read
    });
    let timed_out = finished.recv_timeout(SERVE_TIMEOUT).is_err();
    if timed_out {
        let _ = child.kill();
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for the serving process: {e}"))?;
    let text = reader
        .join()
        .map_err(|_| "reading the serving process panicked".to_string())?
        .map_err(|e| format!("reading the serving process: {e}"))?;
    if timed_out {
        return Err(format!("serving process killed after {SERVE_TIMEOUT:?}"));
    }
    if !status.success() {
        return Err(format!("serving process failed: {status}"));
    }
    let (head, export) = text
        .split_once('\n')
        .ok_or("serving process printed nothing")?;
    let head = JsonValue::parse(head)?;
    let num = |k: &str| match head.get(k) {
        Some(JsonValue::Num(x)) => Ok(*x),
        _ => Err(format!("serving process header lacks {k}")),
    };
    Ok(Served {
        setup_s: num("setup_s")?,
        grid_s: num("grid_s")?,
        peak_rss_mb: num("peak_rss_mb")?,
        retries: num("retries")? as u64,
        cached: num("cached")? as u64,
        export: export.to_string(),
    })
}

fn campaign_untraced(seed: u64, seconds: f64) -> Measured {
    let grid = Grid::new(seed);
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut peaks = Vec::new();
    let (times, ticks) = op_loop(seconds, &mut tally, || match serve_in_child(seed) {
        Ok(s) => {
            setups.push(s.setup_s);
            peaks.push(s.peak_rss_mb);
            let (ticks, checks) = grid.check(Ok(&s.export));
            Op {
                secs: s.grid_s,
                ticks,
                checks,
            }
        }
        Err(e) => Op {
            secs: 0.0,
            ticks: 0,
            checks: grid.check(Err(&e)).1,
        },
    });
    let median_or_0 = |v: &[f64]| median(v).unwrap_or_default();
    Measured {
        metrics: end_to_end(
            median_or_0(&setups),
            &times,
            ticks,
            median_or_0(&peaks),
            &tally,
        ),
        tally,
        pool_workers: 0,
        ops: times.len(),
    }
}

// --------------------------------------------------------------- traced

/// Set-up layer numbers: seconds and resident MiB a build added.
#[derive(Clone, Copy, Default)]
struct Build {
    secs: f64,
    rss_mb: f64,
}

/// Time `f` and measure the resident memory its result holds.
fn measure_build<T>(f: impl FnOnce() -> T) -> (T, Build) {
    let rss0 = sys::rss_mb();
    let t0 = Instant::now();
    let out = f();
    let secs = secs(t0);
    let rss_mb = sys::rss_mb() - rss0;
    (out, Build { secs, rss_mb })
}

/// One repetition's per-layer numbers, before the medians are taken.
#[derive(Default)]
struct Layers {
    spec: Build,
    engine: Build,
    /// Step counters and call times summed over the traced replays.
    steps: StepCounts,
    calls: CallTimes,
    /// Simulated ticks and processor-ticks over the replays.
    ticks: u64,
    node_ticks: f64,
    ticks_per_ed: f64,
    bcas: usize,
    rcas: usize,
    edges_reported: usize,
    dropped: u64,
    fault_dropped: u64,
    fault_delayed: u64,
    retries: u64,
    cell_ms_p50: f64,
    cell_ms_p90: f64,
    inproc_s: f64,
    wire_overhead_s: f64,
    row_codec_us: f64,
    serve_retries: u64,
    serve_cached: u64,
    /// Traced minus untraced wall time of the same operations.
    overhead_s: f64,
}

impl Layers {
    fn add_replay(&mut self, tr: &TracedRun) {
        self.steps.add(&tr.steps);
        self.calls.add(&tr.calls);
        self.ticks += tr.ticks;
        self.node_ticks += tr.ticks as f64 * tr.nodes as f64;
        self.bcas += tr.stats.bcas();
        self.rcas += tr.stats.rcas();
        self.edges_reported += tr.stats.edges_reported();
        self.dropped += tr.stats.dropped;
    }

    fn metrics(&self) -> Vec<Metric> {
        let steps = self.steps.steps.max(1) as f64;
        let step_s = self.steps.busy_ns as f64 * 1e-9;
        let tick_self_s = self.calls.tick_s - self.steps.driving_ns as f64 * 1e-9;
        vec![
            metric("netsim.spec.build_s", "s", self.spec.secs),
            metric("netsim.spec.rss_mb", "MB", self.spec.rss_mb),
            metric("netsim.engine.build_s", "s", self.engine.secs),
            metric("netsim.engine.rss_mb", "MB", self.engine.rss_mb),
            metric("netsim.engine.tick_s", "s", self.calls.tick_s),
            metric("netsim.engine.tick_self_s", "s", tick_self_s),
            metric("netsim.engine.ns_per_step", "ns", tick_self_s * 1e9 / steps),
            metric("netsim.engine.skip_lull_s", "s", self.calls.skip_lull_s),
            metric(
                "netsim.engine.ticks_skipped",
                "count",
                self.calls.ticks_skipped as f64,
            ),
            metric("netsim.engine.steps", "count", self.steps.steps as f64),
            metric(
                "netsim.engine.steps_per_tick",
                "steps/tick",
                self.steps.steps as f64 / self.ticks.max(1) as f64,
            ),
            metric(
                "netsim.engine.active_share",
                "share",
                self.steps.steps as f64 / self.node_ticks.max(1.0),
            ),
            metric(
                "netsim.engine.chars_routed",
                "count",
                self.steps.chars_out as f64,
            ),
            metric(
                "netsim.engine.useful_step_share",
                "share",
                self.steps.useful_steps as f64 / steps,
            ),
            metric("core.node.step_s", "s", step_s),
            metric("core.node.ns_per_step", "ns", step_s * 1e9 / steps),
            metric(
                "core.node.input_share",
                "share",
                self.steps.input_steps as f64 / steps,
            ),
            metric(
                "core.node.emit_share",
                "share",
                self.steps.emit_steps as f64 / steps,
            ),
            metric(
                "core.node.chars_per_step",
                "chars/step",
                self.steps.chars_out as f64 / steps,
            ),
            metric("core.master.feed_s", "s", self.calls.feed_s),
            metric("core.master.events", "count", self.calls.events as f64),
            metric("core.master.into_map_s", "s", self.calls.into_map_s),
            metric("core.session.ticks_per_ed", "ticks/ED", self.ticks_per_ed),
            metric("core.session.bcas", "count", self.bcas as f64),
            metric("core.session.rcas", "count", self.rcas as f64),
            metric(
                "core.session.edges_reported",
                "count",
                self.edges_reported as f64,
            ),
            metric("core.session.dropped", "count", self.dropped as f64),
            metric("netsim.fault.dropped", "count", self.fault_dropped as f64),
            metric("netsim.fault.delayed", "count", self.fault_delayed as f64),
            metric("core.session.retries", "count", self.retries as f64),
            metric("bench.campaign.cell_ms_p50", "ms", self.cell_ms_p50),
            metric("bench.campaign.cell_ms_p90", "ms", self.cell_ms_p90),
            metric("bench.campaign.inproc_s", "s", self.inproc_s),
            metric("serve.wire_overhead_s", "s", self.wire_overhead_s),
            metric("serve.protocol.row_codec_us", "us", self.row_codec_us),
            metric("serve.retries", "count", self.serve_retries as f64),
            metric("serve.cached", "count", self.serve_cached as f64),
            metric("bench.trace.overhead_s", "s", self.overhead_s),
        ]
    }
}

/// Repeat `rep` while another repetition fits in `seconds` (at least
/// once) and report each per-layer metric's median over the repetitions.
/// Counts repeat exactly, so their median is their value.
fn traced_loop(seconds: f64, mut rep: impl FnMut() -> Layers) -> (Vec<Metric>, usize) {
    let start = Instant::now();
    let mut runs: Vec<Vec<Metric>> = Vec::new();
    loop {
        let t0 = Instant::now();
        runs.push(rep().metrics());
        if secs(start) + secs(t0) >= seconds {
            break;
        }
    }
    let merged = runs[0]
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = runs.iter().map(|r| r[i].value).collect();
            metric(m.name, m.unit, median(&values).unwrap_or_default())
        })
        .collect();
    (merged, runs.len())
}

/// The gate: a traced replay must reproduce the library's own result.
fn map_gate(tr: &TracedRun, lib: &gtd::RunOutcome) -> Vec<String> {
    let mut out = Vec::new();
    if tr.ticks != lib.ticks {
        out.push(format!(
            "traced ticks {} != session ticks {}",
            tr.ticks, lib.ticks
        ));
    }
    if tr.map.as_ref() != Some(&lib.map) {
        out.push("traced map differs from the session's map".into());
    }
    if tr.stats != lib.stats {
        out.push(format!(
            "traced counters {:?} != session counters {:?}",
            tr.stats, lib.stats
        ));
    }
    if (tr.clean_at_end, tr.all_visited) != (lib.clean_at_end, lib.all_visited) {
        out.push("traced cleanliness or DFS coverage differs from the session's".into());
    }
    out
}

fn map_traced(input: &MapInput, seconds: f64) -> Measured {
    let mut tally = Tally::default();
    let mut pool_workers = 0;
    let (metrics, reps) = traced_loop(seconds, || {
        let mut l = Layers::default();
        let (topo, spec) = measure_build(|| input.spec.build());
        let (engine, eb) = measure_build(|| gtd_engine(&topo, input.mode, input.root));
        pool_workers = engine.pool_workers();
        drop(engine);
        (l.spec, l.engine) = (spec, eb);
        let diameter = algo::diameter(&topo);
        let t0 = Instant::now();
        let lib = GtdSession::on(&topo)
            .root(input.root)
            .mode(input.mode)
            .run();
        let untraced_s = secs(t0);
        let tr = trace_map(&topo, input.root, input.mode);
        match (&lib, &tr) {
            (Ok(lib), Ok(tr)) => {
                tally.op(
                    "session map",
                    session_breaches(&topo, diameter, input.root, lib),
                );
                let facts = MapFacts::from_stats(
                    topo.num_edges(),
                    diameter,
                    tr.ticks,
                    &tr.stats,
                    tr.clean_at_end,
                );
                tally.op("traced map", map_breaches(&facts, Ok(())));
                tally.gate("faithfulness", map_gate(tr, lib));
                l.add_replay(tr);
                l.ticks_per_ed = ticks_per_ed(tr.ticks, topo.num_edges(), diameter);
                l.overhead_s = tr.calls.wall_s - untraced_s;
            }
            _ => {
                let errs = [
                    lib.err().map(|e| e.to_string()),
                    tr.err().map(|e| e.to_string()),
                ];
                tally.op("map", errs.into_iter().flatten().collect());
            }
        }
        l
    });
    Measured {
        tally,
        metrics,
        pool_workers,
        ops: reps,
    }
}

fn rca_traced(input: &RcaInput, seconds: f64) -> Measured {
    let mut tally = Tally::default();
    let mut pool_workers = 0;
    let (metrics, reps) = traced_loop(seconds, || {
        let mut l = Layers::default();
        let (topo, spec) = measure_build(|| input.spec.build());
        let from = rca_source(&topo);
        let (engine, eb) = measure_build(|| rca_engine(&topo, input.mode, from));
        drop(engine);
        (l.spec, l.engine) = (spec, eb);
        let t0 = Instant::now();
        let lib = run_single_rca(&topo, from, input.mode);
        let untraced_s = secs(t0);
        let tr = trace_rca(&topo, from, input.mode);
        match (&lib, &tr) {
            (Ok(lib), Ok(tr)) => {
                tally.op("RCA", rca_breaches(lib));
                let traced_probe = gtd::protocol::RcaProbe {
                    ticks: tr.ticks,
                    clean_at_end: tr.clean_at_end,
                    ..*lib
                };
                tally.op("traced RCA", rca_breaches(&traced_probe));
                if (tr.ticks, tr.clean_at_end) != (lib.ticks, lib.clean_at_end) {
                    tally.gate(
                        "faithfulness",
                        vec![format!(
                            "traced RCA ({} ticks, clean {}) != run_single_rca ({} ticks, clean {})",
                            tr.ticks, tr.clean_at_end, lib.ticks, lib.clean_at_end
                        )],
                    );
                }
                pool_workers = tr.pool_workers;
                l.add_replay(tr);
                l.rcas = 1;
                l.overhead_s = tr.calls.wall_s - untraced_s;
            }
            _ => {
                let errs = [
                    lib.err().map(|e| e.to_string()),
                    tr.err().map(|e| e.to_string()),
                ];
                tally.op("RCA", errs.into_iter().flatten().collect());
            }
        }
        l
    });
    Measured {
        tally,
        metrics,
        pool_workers,
        ops: reps,
    }
}

/// Passes over the grid's cells when timing them one by one, so the
/// 90th percentile has at least ten samples above it.
const CELL_PASSES: usize = 2;

/// Passes over the grid's rows when timing the row codec.
const CODEC_PASSES: usize = 5;

fn campaign_traced(seed: u64, seconds: f64) -> Measured {
    let mut tally = Tally::default();
    let (metrics, reps) = traced_loop(seconds, || {
        let mut l = Layers::default();
        let grid = Grid::new(seed);
        l.inproc_s = grid.inproc_s;

        // Spec builds, and the engines GTD builds on the reliable static specs.
        let (built, spec) = measure_build(|| {
            grid.req
                .specs
                .iter()
                .filter_map(|s| s.parse::<DynamicSpec>().ok())
                .map(|d| {
                    let topo = d.build();
                    (d, topo)
                })
                .collect::<Vec<_>>()
        });
        l.spec = spec;
        let reliable: Vec<&(DynamicSpec, Topology)> = built
            .iter()
            .filter(|(d, _)| is_reliable_static(d))
            .collect();
        let (engines, eb) = measure_build(|| {
            reliable
                .iter()
                .map(|(_, topo)| gtd_engine(topo, EngineMode::Sparse, NodeId(0)))
                .collect::<Vec<_>>()
        });
        drop(engines);
        l.engine = eb;

        // Traced replays of the reliable static GTD cells, gated against
        // both a session run and the grid's own record.
        let mut ratios = Vec::new();
        for (d, topo) in &reliable {
            let name = d.to_string();
            let diameter = algo::diameter(topo);
            let t0 = Instant::now();
            let lib = GtdSession::on(topo).mode(EngineMode::Sparse).run();
            let untraced_s = secs(t0);
            let tr = trace_map(topo, NodeId(0), EngineMode::Sparse);
            let record = grid
                .reference
                .records
                .iter()
                .find(|r| r.spec == name && r.mapper == "gtd")
                .and_then(|r| r.result.as_ref().ok());
            match (&lib, &tr, record) {
                (Ok(lib), Ok(tr), Some(rec)) => {
                    let facts = MapFacts::from_stats(
                        topo.num_edges(),
                        diameter,
                        tr.ticks,
                        &tr.stats,
                        tr.clean_at_end,
                    );
                    tally.op(
                        &format!("traced map of {name}"),
                        map_breaches(&facts, Ok(())),
                    );
                    let mut gate = map_gate(tr, lib);
                    if (rec.rounds, rec.rcas, rec.bcas)
                        != (tr.ticks, Some(tr.stats.rcas()), Some(tr.stats.bcas()))
                    {
                        gate.push(format!(
                            "traced replay of {name} differs from its grid record"
                        ));
                    }
                    tally.gate("faithfulness", gate);
                    l.add_replay(tr);
                    ratios.push(ticks_per_ed(tr.ticks, topo.num_edges(), diameter));
                    l.overhead_s += tr.calls.wall_s - untraced_s;
                }
                _ => {
                    let errs = [
                        lib.err().map(|e| e.to_string()),
                        tr.err().map(|e| e.to_string()),
                    ];
                    let mut errs: Vec<String> = errs.into_iter().flatten().collect();
                    if record.is_none() {
                        errs.push("no successful grid record".into());
                    }
                    tally.op(&format!("traced map of {name}"), errs);
                }
            }
        }
        l.ticks_per_ed = median(&ratios).unwrap_or_default();

        // Fault-plane counters of the faulted GTD cells, through the
        // mapper the cell itself uses.
        for (d, topo) in built
            .iter()
            .filter(|(d, _)| d.is_static() && d.fault.is_active())
        {
            let cfg = MapperConfig {
                capture_phases: true,
                fault: d.fault,
                ..MapperConfig::default()
            };
            let mapper = mapper_by_name("gtd", &cfg).expect("gtd is a mapper");
            match mapper.map_network(topo, NodeId(0)) {
                Ok(run) => {
                    let s = run.stats.unwrap_or_default();
                    l.fault_dropped += s.fault_dropped;
                    l.fault_delayed += s.fault_delayed;
                    l.retries += u64::from(s.retries);
                }
                Err(MapperError::Degraded {
                    retries,
                    fault_dropped,
                    fault_delayed,
                    ..
                }) => {
                    l.fault_dropped += fault_dropped;
                    l.fault_delayed += fault_delayed;
                    l.retries += u64::from(retries);
                }
                Err(e) => tally.op(&format!("faulted map of {d}"), vec![e.to_string()]),
            }
        }

        // One cell at a time, in process.
        let cells = grid
            .req
            .to_campaign()
            .and_then(|c| c.plan())
            .expect("the benchmark's grid is well-formed");
        let mut cell_ms = Vec::new();
        for _ in 0..CELL_PASSES {
            for (i, cell) in cells.iter().enumerate() {
                let t0 = Instant::now();
                let rec = cell.execute_built();
                cell_ms.push(secs(t0) * 1e3);
                if rec.to_json().render() != grid.rows[i] {
                    tally.gate(
                        "determinism",
                        vec![format!(
                            "cell {i} ({}) differs from the grid's row",
                            rec.spec
                        )],
                    );
                }
            }
        }
        l.cell_ms_p50 = median(&cell_ms).unwrap_or_default();
        l.cell_ms_p90 = percentile(&cell_ms, 90.0).unwrap_or_default();

        // The same grid over the wire.
        match serve_in_child(seed) {
            Ok(served) => {
                l.wire_overhead_s = served.grid_s - grid.inproc_s;
                l.serve_retries = served.retries;
                l.serve_cached = served.cached;
                for (what, breaches) in grid.check(Ok(&served.export)).1 {
                    tally.op(&what, breaches);
                }
            }
            Err(e) => tally.op("served grid", vec![e]),
        }

        // The row codec: record -> JSON -> text -> JSON -> record.
        let mut codec_us = Vec::new();
        for _ in 0..CODEC_PASSES {
            for rec in &grid.reference.records {
                let t0 = Instant::now();
                let text = rec.to_json().render();
                let back = JsonValue::parse(&text)
                    .ok()
                    .and_then(|v| RunRecord::from_json(&v));
                codec_us.push(secs(t0) * 1e6);
                // The export is the contract: the record parsed back must
                // render the identical row (phase RCA counts are not
                // exported, so records need not compare equal).
                if back.map(|b| b.to_json().render()).as_ref() != Some(&text) {
                    tally.gate(
                        "row codec",
                        vec![format!("{} does not round-trip", rec.spec)],
                    );
                }
            }
        }
        l.row_codec_us = median(&codec_us).unwrap_or_default();
        l
    });
    Measured {
        tally,
        metrics,
        pool_workers: 0,
        ops: reps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("map"), None);
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(campaign_request(3), campaign_request(3));
        assert_ne!(campaign_request(3), campaign_request(4));
        assert_eq!(map_input(Workload::MapRing, 200).root, NodeId(8));
        assert_eq!(rca_input(5).spec, rca_input(5).spec);
        let topo = gtd::generators::random_sc(64, 3, 1);
        let a = rca_source(&topo);
        assert_ne!(a, NodeId(0));
        assert_eq!(a, rca_source(&topo));
    }

    #[test]
    fn the_campaign_grid_is_well_formed_and_valid_at_any_seed() {
        for seed in [0, 1, u64::MAX] {
            let req = campaign_request(seed);
            let cells = req.to_campaign().and_then(|c| c.plan()).unwrap();
            assert_eq!(cells.len(), 54);
        }
    }
}
