//! The traced run's instruments: a counting and timing wrapper around any
//! [`Automaton`], and drivers that replay `GtdSession::run` and
//! `run_single_rca` tick by tick through the public engine API, timing
//! each call into the engine and the master computer.
//!
//! Everything here sits outside the library: the wrapper only sees what
//! [`StepCtx`] exposes, and the drivers repeat the library's own loops
//! call for call, so the faithfulness gate can demand identical ticks,
//! maps and counters.

use gtd::netsim::{Automaton, Engine, EngineMode, NodeId, NodeMeta, PortMask, StepCtx, Topology};
use gtd::protocol::{default_tick_budget, DecodeError, GtdError, NetworkMap, RunStats};
use gtd::{MasterComputer, ProtocolNode, StartBehavior, TranscriptEvent};
use std::cell::Cell;
use std::time::Instant;

thread_local! {
    /// True on the thread that calls `Engine::tick`: steps it runs are
    /// child spans of the tick, while steps on pool workers overlap it.
    static DRIVING: Cell<bool> = const { Cell::new(false) };
}

/// Per-processor counters kept inside the wrapper, so pool workers
/// stepping different processors never share a counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepCounts {
    /// Steps taken.
    pub steps: u64,
    /// Steps that read at least one non-blank input.
    pub input_steps: u64,
    /// Steps that wrote at least one non-blank character on a wired port.
    pub emit_steps: u64,
    /// Steps with input or output (the rest are idle steps).
    pub useful_steps: u64,
    /// Non-blank characters written on wired out-ports.
    pub chars_out: u64,
    /// Nanoseconds inside the wrapped step on the driving thread.
    pub driving_ns: u64,
    /// Nanoseconds inside the wrapped step on any thread.
    pub busy_ns: u64,
}

impl StepCounts {
    /// Field-wise sum.
    pub fn add(&mut self, o: &StepCounts) {
        self.steps += o.steps;
        self.input_steps += o.input_steps;
        self.emit_steps += o.emit_steps;
        self.useful_steps += o.useful_steps;
        self.chars_out += o.chars_out;
        self.driving_ns += o.driving_ns;
        self.busy_ns += o.busy_ns;
    }
}

/// An automaton wrapped in counters and a step timer. Its signals, events
/// and state transitions are the inner automaton's, unchanged.
pub struct Traced<A> {
    pub inner: A,
    out_wired: PortMask,
    pub counts: StepCounts,
}

impl<A> Traced<A> {
    pub fn new(inner: A, meta: &NodeMeta) -> Self {
        Traced {
            inner,
            out_wired: meta.out_connected,
            counts: StepCounts::default(),
        }
    }
}

impl<A: Automaton> Automaton for Traced<A> {
    type Sig = A::Sig;
    type Event = A::Event;

    fn step(&mut self, ctx: &mut StepCtx<'_, A::Sig, A::Event>) {
        let blank = A::Sig::default();
        let input = ctx.inputs.iter().any(|s| *s != blank);
        let t0 = Instant::now();
        self.inner.step(ctx);
        let ns = t0.elapsed().as_nanos() as u64;
        let out = self
            .out_wired
            .iter()
            .filter(|p| ctx.outputs[p.idx()] != blank)
            .count() as u64;
        let c = &mut self.counts;
        c.steps += 1;
        c.input_steps += u64::from(input);
        c.emit_steps += u64::from(out > 0);
        c.useful_steps += u64::from(input || out > 0);
        c.chars_out += out;
        c.busy_ns += ns;
        if DRIVING.with(Cell::get) {
            c.driving_ns += ns;
        }
    }

    fn on_rewire(&mut self, meta: &NodeMeta) {
        self.out_wired = meta.out_connected;
        self.inner.on_rewire(meta);
    }

    fn on_join(&mut self, meta: &NodeMeta) {
        self.out_wired = meta.out_connected;
        self.inner.on_join(meta);
    }
}

/// Wall time and call counts of the engine and master calls a driver made.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallTimes {
    /// `Engine::tick`, summed.
    pub tick_s: f64,
    /// `Engine::tick` calls.
    pub tick_calls: u64,
    /// `Engine::skip_lull`, summed.
    pub skip_lull_s: f64,
    /// Ticks `skip_lull` jumped over.
    pub ticks_skipped: u64,
    /// `MasterComputer::feed`, summed.
    pub feed_s: f64,
    /// Events fed to the master.
    pub events: u64,
    /// `MasterComputer::into_map`.
    pub into_map_s: f64,
    /// The whole traced replay.
    pub wall_s: f64,
}

impl CallTimes {
    /// Field-wise sum.
    pub fn add(&mut self, o: &CallTimes) {
        self.tick_s += o.tick_s;
        self.tick_calls += o.tick_calls;
        self.skip_lull_s += o.skip_lull_s;
        self.ticks_skipped += o.ticks_skipped;
        self.feed_s += o.feed_s;
        self.events += o.events;
        self.into_map_s += o.into_map_s;
        self.wall_s += o.wall_s;
    }
}

/// What a traced replay produced, in the shape the gate compares.
#[derive(Clone, Debug)]
pub struct TracedRun {
    /// Ticks as the library counts them for the same call.
    pub ticks: u64,
    /// The decoded map (map replays only).
    pub map: Option<NetworkMap>,
    /// Transcript counters (map replays only; zero for an RCA).
    pub stats: RunStats,
    /// Lemma 4.2: every processor back to factory state, nothing in flight.
    pub clean_at_end: bool,
    /// Every processor visited by the DFS (map replays only).
    pub all_visited: bool,
    /// Step counters summed over every processor.
    pub steps: StepCounts,
    pub calls: CallTimes,
    /// Processors in the network.
    pub nodes: usize,
    /// Pool workers the engine used.
    pub pool_workers: usize,
}

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

fn build_traced(
    topo: &Topology,
    mode: EngineMode,
    root: NodeId,
    start_of: impl Fn(&NodeMeta) -> StartBehavior,
) -> Engine<Traced<ProtocolNode>> {
    Engine::with_root_sharded(topo, mode, root, None, &mut |meta| {
        Traced::new(ProtocolNode::new(&meta, start_of(&meta)), &meta)
    })
}

fn timed_tick(
    engine: &mut Engine<Traced<ProtocolNode>>,
    scratch: &mut Vec<(NodeId, TranscriptEvent)>,
    calls: &mut CallTimes,
) {
    scratch.clear();
    let t0 = Instant::now();
    engine.tick(scratch);
    calls.tick_s += secs(t0);
    calls.tick_calls += 1;
}

fn finish(engine: &Engine<Traced<ProtocolNode>>, mut run: TracedRun) -> TracedRun {
    run.clean_at_end = engine.signals_in_flight() == 0
        && engine
            .nodes()
            .iter()
            .all(|n| n.inner.snake_state_pristine());
    for n in engine.nodes() {
        run.steps.add(&n.counts);
    }
    run.nodes = engine.num_nodes();
    run.pool_workers = engine.pool_workers();
    run
}

/// Replay `GtdSession::on(topo).root(root).mode(mode).run()` (default
/// budget, no faults) through the traced engine.
pub fn trace_map(topo: &Topology, root: NodeId, mode: EngineMode) -> Result<TracedRun, GtdError> {
    let t_wall = Instant::now();
    DRIVING.with(|d| d.set(true));
    let mut calls = CallTimes::default();
    let mut engine = build_traced(topo, mode, root, |m| {
        if m.is_root {
            StartBehavior::GtdRoot
        } else {
            StartBehavior::Passive
        }
    });
    let budget = default_tick_budget(topo);
    let mut master = MasterComputer::new();
    let mut stats = RunStats::default();
    let mut scratch = Vec::new();
    let mut end_tick = None;
    while end_tick.is_none() {
        let t0 = Instant::now();
        calls.ticks_skipped += engine.skip_lull(budget);
        calls.skip_lull_s += secs(t0);
        if engine.tick_count() >= budget {
            return Err(GtdError::BudgetExhausted {
                budget,
                ticks: engine.tick_count(),
            });
        }
        timed_tick(&mut engine, &mut scratch, &mut calls);
        for (_, ev) in scratch.drain(..) {
            match ev {
                TranscriptEvent::LoopForward { .. } => stats.forwards += 1,
                TranscriptEvent::LoopBack => stats.backs += 1,
                TranscriptEvent::LocalForward { .. } => stats.local_forwards += 1,
                TranscriptEvent::LocalBack => stats.local_backs += 1,
                TranscriptEvent::Terminated => end_tick = Some(engine.tick_count()),
                _ => {}
            }
            let t0 = Instant::now();
            let fed = master.feed(ev);
            calls.feed_s += secs(t0);
            calls.events += 1;
            fed?;
        }
    }
    // Settle as the session does: tick until quiet (1-2 ticks when clean).
    for _ in 0..1000 {
        timed_tick(&mut engine, &mut scratch, &mut calls);
        if engine.is_quiet() {
            break;
        }
    }
    stats.dropped = engine.nodes().iter().map(|n| n.inner.stat_dropped()).sum();
    let all_visited = engine.nodes().iter().all(|n| n.inner.dfs_visited());
    let t0 = Instant::now();
    let map: Result<NetworkMap, DecodeError> = master.into_map();
    calls.into_map_s = secs(t0);
    let mut run = TracedRun {
        ticks: end_tick.unwrap_or_default(),
        map: Some(map?),
        stats,
        clean_at_end: false,
        all_visited,
        steps: StepCounts::default(),
        calls,
        nodes: 0,
        pool_workers: 0,
    };
    run = finish(&engine, run);
    run.calls.wall_s = secs(t_wall);
    Ok(run)
}

/// Replay `run_single_rca(topo, a, mode)` through the traced engine.
pub fn trace_rca(topo: &Topology, a: NodeId, mode: EngineMode) -> Result<TracedRun, GtdError> {
    let t_wall = Instant::now();
    DRIVING.with(|d| d.set(true));
    let mut calls = CallTimes::default();
    let mut engine = build_traced(topo, mode, NodeId(0), |m| {
        if m.id == a {
            StartBehavior::SingleRca
        } else {
            StartBehavior::Passive
        }
    });
    let budget = default_tick_budget(topo);
    let mut scratch = Vec::new();
    let mut fired = false;
    for _ in 0..budget {
        timed_tick(&mut engine, &mut scratch, &mut calls);
        fired = scratch
            .iter()
            .any(|&(n, ev)| n == a && ev == TranscriptEvent::RcaComplete);
        if fired || engine.is_quiet() {
            break;
        }
    }
    if !fired {
        return Err(GtdError::BudgetExhausted {
            budget,
            ticks: engine.tick_count(),
        });
    }
    let ticks = engine.tick_count();
    timed_tick(&mut engine, &mut scratch, &mut calls);
    let quiet = engine.is_quiet();
    let mut run = TracedRun {
        ticks,
        map: None,
        stats: RunStats::default(),
        clean_at_end: false,
        all_visited: false,
        steps: StepCounts::default(),
        calls,
        nodes: 0,
        pool_workers: 0,
    };
    run.stats.dropped = engine.nodes().iter().map(|n| n.inner.stat_dropped()).sum();
    run = finish(&engine, run);
    run.clean_at_end &= quiet;
    run.calls.wall_s = secs(t_wall);
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtd::protocol::run_single_rca;
    use gtd::{generators, GtdSession};

    /// The wrapper is transparent: a traced replay reproduces the
    /// library's ticks, map and counters exactly in every engine mode.
    #[test]
    fn traced_map_replay_matches_the_session_in_every_mode() {
        for topo in [generators::ring(7), generators::random_sc(20, 3, 5)] {
            for mode in EngineMode::ALL {
                for root in [NodeId(0), NodeId(3)] {
                    let lib = GtdSession::on(&topo).root(root).mode(mode).run().unwrap();
                    let tr = trace_map(&topo, root, mode).unwrap();
                    assert_eq!(tr.ticks, lib.ticks, "{mode} root {root:?}");
                    assert_eq!(tr.map.as_ref(), Some(&lib.map));
                    assert_eq!(tr.stats, lib.stats);
                    assert_eq!(tr.clean_at_end, lib.clean_at_end);
                    assert_eq!(tr.all_visited, lib.all_visited);
                    assert_eq!(tr.calls.events as usize, lib.events.len());
                    assert!(tr.steps.steps > 0 && tr.steps.busy_ns > 0);
                    assert!(tr.steps.useful_steps <= tr.steps.steps);
                    assert!(tr.steps.driving_ns <= tr.steps.busy_ns);
                }
            }
        }
    }

    #[test]
    fn traced_rca_replay_matches_run_single_rca_in_every_mode() {
        let topo = generators::random_sc(30, 3, 2);
        for mode in EngineMode::ALL {
            let lib = run_single_rca(&topo, NodeId(1), mode).unwrap();
            let tr = trace_rca(&topo, NodeId(1), mode).unwrap();
            assert_eq!(tr.ticks, lib.ticks, "{mode}");
            assert_eq!(tr.clean_at_end, lib.clean_at_end, "{mode}");
            assert!(tr.clean_at_end);
        }
    }

    #[test]
    fn dense_steps_every_node_every_tick_and_sparse_fewer() {
        let topo = generators::ring(6);
        let dense = trace_map(&topo, NodeId(0), EngineMode::Dense).unwrap();
        let sparse = trace_map(&topo, NodeId(0), EngineMode::Sparse).unwrap();
        assert_eq!(dense.steps.steps, dense.calls.tick_calls * 6);
        assert!(sparse.steps.steps < dense.steps.steps);
        // idle steps change nothing, so the useful work is identical
        assert_eq!(sparse.steps.chars_out, dense.steps.chars_out);
        assert_eq!(sparse.steps.emit_steps, dense.steps.emit_steps);
    }
}
