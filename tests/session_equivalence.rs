//! Engine-mode and driver equivalence through the [`GtdSession`] builder:
//! the three execution strategies must produce identical tick-stamped
//! transcripts, identical maps and identical tick counts on every workload
//! family — including from non-default roots — every driver must replay
//! the plain run when nothing disturbs it, and a tick budget must turn a
//! too-long run into a structured error instead of a hang.

use gtd::{
    default_tick_budget, generators, EngineMode, EpochStatus, FaultPlane, GtdError, GtdSession,
    MutationSchedule, NodeId, PreconditionViolation, RunOutcome, Topology, TopologyBuilder,
    TranscriptEvent,
};

const MODES: [EngineMode; 3] = [EngineMode::Dense, EngineMode::Sparse, EngineMode::Parallel];

/// The five families of the equivalence matrix, each with a non-zero root.
fn families() -> Vec<(&'static str, Topology, NodeId)> {
    vec![
        ("ring", generators::ring(9), NodeId(4)),
        ("torus", generators::torus(3, 3), NodeId(5)),
        ("debruijn", generators::debruijn(2, 3), NodeId(3)),
        (
            "tree_loop_random",
            generators::tree_loop_random(2, 7),
            NodeId(6),
        ),
        ("random_sc", generators::random_sc(20, 3, 3), NodeId(17)),
    ]
}

/// Run `drive` on a session with an observer attached; returns the
/// outcome and the observed `(tick, event)` stream.
fn observed<T>(
    topo: &Topology,
    root: NodeId,
    mode: EngineMode,
    drive: impl FnOnce(GtdSession<'_>) -> T,
) -> (T, Vec<(u64, TranscriptEvent)>) {
    let mut stream = Vec::new();
    let session = GtdSession::on(topo).root(root).mode(mode);
    let out = drive(session.observer(|t, e| stream.push((t, e))));
    (out, stream)
}

#[test]
fn modes_agree_on_every_family_with_non_zero_roots() {
    for (name, topo, root) in families() {
        let mut dense: Option<RunOutcome> = None;
        for mode in MODES {
            let ctx = format!("{name} ({mode:?}, root {root})");
            let (run, stream) = observed(&topo, root, mode, |s| s.run());
            let run = run.unwrap_or_else(|e| panic!("{ctx}: {e}"));
            run.map
                .verify_against(&topo, root)
                .unwrap_or_else(|e| panic!("{ctx}: inexact map: {e}"));
            assert!(run.clean_at_end, "{ctx}: Lemma 4.2 violated");
            assert_eq!(stream, run.events, "{ctx}: observer vs transcript");

            // Without faults or mutations every driver replays the plain
            // run: they are configurations of one timeline.
            let plain = (run.ticks, Some(run.map.clone()), run.events.clone(), stream);
            let (rounds, s) = observed(&topo, root, mode, |s| s.run_repeated(1));
            let rep = rounds.unwrap().remove(0);
            let rep = (rep.ticks, Some(rep.map), rep.events, s);
            assert_eq!(rep, plain, "{ctx}: run_repeated(1)");

            let (res, s) = observed(&topo, root, mode, |s| s.run_resilient());
            let res = res.unwrap();
            assert_eq!(
                (res.status, res.attempts.len(), res.stats),
                (EpochStatus::Verified, 1, run.stats),
                "{ctx}: run_resilient status, attempts and stats"
            );
            assert_eq!(
                (res.ticks, res.map, res.events, s),
                plain,
                "{ctx}: run_resilient"
            );

            let (dynamic, s) = observed(&topo, root, mode, |s| {
                s.run_dynamic(&MutationSchedule::new())
            });
            let mut dynamic = dynamic.unwrap();
            assert!(dynamic.mutations.is_empty() && dynamic.final_topology == topo);
            let epoch = dynamic.epochs.pop().unwrap();
            assert!(dynamic.epochs.is_empty(), "{ctx}: run_dynamic remapped");
            assert_eq!(epoch.status, EpochStatus::Verified, "{ctx}: run_dynamic");
            let epoch = (epoch.ticks(), epoch.map, epoch.events, s);
            assert_eq!(epoch, plain, "{ctx}: run_dynamic");

            let Some(dense) = &dense else {
                dense = Some(run);
                continue;
            };
            assert_eq!(run.map, dense.map, "{ctx}: maps differ");
            assert_eq!(run.ticks, dense.ticks, "{ctx}: tick counts differ");
            assert_eq!(
                run.events, dense.events,
                "{ctx}: tick-stamped transcripts differ"
            );
            assert_eq!(run.stats, dense.stats, "{ctx}: stats differ");
        }
    }
}

#[test]
fn modes_agree_on_repeated_rounds() {
    let topo = generators::random_sc(16, 3, 8);
    let root = NodeId(7);
    let per_mode: Vec<_> = MODES
        .iter()
        .map(|&mode| {
            GtdSession::on(&topo)
                .root(root)
                .mode(mode)
                .run_repeated(2)
                .unwrap()
        })
        .collect();
    for rounds in &per_mode[1..] {
        assert_eq!(rounds[0].events, per_mode[0][0].events);
        assert_eq!(rounds[1].events, per_mode[0][1].events);
        assert_eq!(rounds[1].ticks, per_mode[0][1].ticks);
    }
}

#[test]
fn tick_budget_exhaustion_errors_instead_of_hanging() {
    let topo = generators::random_sc(20, 3, 1);
    for mode in MODES {
        match GtdSession::on(&topo).mode(mode).tick_budget(40).run() {
            Err(GtdError::BudgetExhausted { budget: 40, ticks }) => {
                assert!(ticks >= 40, "budget error must report the spent ticks")
            }
            other => panic!("({mode:?}) expected BudgetExhausted, got {other:?}"),
        }
    }
}

#[test]
fn total_loss_idles_a_static_run_out_to_its_budget() {
    // A plane that destroys every character kills the DFS token at once;
    // the quiet network can never terminate, so a static run spends its
    // whole budget in every mode.
    let topo = generators::ring(12);
    let plane = FaultPlane {
        loss: 1.0,
        delay_min: 0,
        delay_max: 0,
        seed: 1,
    };
    assert_eq!(default_tick_budget(&topo), 17_800);
    for mode in MODES {
        for (budget, session) in [
            (17_800, GtdSession::on(&topo)),
            (5_000, GtdSession::on(&topo).tick_budget(5_000)),
        ] {
            assert_eq!(
                session.mode(mode).faults(plane).run().unwrap_err(),
                GtdError::BudgetExhausted {
                    budget,
                    ticks: budget
                },
                "({mode:?}, budget {budget})"
            );
        }
    }
}

#[test]
fn budget_exhaustion_applies_per_round() {
    // A budget sized off one measured round: the repeated run either fits
    // every round under it or fails fast with the budget error — never a
    // hang.
    let topo = generators::ring(8);
    let single = GtdSession::on(&topo).run().unwrap();
    let budget = single.ticks + 1;
    match GtdSession::on(&topo).tick_budget(budget).run_repeated(200) {
        // each round is budgeted separately, so either every round fits…
        Ok(runs) => assert_eq!(runs.len(), 200),
        // …or the first too-slow round reports the exhaustion
        Err(GtdError::BudgetExhausted { budget: b, .. }) => assert_eq!(b, budget),
        Err(other) => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn generous_budget_changes_nothing() {
    let topo = generators::ring(6);
    let capped = GtdSession::on(&topo).tick_budget(u64::MAX).run().unwrap();
    let free = GtdSession::on(&topo).run().unwrap();
    assert_eq!(capped.events, free.events);
    assert_eq!(capped.ticks, free.ticks);
}

#[test]
fn disconnected_networks_fail_fast_not_slow() {
    // Without the up-front check this network would burn the entire
    // default budget before erroring; the precondition variant is
    // distinguishable from budget exhaustion.
    let mut b = TopologyBuilder::new(6, 3);
    for (u, v) in [(0u32, 1u32), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4)] {
        b.connect_auto(NodeId(u), NodeId(v)).unwrap();
    }
    b.connect_auto(NodeId(1), NodeId(2)).unwrap(); // one-way bridges
    b.connect_auto(NodeId(3), NodeId(4)).unwrap();
    let topo = b.build().unwrap();
    for mode in MODES {
        assert_eq!(
            GtdSession::on(&topo).mode(mode).run().unwrap_err(),
            GtdError::Precondition(PreconditionViolation::NotStronglyConnected),
            "({mode:?})"
        );
    }
}

#[test]
fn out_of_range_root_is_a_precondition_error() {
    let topo = generators::ring(4);
    assert_eq!(
        GtdSession::on(&topo).root(NodeId(4)).run().unwrap_err(),
        GtdError::Precondition(PreconditionViolation::RootOutOfRange {
            root: NodeId(4),
            nodes: 4
        })
    );
}
