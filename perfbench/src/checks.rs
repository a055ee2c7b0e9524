//! The paper's claims as per-operation checks. Every function returns
//! the breaches it found; an empty list means the operation passed.

use gtd::bench::{CellError, RunRecord};
use gtd::netsim::{NodeId, Topology};
use gtd::protocol::{RcaProbe, RunOutcome, RunStats};

/// Lemma 4.4 band on ticks / (E·D). The repo's families measure 22–46
/// (rings 33, random-sc 29–34, de Bruijn 42–46) and up to ~110 on the
/// smallest low-diameter networks (Kautz K(2,3)), where the fixed cost
/// of each RCA outweighs D. The band leaves room on both sides; leaving
/// it means the O(E·D) cost no longer holds.
pub const LEMMA_44_BAND: (f64, f64) = (8.0, 160.0);

/// Ticks per (E·D) of a map.
pub fn ticks_per_ed(ticks: u64, edges: usize, diameter: u32) -> f64 {
    ticks as f64 / (edges as f64 * f64::from(diameter.max(1)))
}

/// The counters of one map that the paper bounds.
#[derive(Clone, Copy, Debug)]
pub struct MapFacts {
    pub edges: usize,
    pub diameter: u32,
    pub ticks: u64,
    pub bcas: usize,
    pub rcas: usize,
    /// `None` where the source does not carry it (campaign records).
    pub edges_reported: Option<usize>,
    pub dropped: u64,
    pub clean_at_end: bool,
}

impl MapFacts {
    /// The facts of a run whose transcript gave `stats`.
    pub fn from_stats(
        edges: usize,
        diameter: u32,
        ticks: u64,
        stats: &RunStats,
        clean_at_end: bool,
    ) -> Self {
        MapFacts {
            edges,
            diameter,
            ticks,
            bcas: stats.bcas(),
            rcas: stats.rcas(),
            edges_reported: Some(stats.edges_reported()),
            dropped: stats.dropped,
            clean_at_end,
        }
    }
}

/// Theorem 4.1 and Lemmas 4.2 and 4.4 on one map. `verified` is the
/// outcome of checking the decoded map against the real network.
pub fn map_breaches(f: &MapFacts, verified: Result<(), String>) -> Vec<String> {
    let mut out = Vec::new();
    if let Err(e) = verified {
        out.push(format!("map not exact: {e}"));
    }
    let e = f.edges;
    let ratio = ticks_per_ed(f.ticks, e, f.diameter);
    let (lo, hi) = LEMMA_44_BAND;
    if !(lo..=hi).contains(&ratio) {
        out.push(format!("ticks/(E*D) = {ratio:.1} outside [{lo}, {hi}]"));
    }
    if f.bcas != e {
        out.push(format!("bcas {} != E {e}", f.bcas));
    }
    if f.rcas > 2 * e {
        out.push(format!("rcas {} > 2E {}", f.rcas, 2 * e));
    }
    if let Some(r) = f.edges_reported.filter(|&r| r != e) {
        out.push(format!("edges reported {r} != E {e}"));
    }
    if f.dropped != 0 {
        out.push(format!("{} characters dropped", f.dropped));
    }
    if !f.clean_at_end {
        out.push("network not pristine at the end (Lemma 4.2)".into());
    }
    out
}

/// [`map_breaches`] for a `GtdSession::run` outcome, plus the DFS
/// visiting every processor.
pub fn session_breaches(
    topo: &Topology,
    diameter: u32,
    root: NodeId,
    run: &RunOutcome,
) -> Vec<String> {
    let facts = MapFacts::from_stats(
        topo.num_edges(),
        diameter,
        run.ticks,
        &run.stats,
        run.clean_at_end,
    );
    let verified = run
        .map
        .verify_against(topo, root)
        .map_err(|e| e.to_string());
    let mut out = map_breaches(&facts, verified);
    if !run.all_visited {
        out.push("DFS did not visit every processor".into());
    }
    out
}

/// Lemmas 4.2 and 4.3 on one standalone RCA: the network is left clean
/// and the RCA costs O(d(A, root) + d(root, A)) ticks, within the bounds
/// the repo's own RCA test uses (3 ticks per hop at least, 20 at most
/// plus 40).
pub fn rca_breaches(probe: &RcaProbe) -> Vec<String> {
    let mut out = Vec::new();
    if !probe.clean_at_end {
        out.push("network not pristine after the RCA (Lemma 4.2)".into());
    }
    let loop_len = u64::from(probe.dist_to_root + probe.dist_from_root);
    if probe.ticks < 3 * loop_len || probe.ticks > 20 * loop_len + 40 {
        out.push(format!(
            "RCA took {} ticks for a {loop_len}-hop loop (Lemma 4.3)",
            probe.ticks
        ));
    }
    out
}

/// One campaign cell: the served row must equal the in-process row byte
/// for byte, a failure must be a deterministic kind, a mapped network
/// must verify, and a reliable static GTD cell must meet the paper's
/// bounds. `diameter` is given for reliable static specs only.
pub fn cell_breaches(
    served: &RunRecord,
    reference_row: &str,
    diameter: Option<u32>,
) -> Vec<String> {
    let mut out = Vec::new();
    let row = served.to_json().render();
    if row != reference_row {
        out.push(format!("served row differs from the in-process row: {row}"));
    }
    match &served.result {
        Err(e) if !CellError::kind_is_deterministic(e.kind) => {
            out.push(format!("non-deterministic failure {e}"));
        }
        Err(_) => {}
        Ok(o) => {
            if !o.verified {
                out.push("map not verified".into());
            }
            if let (Some(diameter), "gtd") = (diameter, served.mapper.as_str()) {
                let facts = MapFacts {
                    edges: served.edges,
                    diameter,
                    ticks: o.rounds,
                    bcas: o.bcas.unwrap_or_default(),
                    rcas: o.rcas.unwrap_or_default(),
                    edges_reported: None,
                    dropped: o.dropped.unwrap_or_default(),
                    clean_at_end: o.clean == Some(true),
                };
                out.extend(map_breaches(&facts, Ok(())));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtd::netsim::{generators, EngineMode};
    use gtd::protocol::run_single_rca;
    use gtd::GtdSession;

    fn facts(ticks: u64) -> MapFacts {
        MapFacts {
            edges: 10,
            diameter: 4,
            ticks,
            bcas: 10,
            rcas: 20,
            edges_reported: Some(10),
            dropped: 0,
            clean_at_end: true,
        }
    }

    #[test]
    fn a_correct_map_passes() {
        let topo = generators::random_sc(16, 3, 3);
        let d = gtd::algo::diameter(&topo);
        let run = GtdSession::on(&topo).run().unwrap();
        assert_eq!(
            session_breaches(&topo, d, NodeId(0), &run),
            Vec::<String>::new()
        );
    }

    #[test]
    fn every_paper_bound_is_checked() {
        assert!(map_breaches(&facts(1400), Ok(())).is_empty());
        let bad = MapFacts {
            bcas: 9,
            rcas: 21,
            edges_reported: Some(12),
            dropped: 2,
            clean_at_end: false,
            ..facts(10)
        };
        assert_eq!(map_breaches(&bad, Err("missing edge".into())).len(), 7);
        assert_eq!(map_breaches(&facts(1_000_000), Ok(())).len(), 1);
        let unknown_reports = MapFacts {
            edges_reported: None,
            ..facts(1400)
        };
        assert!(map_breaches(&unknown_reports, Ok(())).is_empty());
    }

    #[test]
    fn an_rca_outside_its_bounds_or_unclean_fails() {
        let topo = generators::ring(8);
        let probe = run_single_rca(&topo, NodeId(3), EngineMode::Sparse).unwrap();
        assert!(rca_breaches(&probe).is_empty());
        let fast = RcaProbe { ticks: 1, ..probe };
        assert_eq!(rca_breaches(&fast).len(), 1);
        let dirty = RcaProbe {
            clean_at_end: false,
            ..probe
        };
        assert_eq!(rca_breaches(&dirty).len(), 1);
    }

    #[test]
    fn cells_fail_on_row_mismatch_and_operational_errors_only() {
        let report = gtd::Campaign::new()
            .parse_specs(["ring:6"])
            .unwrap()
            .mappers(["gtd", "flood-echo"])
            .run()
            .unwrap();
        for rec in &report.records {
            let row = rec.to_json().render();
            assert!(cell_breaches(rec, &row, Some(5)).is_empty(), "{row}");
            assert_eq!(cell_breaches(rec, "{}", Some(5)).len(), 1);
        }
        let mut degraded = report.records[0].clone();
        degraded.result = Err(CellError {
            kind: "fault-degraded",
            message: "exhausted".into(),
        });
        let row = degraded.to_json().render();
        assert!(cell_breaches(&degraded, &row, None).is_empty());
        let mut lost = degraded.clone();
        lost.result = Err(CellError {
            kind: "worker-lost",
            message: "gone".into(),
        });
        let row = lost.to_json().render();
        assert_eq!(cell_breaches(&lost, &row, None).len(), 1);
    }
}
