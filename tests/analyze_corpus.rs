//! Adversarial corpus for `sweep-analyze`, mirroring the style of
//! `validator_oracle.rs`: each deliberately corrupted artifact must
//! surface exactly the expected SW0xx diagnostic code. This pins the
//! code registry — a refactor that silently changes which code fires
//! (or stops firing) fails here.

// Integration tests assert via unwrap/expect by design.
#![allow(clippy::unwrap_used)]

use sweep_scheduling::analyze::{
    analyze_all, analyze_assignment, analyze_async, analyze_instance, analyze_raw_schedule,
    analyze_schedule, analyze_schedule_with, AnalyzeOptions, Code, RawSchedule, Severity,
};
use sweep_scheduling::prelude::*;

fn layered(seed: u64) -> SweepInstance {
    SweepInstance::random_layered(36, 3, 6, 2, seed)
}

fn good_schedule(inst: &SweepInstance, m: usize, seed: u64) -> Schedule {
    let a = Assignment::random_cells(inst.num_cells(), m, seed);
    greedy_schedule(inst, a)
}

// ---------------------------------------------------------------- SW001

/// A hanging-node-like defect: one warped face flips its upwind
/// orientation for direction 0, re-entering three cells into a cycle,
/// while direction 1 stays a clean chain.
fn hanging_node_instance() -> SweepInstance {
    let d0 = TaskDag::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 1), (3, 4)]);
    let d1 = TaskDag::from_edges(5, &[(4, 3), (3, 2), (2, 1), (1, 0)]);
    SweepInstance::new_unchecked(5, vec![d0, d1], "hanging-node")
}

#[test]
fn sw001_cycle_with_verified_witness() {
    let inst = hanging_node_instance();
    let r = analyze_instance(&inst);
    assert!(r.has_errors());
    assert_eq!(r.count_code(Code::CyclicDependency), 1);
    let d = r
        .diagnostics()
        .iter()
        .find(|d| d.code == Code::CyclicDependency)
        .expect("SW001 present");
    assert_eq!(d.anchor.dir, Some(0), "cycle lives in direction 0");
    // The witness is a closed walk whose edges all exist in the graph.
    assert!(d.trail.len() >= 3);
    assert_eq!(d.trail.first(), d.trail.last());
    for w in d.trail.windows(2) {
        assert!(
            inst.dag(0).successors(w[0]).any(|v| v == w[1]),
            "witness edge ({}, {}) missing",
            w[0],
            w[1]
        );
    }
}

#[test]
fn sw001_via_unchecked_text_parser() {
    let text = "sweep-instance v1\nname cyc\ncells 4\ndirections 1\n\
                dag 0 edges 4\n0 1\n1 2\n2 3\n3 0\nend\n";
    let inst = sweep_scheduling::dag::from_text_unchecked(text).expect("parses");
    let r = analyze_instance(&inst);
    assert!(r.has_code(Code::CyclicDependency));
    assert_eq!(
        r.diagnostics()[0].trail,
        vec![0, 1, 2, 3, 0],
        "4-cycle witness"
    );
}

// ------------------------------------------------- SW002/SW003 collect-all

#[test]
fn sw002_every_inverted_edge_reported() {
    let inst = layered(1);
    let s = good_schedule(&inst, 4, 1);
    let n = inst.num_cells();
    let mut starts = s.starts().to_vec();
    // Invert three distinct precedence edges in direction 0.
    let edges: Vec<(u32, u32)> = inst.dag(0).edges().take(3).collect();
    assert_eq!(edges.len(), 3);
    for &(u, v) in &edges {
        starts[TaskId::pack(v, 0, n).index()] =
            starts[TaskId::pack(u, 0, n).index()].saturating_sub(1);
    }
    let bad = Schedule::new(starts, s.assignment().clone()).expect("same shape");
    // The first-error validator sees exactly one...
    assert!(validate(&inst, &bad).is_err());
    // ...the analyzer sees one SW002 per inverted edge (at least; the
    // rewrites can invert incident edges too).
    let r = analyze_schedule(&inst, &bad);
    assert!(
        r.count_code(Code::PrecedenceViolation) >= 3,
        "{}",
        r.render_text()
    );
}

#[test]
fn sw003_processor_conflicts_counted_per_slot() {
    let inst = layered(2);
    let s = good_schedule(&inst, 3, 2);
    let n = inst.num_cells();
    let a = s.assignment();
    // Pick two cells on one processor and give their direction-0 tasks
    // identical start times far past the horizon (no precedence fallout).
    let p0 = a.proc_of(0);
    let mate = (1..n as u32).find(|&c| a.proc_of(c) == p0).expect("m < n");
    let mut starts = s.starts().to_vec();
    let far = s.makespan() + 50;
    starts[TaskId::pack(0, 0, n).index()] = far;
    starts[TaskId::pack(mate, 0, n).index()] = far;
    let bad = Schedule::new(starts, a.clone()).expect("same shape");
    let r = analyze_schedule(&inst, &bad);
    let conflicts: Vec<_> = r
        .diagnostics()
        .iter()
        .filter(|d| d.code == Code::ProcessorConflict)
        .collect();
    assert_eq!(conflicts.len(), 1, "{}", r.render_text());
    assert_eq!(conflicts[0].anchor.proc, Some(p0));
    assert_eq!(conflicts[0].anchor.timestep, Some(far));
}

// ---------------------------------------------------------------- SW004

#[test]
fn sw004_split_cell_copies_on_raw_tables() {
    let inst = layered(3);
    let s = good_schedule(&inst, 4, 3);
    let mut raw = RawSchedule::from_schedule(&s);
    let n = inst.num_cells();
    // Move cell 7's direction-2 copy to a different processor — a state
    // `Schedule` cannot even represent, which is why the analyzer works
    // on raw per-task tables.
    let idx = TaskId::pack(7, 2, n).index();
    raw.proc[idx] = (raw.proc[idx] + 1) % raw.m as u32;
    let r = analyze_raw_schedule(&inst, &raw);
    assert_eq!(
        r.count_code(Code::SplitCellCopies),
        1,
        "{}",
        r.render_text()
    );
    let d = r
        .diagnostics()
        .iter()
        .find(|d| d.code == Code::SplitCellCopies)
        .expect("SW004");
    assert_eq!(d.anchor.cell, Some(7));
}

// ---------------------------------------------------------------- SW005

#[test]
fn sw005_short_and_long_tables() {
    let inst = layered(4);
    for len in [0usize, 10, inst.num_tasks() + 5] {
        let raw = RawSchedule {
            start: vec![0; len],
            proc: vec![0; len],
            m: 2,
        };
        let r = analyze_raw_schedule(&inst, &raw);
        assert_eq!(r.count_code(Code::TaskCountMismatch), 1, "len={len}");
        assert!(r.has_errors());
    }
}

// ---------------------------------------------------------------- SW006

#[test]
fn sw006_assignment_covers_wrong_instance() {
    let inst = layered(5);
    let other = Assignment::random_cells(inst.num_cells() + 4, 3, 1);
    let r = analyze_assignment(&inst, &other);
    assert!(r.has_code(Code::AssignmentMismatch));
    assert!(r.has_errors());
    // Same through the schedule path.
    let small = SweepInstance::random_layered(20, 3, 4, 2, 6);
    let s = good_schedule(&small, 3, 2);
    let r2 = analyze_schedule(&inst, &s);
    assert!(r2.has_code(Code::AssignmentMismatch));
}

// --------------------------------------------------------- SW010/SW011

#[test]
fn sw010_sw011_lopsided_assignment() {
    let inst = layered(6);
    let n = inst.num_cells();
    // Everything on processor 0 of 4.
    let a = Assignment::from_vec(vec![0; n], 4);
    let r = analyze_assignment(&inst, &a);
    assert_eq!(r.count_code(Code::EmptyProcessor), 3);
    assert_eq!(r.count_code(Code::LoadImbalance), 1);
    assert!(!r.has_errors(), "warnings only: {}", r.render_text());
}

// ---------------------------------------------------------------- SW012

#[test]
fn sw012_isolated_cell_never_swept() {
    // Cell 4 exchanges no flux in either direction.
    let d0 = TaskDag::from_edges(5, &[(0, 1), (1, 2), (2, 3)]);
    let d1 = TaskDag::from_edges(5, &[(3, 2), (2, 1), (1, 0)]);
    let inst = SweepInstance::new(5, vec![d0, d1], "island");
    let r = analyze_instance(&inst);
    assert_eq!(r.count_code(Code::UnreachableCell), 1);
    assert_eq!(
        r.diagnostics()
            .iter()
            .find(|d| d.code == Code::UnreachableCell)
            .expect("SW012")
            .anchor
            .cell,
        Some(4)
    );
}

// ---------------------------------------------------------------- SW013

#[test]
fn sw013_edgeless_direction() {
    let inst = SweepInstance::new(
        4,
        vec![
            TaskDag::from_edges(4, &[(0, 1), (1, 2)]),
            TaskDag::edgeless(4),
        ],
        "flat",
    );
    let r = analyze_instance(&inst);
    assert_eq!(r.count_code(Code::DegenerateDirection), 1);
    assert_eq!(r.diagnostics()[0].anchor.dir, Some(1));
}

// ---------------------------------------------------------------- SW014

#[test]
fn sw014_absurdly_padded_schedule() {
    // A feasible but wasteful schedule: every task 60 steps after its
    // chain predecessor. Feasibility holds; the envelope check flags it.
    let inst = SweepInstance::identical_chains(8, 2);
    let n = 8usize;
    let mut starts = vec![0u32; inst.num_tasks()];
    for dir in 0..2u32 {
        for v in 0..n as u32 {
            starts[TaskId::pack(v, dir, n).index()] = v * 60 + dir * 31;
        }
    }
    let s = Schedule::new(starts, Assignment::single(n)).expect("right shape");
    assert!(validate(&inst, &s).is_ok(), "padded schedule is feasible");
    let r = analyze_schedule(&inst, &s);
    assert!(
        r.has_code(Code::DelayEnvelopeExceeded),
        "{}",
        r.render_text()
    );
    assert!(!r.has_errors());
    // A tight schedule on the same instance certifies instead.
    let tight = good_schedule(&inst, 2, 1);
    let r2 = analyze_schedule(&inst, &tight);
    assert!(r2.has_code(Code::Certified), "{}", r2.render_text());
}

// ---------------------------------------------------------------- SW015

#[test]
fn sw015_round_robin_cuts_every_edge() {
    // Round-robin on a chain instance puts consecutive cells on
    // different processors: 100% of edges cross.
    let inst = SweepInstance::identical_chains(30, 2);
    let a = Assignment::round_robin(30, 3);
    let r = analyze_assignment(&inst, &a);
    assert!(r.has_code(Code::HighCommBound), "{}", r.render_text());
    // Block assignment keeps most edges internal.
    let blocks: Vec<u32> = (0..30u32).map(|v| v / 10).collect();
    let b = Assignment::from_vec(blocks, 3);
    let r2 = analyze_assignment(&inst, &b);
    assert!(!r2.has_code(Code::HighCommBound), "{}", r2.render_text());
}

// ---------------------------------------------------------------- SW016

#[test]
fn sw016_message_race_from_concurrent_producers() {
    // Producers on procs 0 and 1 feed a consumer on proc 2 with equal
    // path lengths: their fluxes arrive simultaneously and causally
    // unordered.
    let dag = TaskDag::from_edges(3, &[(0, 2), (1, 2)]);
    let inst = SweepInstance::new(3, vec![dag], "race");
    let a = Assignment::from_vec(vec![0, 1, 2], 3);
    let r = analyze_async(&inst, &a, &[0, 0, 0], 1.0);
    assert_eq!(r.count_code(Code::MessageRace), 1, "{}", r.render_text());
    assert_eq!(r.count(Severity::Error), 0);
    // Serializing the producers on one processor removes the race.
    let serial = Assignment::from_vec(vec![0, 0, 1], 2);
    let r2 = analyze_async(&inst, &serial, &[0, 0, 0], 1.0);
    assert_eq!(r2.count_code(Code::MessageRace), 0, "{}", r2.render_text());
}

// ------------------------------------------------------- acceptance gate

#[test]
fn doubly_corrupted_schedule_yields_two_codes_where_validate_yields_one() {
    let inst = layered(7);
    let s = good_schedule(&inst, 4, 7);
    let n = inst.num_cells();
    let a = s.assignment();
    let mut starts = s.starts().to_vec();
    // Corruption A: invert a precedence edge in direction 0.
    let (u, v) = inst.dag(0).edges().next().expect("has edges");
    starts[TaskId::pack(v, 0, n).index()] = starts[TaskId::pack(u, 0, n).index()];
    // Corruption B: double-book a processor slot far past the horizon.
    let p0 = a.proc_of(0);
    let mate = (1..n as u32).find(|&c| a.proc_of(c) == p0).expect("m < n");
    let far = s.makespan() + 99;
    starts[TaskId::pack(0, 1, n).index()] = far;
    starts[TaskId::pack(mate, 1, n).index()] = far;

    let bad = Schedule::new(starts, a.clone()).expect("same shape");
    // The seed validator stops at its first finding — one violation.
    let one = validate(&inst, &bad).expect_err("infeasible");
    let _single: sweep_scheduling::core::ScheduleViolation = one;
    // The analyzer reports both corruption families.
    let r = analyze_schedule(&inst, &bad);
    assert!(r.has_code(Code::PrecedenceViolation), "{}", r.render_text());
    assert!(r.has_code(Code::ProcessorConflict), "{}", r.render_text());
    assert!(r.len() >= 2);
}

// ------------------------------------------------------------ clean runs

#[test]
fn clean_pipeline_certifies_with_no_errors_or_warnings_beyond_comm() {
    let inst = layered(8);
    let a = Assignment::random_cells(inst.num_cells(), 4, 9);
    let s = greedy_schedule(&inst, a.clone());
    let r = analyze_all(&inst, Some(&a), Some(&s), &AnalyzeOptions::default());
    assert!(!r.has_errors(), "{}", r.render_text());
    assert!(r.has_code(Code::Certified));
    assert!(r.has_code(Code::Stats));
    // Renderers agree on the error count.
    assert!(r.render_text().contains("0 error(s)"));
    assert!(r.render_json().contains("\"errors\": 0"));
}

#[test]
fn every_algorithm_output_certifies_on_mesh_instance() {
    let mesh = MeshPreset::Tetonly
        .build_scaled(0.01)
        .expect("preset builds");
    let quad = QuadratureSet::level_symmetric(2).expect("S2 exists");
    let (inst, _) = SweepInstance::from_mesh(&mesh, &quad, "tetonly-s2");
    for alg in [
        Algorithm::RandomDelayPriorities,
        Algorithm::Greedy,
        Algorithm::Dfds { delays: false },
    ] {
        let a = Assignment::random_cells(inst.num_cells(), 8, 3);
        let s = alg.run(&inst, a, 11);
        let r = analyze_schedule_with(&inst, &s, &AnalyzeOptions::default());
        assert!(!r.has_errors(), "{}: {}", alg.name(), r.render_text());
        assert!(r.has_code(Code::Certified), "{}", alg.name());
    }
}

// ------------------------------------------------------- byte-exact pins

/// Two chains over six cells on two processors, each direction's
/// schedule corrupted: four inverted edges, a slot on processor 1 at
/// time 2 holding two tasks and one on processor 0 at time 9 holding
/// three. In `(proc, time)` order the slots come `(0, 9)`, `(1, 2)`; in
/// `(time, proc)` order the other way round.
fn pinned_corruption() -> (SweepInstance, Schedule) {
    let d0 = TaskDag::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
    let d1 = TaskDag::from_edges(6, &[(5, 4), (4, 3), (3, 2), (2, 1), (1, 0)]);
    let inst = SweepInstance::new(6, vec![d0, d1], "pinned");
    let a = Assignment::from_vec(vec![0, 0, 0, 1, 1, 1], 2);
    let starts = vec![0, 1, 2, 2, 2, 5, 9, 9, 9, 8, 7, 6];
    (inst, Schedule::new(starts, a).expect("right shape"))
}

const PINNED_TEXT: &str = "\
analyzing schedule for 'pinned'
error[SW002]: direction 0: cell 2 (t=2) must finish before cell 3 (t=2)
  --> cell 3, direction 0, t=2
error[SW002]: direction 0: cell 3 (t=2) must finish before cell 4 (t=2)
  --> cell 4, direction 0, t=2
error[SW002]: direction 1: cell 1 (t=9) must finish before cell 0 (t=9)
  --> cell 0, direction 1, t=9
error[SW002]: direction 1: cell 2 (t=9) must finish before cell 1 (t=9)
  --> cell 1, direction 1, t=9
error[SW003]: processor 0 runs 3 tasks at time 9
  --> t=9, proc 0
error[SW003]: processor 1 runs 2 tasks at time 2
  --> t=2, proc 1
schedule for 'pinned': 6 error(s), 0 warning(s), 0 info
";

const PINNED_JSON: &str = r#"{
  "subject": "schedule for 'pinned'",
  "diagnostics": [
    {"code": "SW002", "severity": "error", "message": "direction 0: cell 2 (t=2) must finish before cell 3 (t=2)", "cell": 3, "dir": 0, "timestep": 2},
    {"code": "SW002", "severity": "error", "message": "direction 0: cell 3 (t=2) must finish before cell 4 (t=2)", "cell": 4, "dir": 0, "timestep": 2},
    {"code": "SW002", "severity": "error", "message": "direction 1: cell 1 (t=9) must finish before cell 0 (t=9)", "cell": 0, "dir": 1, "timestep": 9},
    {"code": "SW002", "severity": "error", "message": "direction 1: cell 2 (t=9) must finish before cell 1 (t=9)", "cell": 1, "dir": 1, "timestep": 9},
    {"code": "SW003", "severity": "error", "message": "processor 0 runs 3 tasks at time 9", "timestep": 9, "proc": 0},
    {"code": "SW003", "severity": "error", "message": "processor 1 runs 2 tasks at time 2", "timestep": 2, "proc": 1}
  ],
  "summary": {"errors": 6, "warnings": 0, "infos": 0}
}
"#;

const PINNED_SARIF: &str = r#"{
  "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
  "version": "2.1.0",
  "runs": [{
    "tool": {"driver": {
      "name": "sweep-analyze",
      "informationUri": "https://github.com/sweep-scheduling",
      "rules": [
          {"id": "SW002", "shortDescription": {"text": "schedule violates a precedence constraint"}, "defaultConfiguration": {"level": "error"}},
          {"id": "SW003", "shortDescription": {"text": "processor executes two tasks in one timestep"}, "defaultConfiguration": {"level": "error"}}
      ]
    }},
    "results": [
      {"ruleId": "SW002", "ruleIndex": 0, "level": "error", "message": {"text": "direction 0: cell 2 (t=2) must finish before cell 3 (t=2)"}, "locations": [{"logicalLocations": [{"fullyQualifiedName": "schedule for 'pinned'::cell 3, direction 0, t=2", "kind": "member"}]}]},
      {"ruleId": "SW002", "ruleIndex": 0, "level": "error", "message": {"text": "direction 0: cell 3 (t=2) must finish before cell 4 (t=2)"}, "locations": [{"logicalLocations": [{"fullyQualifiedName": "schedule for 'pinned'::cell 4, direction 0, t=2", "kind": "member"}]}]},
      {"ruleId": "SW002", "ruleIndex": 0, "level": "error", "message": {"text": "direction 1: cell 1 (t=9) must finish before cell 0 (t=9)"}, "locations": [{"logicalLocations": [{"fullyQualifiedName": "schedule for 'pinned'::cell 0, direction 1, t=9", "kind": "member"}]}]},
      {"ruleId": "SW002", "ruleIndex": 0, "level": "error", "message": {"text": "direction 1: cell 2 (t=9) must finish before cell 1 (t=9)"}, "locations": [{"logicalLocations": [{"fullyQualifiedName": "schedule for 'pinned'::cell 1, direction 1, t=9", "kind": "member"}]}]},
      {"ruleId": "SW003", "ruleIndex": 1, "level": "error", "message": {"text": "processor 0 runs 3 tasks at time 9"}, "locations": [{"logicalLocations": [{"fullyQualifiedName": "schedule for 'pinned'::t=9, proc 0", "kind": "member"}]}]},
      {"ruleId": "SW003", "ruleIndex": 1, "level": "error", "message": {"text": "processor 1 runs 2 tasks at time 2"}, "locations": [{"logicalLocations": [{"fullyQualifiedName": "schedule for 'pinned'::t=2, proc 1", "kind": "member"}]}]}
    ]
  }]
}
"#;

#[test]
fn corrupted_schedule_renders_byte_exact() {
    let (inst, bad) = pinned_corruption();
    let r = analyze_schedule(&inst, &bad);
    assert_eq!(r.render_text(), PINNED_TEXT);
    assert_eq!(r.render_json(), PINNED_JSON);
    assert_eq!(r.render_sarif(), PINNED_SARIF);
    // The same tables through the raw entry point differ only in subject.
    let raw = analyze_raw_schedule(&inst, &RawSchedule::from_schedule(&bad));
    assert_eq!(
        raw.render_text(),
        PINNED_TEXT.replace("schedule for", "raw schedule for")
    );
}

#[test]
fn shape_and_bound_messages_are_pinned() {
    let inst = SweepInstance::identical_chains(8, 2);
    let text = |s: &Schedule| analyze_schedule(&inst, s).render_text();
    let subject = "schedule for 'identical_chains(n=8,k=2)'";

    let small = SweepInstance::random_layered(20, 3, 4, 2, 6);
    assert_eq!(
        text(&good_schedule(&small, 3, 2)),
        format!(
            "analyzing {subject}\n\
             error[SW006]: instance has 8 cells but the schedule's assignment covers 20\n\
             {subject}: 1 error(s), 0 warning(s), 0 info\n"
        )
    );

    let one = SweepInstance::identical_chains(8, 1);
    assert_eq!(
        text(&good_schedule(&one, 2, 1)),
        format!(
            "analyzing {subject}\n\
             error[SW005]: expected 16 tasks (8 cells × 2 directions); \
             start table has 8, proc table has 8\n\
             {subject}: 1 error(s), 0 warning(s), 0 info\n"
        )
    );

    let padded = (0..16u32).map(|t| (t % 8) * 60 + (t / 8) * 31).collect();
    let padded = Schedule::new(padded, Assignment::single(8)).expect("right shape");
    assert_eq!(
        text(&padded),
        format!(
            "analyzing {subject}\n\
             warning[SW014]: makespan 452 exceeds the random-delay envelope 128 \
             (= 2.0 · log2(16) · LB 16)\n\
             {subject}: 0 error(s), 1 warning(s), 0 info\n"
        )
    );

    assert_eq!(
        text(&good_schedule(&inst, 2, 1)),
        format!(
            "analyzing {subject}\n\
             info[SW021]: feasible; makespan 13 within [LB 8, envelope 64], \
             ratio 1.625 vs paper bound 8\n\
             {subject}: 0 error(s), 0 warning(s), 1 info\n"
        )
    );
}
