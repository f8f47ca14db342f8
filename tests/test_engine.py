"""The batched message phase against the scalar reference.

Phase B derives each variable-to-factor input as the variable's belief minus
the factor's own last message (zero in the round the factor was added in)
and damps the new information vector outside the undamped window.  It works
on each factor's 2x9 Jacobian, while the scalar reference of
`scalar_reference` conditions the factor's 9x9 information form.  These
tests replay one round factor by factor through the scalar reference and
compare.
"""

import dataclasses
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference
from gbp_ba import (
    ProblemSpec,
    ScheduleParams,
    assemble,
    build,
    inject_outliers,
    iterate,
    lm_solve,
    OracleScaleError,
    map_solve,
    marginals,
    perturb,
    run,
    solve,
    synthesize,
)
from gbp_ba.batch_linalg import PIVOT_RTOL
from gbp_ba.camera import DEPTH_EPSILON, camera_center, project_many
from gbp_ba import engine, factor_graph
from gbp_ba.dense_oracle import stack_states
from gbp_ba.engine import PHASES
from gbp_ba.factor_graph import KEYFRAME, LANDMARK

KF, LM = slice(0, 6), slice(6, 9)


def perturbed_graph():
    return build(perturb(synthesize(4, 30, seed=21, pixel_sigma=0.5), 0.05, "backproject", seed=22))


def outlier_problem():
    return inject_outliers(
        perturb(synthesize(4, 30, seed=23, pixel_sigma=0.5), 0.05, "backproject", seed=24),
        0.15, "reassign", seed=25,
    )


def scalar_message(factor, keep, elim, incoming, prev, damping):
    """(`scalar_reference.message`, False), or (`prev`, True) where the
    conditioned eliminated block is not positive definite (the batched solve
    keeps the last message there)."""
    cond = factor[1][elim, elim] + incoming[1]
    eigs = np.linalg.eigvalsh(cond)
    if eigs[0] <= PIVOT_RTOL * abs(np.trace(cond)):
        return prev, True
    try:
        return scalar_reference.message(factor, keep, incoming, prev, damping), False
    except scalar_reference.SingularBlockError:
        return prev, True


def check_round(graph, schedule, factor_ids, input_from_rest=False):
    """Run one round on `graph` and check the messages of `factor_ids`
    against the scalar reference, whose input to a factor is the belief
    without the factor's own message, or with `input_from_rest` the
    variable's prior times its other factors' messages.  Returns the damping
    each factor used, the number of their messages the scalar reference
    found singular, and the round's report."""
    before = graph.copy()
    t = graph.iteration
    report = iterate(graph, schedule)
    dampings = []
    n_singular = 0
    for m in factor_ids:
        # phase A may relinearise, phases B and C leave the factor alone
        factor = tuple(a[0] for a in graph.factor_information([m]))
        in_window = t - graph.f_last_relin[m] < schedule.undamped_window
        damping = 0.0 if in_window else schedule.damping
        dampings.append(damping)
        for keep, elim, kind, other in ((KF, LM, KEYFRAME, LANDMARK), (LM, KF, LANDMARK, KEYFRAME)):
            if before.f_birth[m] == t:  # its first round
                incoming = np.zeros(other.dim), np.zeros((other.dim, other.dim))
            elif input_from_rest:
                incoming = scalar_reference.rest_of_star(before, other, m)
            else:
                belief = scalar_reference.belief(before, other, before.adjacent(other)[m])
                own_msg = scalar_reference.stored_message(before, other, m)
                incoming = belief[0] - own_msg[0], belief[1] - own_msg[1]
            prev = scalar_reference.stored_message(before, kind, m)
            want, singular = scalar_message(factor, keep, elim, incoming, prev, damping)
            n_singular += singular
            got = scalar_reference.stored_message(graph, kind, m)
            scale = max(np.abs(want[1]).max(), np.abs(want[0]).max(), 1.0)
            for a, b in zip(got, want):
                np.testing.assert_allclose(a, b, rtol=1e-7, atol=1e-9 * scale, err_msg=f"factor {m}")
    return dampings, n_singular, report


def add_observed_landmark(graph):
    """A new keyframe and a new landmark, seen by it and by keyframe 0, with
    exact measurements; returns the ids of the three new factors."""
    kf = graph.add_keyframe()
    lm = graph.add_landmark(graph.lm_state[0] + [0.05, 0.0, 0.0])
    kf_ids, lm_ids = np.array([kf, kf, 0]), np.array([0, lm, lm])
    uv, _ = project_many(graph.kf_state[kf_ids], graph.lm_state[lm_ids], graph.intrinsics)
    last = graph.add_measurements(kf_ids, lm_ids, uv, np.ones(3))
    return np.arange(last - 2, last + 1)


@pytest.mark.parametrize("warmup, damped", [(3, False), (9, True)])
def test_messages_match_scalar_path(warmup, damped):
    # every factor is linearised at build and next relinearised at round 10,
    # so round 3 is inside the undamped window and round 9 outside it
    graph = perturbed_graph()
    schedule = ScheduleParams()
    run(graph, schedule, n=warmup)
    dampings, _, _ = check_round(graph, schedule, np.arange(0, graph.n_measurement_factors, 5))
    assert set(dampings) == {schedule.damping if damped else 0.0}


@pytest.mark.parametrize("warmup", [3, 9])
def test_inputs_are_the_rest_of_the_star(warmup):
    # phase B forms a factor's input as the belief without the factor's own
    # message, which is the variable's prior times its other factors'
    graph = perturbed_graph()
    schedule = ScheduleParams()
    run(graph, schedule, n=warmup)
    check_round(graph, schedule, np.arange(0, graph.n_measurement_factors, 5), input_from_rest=True)


def test_factor_added_mid_solve_starts_from_zero_input():
    graph = perturbed_graph()
    schedule = ScheduleParams()
    run(graph, schedule, n=19)  # old factors are outside the undamped window
    new = add_observed_landmark(graph)
    old = np.arange(0, graph.n_measurement_factors - 3, 11)
    assert np.all(graph.f_birth[new] == graph.iteration)

    # first round: the new factors condition on zero inputs, which leave a
    # rank-2 factor singular on either side, so their messages stay zero
    dampings, _, _ = check_round(graph, schedule, np.concatenate([old, new]))
    assert set(dampings) == {0.0, schedule.damping}
    for kind in factor_graph.KINDS:
        s, v = graph.message(kind)
        assert not s[new].any() and not v[new].any()
    # an input derived from the belief would not have been singular
    factor = tuple(a[0] for a in graph.factor_information(new[:1]))
    belief = scalar_reference.belief(graph, LANDMARK, graph.f_lm[new[0]])
    assert scalar_reference.message(factor, KF, belief)[1].any()

    # later rounds: inputs are belief minus message, as for every factor
    check_round(graph, schedule, np.concatenate([old, new]))
    assert graph.message(KEYFRAME)[0][new[0]].any()


def test_every_factor_with_outliers_and_growth_matches_scalar_path():
    graph = build(outlier_problem())
    schedule = ScheduleParams()
    run(graph, schedule, n=12)  # past the first relinearisation at round 10
    assert np.any(graph.f_weight < 1.0)  # Huber-weighted rows
    counts = []
    for grow in (False, False, True, False):
        if grow:
            new = add_observed_landmark(graph)
        _, n_singular, report = check_round(graph, schedule, np.arange(graph.n_measurement_factors))
        assert n_singular == report.n_singular_messages
        counts.append(n_singular)
    # the first round of the new factors conditions on zero inputs
    assert counts[2] >= 2 * new.size


@pytest.mark.parametrize("make_graph", [perturbed_graph, lambda: build(outlier_problem())])
def test_relinearisation_round_matches_scalar_path(make_graph):
    # round 10 relinearises the factors: each then sends its messages with
    # its new Jacobian, while its last message to the eliminated side, which
    # the input removes from that side's belief, was sent with the old one
    graph = make_graph()
    schedule = ScheduleParams()
    run(graph, schedule, n=10)
    jac = graph.f_jac.copy()
    _, n_singular, report = check_round(graph, schedule, np.arange(graph.n_measurement_factors))
    assert report.n_relinearized > 0
    assert np.count_nonzero(np.any(graph.f_jac != jac, axis=(1, 2))) == report.n_relinearized
    assert n_singular == report.n_singular_messages


def test_relinearisation_round_with_an_aborted_row_matches_scalar_path(monkeypatch):
    # factor 0's landmark mirrored through its keyframe's camera centre, which
    # negates its depth there: round 10 aborts factor 0, whose J and messages
    # are unchanged, so it stays on the one-solve path of the rows that
    # phase A left alone, and relinearises the rest
    stale = []
    side_terms = engine._side_terms

    def recording(*args):
        stale.append(args[-1].copy())
        return side_terms(*args)

    monkeypatch.setattr(engine, "_side_terms", recording)
    graph = perturbed_graph()
    schedule = ScheduleParams()
    run(graph, schedule, n=10)
    stale.clear()
    lm = graph.f_lm[0]
    graph.lm_state[lm] = 2 * camera_center(graph.kf_state[graph.f_kf[0]]) - graph.lm_state[lm]
    _, n_singular, report = check_round(graph, schedule, np.arange(graph.n_measurement_factors))
    assert (report.n_relinearized, report.n_relin_aborted) == (graph.n_measurement_factors - 1, 1)
    assert n_singular == report.n_singular_messages
    # per side, one call over every row
    assert len(stale) == 2
    top = [mask for mask in stale if mask.size == graph.n_measurement_factors]
    assert len(top) == 2
    for mask in top:
        assert not mask[0] and mask[1:].all()


def test_message_kept_singular_across_a_relinearisation_restarts_at_zero():
    # round 10 relinearises every factor; with landmark 0's B^-1 cleared, as
    # where phase C could not invert its belief, its factors' messages to
    # their keyframes are singular, and their last ones were sent with the
    # old J, so they restart at zero as a new factor's do
    graph = perturbed_graph()
    schedule = ScheduleParams()
    run(graph, schedule, n=10)
    graph.lm_belief_cov[0] = 0
    report = iterate(graph, schedule)
    assert report.n_relinearized == graph.n_measurement_factors == 120
    rows = np.flatnonzero(graph.f_lm == 0)
    assert rows.size == 4 and report.n_singular_messages == 4
    assert not graph.f_msg[rows, :, 0].any()
    check_round(graph, schedule, np.arange(graph.n_measurement_factors))


def test_report_phase_times():
    graph = perturbed_graph()
    for report in run(graph, ScheduleParams(), n=3):
        assert set(report.phase_ms) == set(PHASES)
        times = np.array(list(report.phase_ms.values()))
        assert np.all(np.isfinite(times)) and np.all(times >= 0.0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_contractions_sum_rows_in_ascending_order(dtype):
    # phase B's products sum over d in ascending order on every row, as a
    # loop of row-wise products adds them, however many rows there are
    def ascending(terms):
        return sum(terms[1:], terms[0])

    rng = np.random.default_rng(5)
    for d in (3, 6):
        for n in (0, 1, 2, 3, 7, 64):
            x, y = (rng.normal(size=(2, d, n)).astype(dtype) for _ in range(2))
            cov = rng.normal(size=(d, d, n)).astype(dtype)
            cases = [
                ("ijn,ajn->ain", cov, x, ascending([cov[:, j] * x[:, None, j] for j in range(d)])),
                ("adm,bdm->abm", x, y, ascending([x[:, None, j] * y[:, j] for j in range(d)])),
                ("dn,dn->n", x[0], y[0], ascending([x[0, j] * y[0, j] for j in range(d)])),
            ]
            for spec, a, b, want in cases:
                np.testing.assert_array_equal(engine._contract(spec, a, b), want, err_msg=f"{spec} {d=} {n=}")
                out = np.empty_like(want)
                assert engine._contract(spec, a, b, out) is out
                np.testing.assert_array_equal(out, want, err_msg=f"{spec} {d=} {n=}")


def test_row_blocks_do_not_change_results(monkeypatch):
    # every pass over all factors runs over blocks of rows: the linearisation,
    # the prior refresh, the shared projection, phases A, B and C and the
    # rank check in validate(); blocks of 7 rows cut every array mid-stream.
    # The singular keep-previous rule, the relinearising round 11 and a
    # factor added mid-solve cross block edges, and so do behind-camera rows,
    # which abort the linearisation and take the energy's residual at the
    # linearisation point: measurement 40's landmark starts behind its
    # camera, and factor 10's is mirrored behind its camera before round 11
    problem = outlier_problem()
    lm, kf = problem.meas_lm[40], problem.meas_kf[40]
    problem.lm_init[lm] = 2 * camera_center(problem.kf_init[kf]) - problem.lm_init[lm]
    built_names = ("f_jac", "f_target", "f_lin", "f_weight",
                   *(f"{kind.key}_prior_{name}" for kind in factor_graph.KINDS
                     for name in ("diag0", "fallback")))
    graphs = {}
    for block in (engine.BLOCK_ROWS, 7):
        monkeypatch.setattr(engine, "BLOCK_ROWS", block)
        monkeypatch.setattr(factor_graph, "BLOCK_ROWS", block)
        graph = build(problem)
        built = [getattr(graph, name).copy() for name in built_names]
        reports = run(graph, ScheduleParams(), n=10)
        lm = graph.f_lm[10]
        graph.lm_state[lm] = 2 * camera_center(graph.kf_state[graph.f_kf[10]]) - graph.lm_state[lm]
        behind = np.flatnonzero(graph.residuals()[1] <= DEPTH_EPSILON)
        evaluated = (graph.average_reprojection_error(), graph.energy())
        reports += run(graph, ScheduleParams(), n=2)
        add_observed_landmark(graph)
        reports += run(graph, ScheduleParams(), n=3)
        graphs[block] = (graph, built, behind, evaluated, reports, graph.validate())
    (big, big_built, big_behind, big_evaluated, big_reports, big_bad), \
        (small, small_built, small_behind, small_evaluated, small_reports, small_bad) = graphs.values()
    assert big.n_measurement_factors > 7 * 10
    assert sum(r.n_singular_messages for r in big_reports) > 0
    assert big_bad == small_bad
    for name, a, b in zip(built_names, big_built, small_built):
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert not big_built[built_names.index("f_jac")].any(axis=(1, 2)).all()  # some never linearised
    assert big_behind.size > 0 and big_behind.min() // 7 != big_behind.max() // 7
    np.testing.assert_array_equal(big_behind, small_behind)
    assert big_evaluated == small_evaluated
    assert big_reports[10].n_relinearized > 0 and big_reports[10].n_relin_aborted > 0
    assert len(big_reports) == len(small_reports) == 15
    for a, b in zip(big_reports, small_reports):
        a.phase_ms = b.phase_ms = {}
        assert a == b
    for name in ("kf_state", "lm_state", "kf_belief_lam", "lm_belief_eta", "f_msg"):
        np.testing.assert_array_equal(getattr(big, name), getattr(small, name))


def dense_problem():
    # each keyframe sees all 400 landmarks: its factors are one run of 400 rows
    return perturb(synthesize(6, 400, seed=11, pixel_sigma=1), 0.05, "backproject", seed=12)


def test_dense_runs_match_the_gathered_path(monkeypatch):
    # with every run dense, each keyframe's 400 rows are one run: phase B
    # contracts the keyframe's own B^-1 and phase C sums the run in one
    # product.  Landmarks take no runs, so their rows, and with none dense
    # every row, gather and scatter.  The sums differ only in their order
    problem = dense_problem()
    keys = ("n_relinearized", "n_relin_aborted", "n_singular_messages", "n_frozen_states", "n_behind_camera")
    results = []
    for rows in (1, 10**9):
        monkeypatch.setattr(engine, "DENSE_RUN_ROWS", rows)
        graph = build(problem)
        assert len(engine._dense_runs(graph.f_kf)) == (6 if rows == 1 else 0)
        reports = run(graph, n=12)
        results.append((graph, [[getattr(r, key) for key in keys] for r in reports]))
    (dense, dense_counts), (gathered, gathered_counts) = results
    assert dense_counts == gathered_counts
    assert gathered_counts[10][0] == gathered.n_measurement_factors  # round 11 relinearises
    for name in ("kf_state", "lm_state", "kf_belief_eta", "kf_belief_lam", "lm_belief_eta", "lm_belief_lam"):
        want, got = getattr(gathered, name), getattr(dense, name)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), name


def test_dense_runs_match_scalar_path(monkeypatch):
    # keyframe runs of 400 rows: round 10 is plain and damped, and round 11
    # relinearises every factor, so its stale rows lie inside the runs
    monkeypatch.setattr(engine, "DENSE_RUN_ROWS", 100)
    graph = build(dense_problem())
    schedule = ScheduleParams()
    run(graph, schedule, n=9)
    assert len(engine._dense_runs(graph.f_kf)) == 6
    rows = np.arange(0, graph.n_measurement_factors, 10)
    dampings, _, report = check_round(graph, schedule, rows)
    assert set(dampings) == {schedule.damping} and report.n_relinearized == 0
    dampings, _, report = check_round(graph, schedule, rows)
    assert set(dampings) == {0.0} and report.n_relinearized == graph.n_measurement_factors


def test_long_dense_runs_hold_bounded_temporaries():
    # each keyframe's factors are one run of about 15,000 or 30,000 rows,
    # longer than BLOCK_ROWS: phase B takes a run in pieces of
    # DENSE_RUN_PIECE rows, so its heap in a plain round does not grow with
    # the run
    schedule = ScheduleParams()
    heap = []
    for n_landmarks in (15000, 30000):
        graph = build(synthesize(2, n_landmarks, seed=1))
        run(graph, schedule, n=2)
        t = graph.iteration
        relinearized = engine._phase_relinearize(graph, schedule, t)[2]
        n = graph.n_measurement_factors
        plan = engine._segments(n, engine._dense_runs(graph.f_kf))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            engine._phase_messages(graph, schedule, t, n, relinearized, plan)
            heap.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert sum(b - a for *_, pieces in plan for a, b in pieces) == n > 4 * engine.BLOCK_ROWS
    assert heap[1] <= 1.25 * heap[0]


def test_dense_runs_do_not_depend_on_row_blocks(monkeypatch):
    # keyframe runs of 400 rows cross the edges of 7-row blocks.  Before
    # round 11, which relinearises, factor 5's landmark is mirrored behind
    # its cameras, so its rows abort among stale rows, and keyframe 2's B^-1
    # is cleared, as where phase C could not invert it, so its rows' messages
    # are singular
    monkeypatch.setattr(engine, "DENSE_RUN_ROWS", 100)
    problem = dense_problem()
    graphs = {}
    for block in (engine.BLOCK_ROWS, 7):
        monkeypatch.setattr(engine, "BLOCK_ROWS", block)
        monkeypatch.setattr(factor_graph, "BLOCK_ROWS", block)
        graph = build(problem)
        reports = run(graph, ScheduleParams(), n=10)
        lm = graph.f_lm[5]
        graph.lm_state[lm] = 2 * camera_center(graph.kf_state[graph.f_kf[5]]) - graph.lm_state[lm]
        graph.kf_belief_cov[2] = 0
        reports += run(graph, ScheduleParams(), n=3)
        for report in reports:
            report.phase_ms = {}
        graphs[block] = graph, reports
    (big, big_reports), (small, small_reports) = graphs.values()
    runs = engine._dense_runs(big.f_kf)
    assert len(runs) == 6 and any(start % 7 for start, _ in runs)
    assert big_reports[10].n_relinearized > 0 and big_reports[10].n_relin_aborted > 0
    assert big_reports[10].n_singular_messages >= 400
    assert big_reports == small_reports
    for name in ("kf_state", "lm_state", "kf_belief_lam", "lm_belief_eta", "f_msg"):
        np.testing.assert_array_equal(getattr(big, name), getattr(small, name), err_msg=name)


@settings(max_examples=200, deadline=None)
@given(
    groups=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 12)), max_size=12),
    block=st.integers(1, 9),
    run_rows=st.integers(1, 5),
    piece=st.integers(1, 9),
)
def test_segments_plan_keyframe_runs(groups, block, run_rows, piece):
    # the plan of phases B and C tiles the rows in order; each maximal group
    # of at least DENSE_RUN_ROWS equal keyframe ids is cut into pieces of
    # DENSE_RUN_PIECE rows from its start, each inside one stretch, and a
    # stretch outgrows BLOCK_ROWS only as one piece
    ids = np.repeat(*np.array(groups, dtype=int).reshape(-1, 2).T)
    bounds = np.flatnonzero(np.diff(ids, prepend=-1, append=-1))
    want = [
        (i, min(i + piece, b))
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()) if b - a >= run_rows
        for i in range(a, b, piece)
    ]
    with pytest.MonkeyPatch.context() as patch:
        for name, value in (("BLOCK_ROWS", block), ("DENSE_RUN_ROWS", run_rows), ("DENSE_RUN_PIECE", piece)):
            patch.setattr(engine, name, value)
        plan = engine._segments(ids.size, engine._dense_runs(ids))
    edges = [0] + [stop for _, stop, _ in plan]
    assert [start for start, _, _ in plan] == edges[:-1] and edges[-1] == ids.size
    got = []
    for start, stop, pieces in plan:
        assert start < stop
        assert all(0 <= a < b <= stop - start for a, b in pieces)
        assert stop - start <= block or pieces == [(0, stop - start)]
        got += [(start + a, start + b) for a, b in pieces]
    assert got == want


def test_float32_dense_runs_take_the_float64_iterations(monkeypatch):
    # phase C sums a float32 graph's dense runs in float64, as its other rows
    monkeypatch.setattr(engine, "DENSE_RUN_ROWS", 100)
    problem = dense_problem()
    reports = {}
    for dtype in (np.float64, np.float32):
        graph = build(problem).astype(dtype)
        assert len(engine._dense_runs(graph.f_kf)) == 6
        reports[dtype] = solve(graph, ScheduleParams(are_target=1.5))
        assert graph.kf_state.dtype == graph.f_msg.dtype == dtype
    want, got = reports[np.float64], reports[np.float32]
    assert want.converged and got.converged
    assert want.iterations == got.iterations == 44
    assert got.final_are == pytest.approx(want.final_are, rel=1e-4)


def test_whole_graph_passes_hold_bounded_temporaries():
    # heap a pass allocates above its inputs and outputs, per factor, on
    # ~30k factors: the passes over all factors work in blocks of rows, so
    # their temporaries do not scale with the graph, except for the old J
    # of the relinearised factors phase A hands to phase B (144 B each,
    # every factor in round 11)
    problem = perturb(synthesize(20, 1500, seed=41, pixel_sigma=1), 0.05, "backproject", seed=41)

    def extra_heap(call):
        """(result, peak heap during `call` above the heap before it)"""
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before

    def evaluate(graph):
        with graph.shared_projection():
            return graph.average_reprojection_error(), graph.energy()

    tracemalloc.start()
    try:
        graph, build_bytes = extra_heap(lambda: build(problem))
        graph_bytes = sum(a.nbytes for a in vars(graph).values() if isinstance(a, np.ndarray))
        _, evaluate_bytes = extra_heap(lambda: evaluate(graph))
        run(graph, n=10)
        report, round_bytes = extra_heap(lambda: iterate(graph))
    finally:
        tracemalloc.stop()
    n = graph.n_measurement_factors
    assert n > 29000 and report.n_relinearized > n // 2
    assert (build_bytes - graph_bytes) / n <= 256
    assert evaluate_bytes / n <= 96
    assert round_bytes / n <= 400


def test_relinearising_a_few_factors_holds_no_copy_of_every_jacobian():
    # a keyframe of 1,500 measurements joins a graph of 30,000 factors
    # after round 14; round 25 relinearises its factors alone, and phase A
    # hands phase B the J those few sent their messages with, not a copy of
    # every factor's
    problem = perturb(synthesize(21, 1500, seed=41, pixel_sigma=1), 0.05, "backproject", seed=41)
    old = problem.meas_kf < 20
    graph = build(ProblemSpec(
        problem.intrinsics, problem.kf_init[:20], problem.lm_init, meas_kf=problem.meas_kf[old],
        meas_lm=problem.meas_lm[old], meas_uv=problem.meas_uv[old], meas_sigma=problem.meas_sigma[old],
    ))
    run(graph, n=14)
    graph.add_keyframe(problem.kf_init[20])
    new = ~old
    graph.add_measurements(problem.meas_kf[new], problem.meas_lm[new], problem.meas_uv[new], problem.meas_sigma[new])
    run(graph, n=9)
    rounds = []
    tracemalloc.start()
    try:
        for _ in range(2):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            report = iterate(graph)
            rounds.append((report, tracemalloc.get_traced_memory()[1] - before))
    finally:
        tracemalloc.stop()
    (plain, plain_bytes), (relin, relin_bytes) = rounds
    n = graph.n_measurement_factors
    assert (plain.iteration, plain.n_relinearized) == (24, 0)
    assert (relin.iteration, relin.n_relinearized, n) == (25, 1500, 31500)
    assert relin_bytes / n <= plain_bytes / n + 32


def test_first_round_factors_skip_the_message_kernel(monkeypatch):
    # in the round after build every factor is in its first round: each
    # keeps its zero messages, counted singular, and none is solved
    rows = []
    side_terms = engine._side_terms

    def counting(ids, *args):
        rows.append(ids.shape[-1])
        return side_terms(ids, *args)

    monkeypatch.setattr(engine, "_side_terms", counting)
    graph = perturbed_graph()
    report = iterate(graph)
    assert sum(rows) == 0
    assert report.n_singular_messages == 2 * graph.n_measurement_factors
    for kind in factor_graph.KINDS:
        s, v = graph.message(kind)
        assert not s.any() and not v.any()
    iterate(graph)
    assert sum(rows) >= 2 * graph.n_measurement_factors


def runs_problem():
    # each keyframe's factors are one run of 300 rows
    return perturb(synthesize(2, 300, seed=21, pixel_sigma=0.5), 0.05, "backproject", seed=22)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("dense", [True, False])
def test_beliefs_are_priors_times_stored_messages(monkeypatch, dense, dtype):
    # phase C sums each variable's prior and its factors' messages (J'v,
    # J'SJ), over dense runs or row by row; each entry is checked against
    # the sum of its terms formed from magnitudes, |J|'|v| and |J|'|S||J|,
    # at 16 eps of the graph's dtype: 5.3 were seen in float64, 1.3 in
    # float32
    graph = build(runs_problem()).astype(dtype)
    if not dense:
        monkeypatch.setattr(engine, "DENSE_RUN_ROWS", graph.n_measurement_factors + 1)
    run(graph, ScheduleParams(), n=12)
    assert bool(engine._dense_runs(graph.f_kf)) == dense
    for kind in factor_graph.KINDS:
        s, v = (m.astype(float) for m in graph.message(kind))
        s = np.stack([s[:, :2], s[:, 1:]], axis=1)
        jac = graph.f_jac[:, :, kind.cols].astype(float)
        terms = [(np.einsum("fji,fj->fi", j, x), np.swapaxes(j, 1, 2) @ y @ j)
                 for j, x, y in ((jac, v, s), (np.abs(jac), np.abs(v), np.abs(s)))]
        prior_eta, prior_diag = (a.astype(float) for a in graph.prior_information(kind))
        priors = prior_eta, prior_diag[:, :, None] * np.eye(kind.dim)
        for name, prior, term, magnitude in zip(("belief_eta", "belief_lam"), priors, *terms):
            want, bound = prior.copy(), np.abs(prior)
            np.add.at(want, graph.adjacent(kind), term)
            np.add.at(bound, graph.adjacent(kind), magnitude)
            got = graph.var(kind, name)
            assert np.all(np.abs(got - want) <= 16 * np.finfo(dtype).eps * bound), (kind.name, name)


def test_beliefs_do_not_depend_on_factor_order():
    # phase C's sums commute: shuffled measurements, which leave no dense
    # run, move every message and belief by rounding only
    problem = runs_problem()
    order = np.random.default_rng(5).permutation(len(problem.meas_kf))
    shuffled = dataclasses.replace(problem, **{
        name: getattr(problem, name)[order] for name in ("meas_kf", "meas_lm", "meas_uv", "meas_sigma")
    })
    graphs = build(problem), build(shuffled)
    assert [bool(engine._dense_runs(g.f_kf)) for g in graphs] == [True, False]
    for graph in graphs:
        run(graph, ScheduleParams(), n=4)
    names = [f"{kind.key}_{name}" for kind in factor_graph.KINDS for name in ("belief_eta", "belief_lam", "state")]
    for name in names:
        want, got = (getattr(g, name) for g in graphs)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max(), err_msg=name)
    for kind in factor_graph.KINDS:
        for want, got in zip(graphs[0].message(kind), graphs[1].message(kind)):
            np.testing.assert_allclose(got, want[order], rtol=0, atol=1e-12 * np.abs(want).max())


def test_point_major_input_matches_keyframe_major():
    # a BAL file lists measurements point by point: each of these 30
    # landmarks is seen by all 140 keyframes, so its rows are consecutive,
    # yet only a keyframe's rows form a dense run, and the point-major
    # order gathers every row, as the keyframe-major order of runs of 30
    problem = perturb(synthesize(140, 30, seed=11, pixel_sigma=1), 0.05, "backproject", seed=12)
    order = np.lexsort((problem.meas_kf, problem.meas_lm))
    point_major = dataclasses.replace(problem, **{
        name: getattr(problem, name)[order] for name in ("meas_kf", "meas_lm", "meas_uv", "meas_sigma")
    })
    graphs = build(problem), build(point_major)
    assert np.all(np.diff(graphs[1].f_lm) >= 0) and np.count_nonzero(np.diff(graphs[1].f_lm)) == 29
    assert [engine._dense_runs(g.f_kf) for g in graphs] == [[], []]
    counts = [[r.n_relinearized for r in run(g, ScheduleParams(), n=12)] for g in graphs]
    assert counts[0] == counts[1] and counts[0][10] == graphs[0].n_measurement_factors
    names = [f"{kind.key}_{name}" for kind in factor_graph.KINDS for name in ("belief_eta", "belief_lam", "state")]
    for name in names:
        want, got = (getattr(g, name) for g in graphs)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), name


def test_first_round_factors_add_nothing_to_beliefs():
    # phase C leaves out the factors in their first round; their messages
    # are zero, so summing them in changes no belief
    graph = perturbed_graph()
    run(graph, ScheduleParams(), n=3)
    add_observed_landmark(graph)
    n_old = int(np.searchsorted(graph.f_birth, graph.iteration))
    assert n_old < graph.n_measurement_factors
    skipped, summed = graph.copy(), graph.copy()
    for g, n in ((skipped, n_old), (summed, graph.n_measurement_factors)):
        engine._phase_beliefs(g, engine._segments(n, engine._dense_runs(g.f_kf[:n])))
    for kind in factor_graph.KINDS:
        for name in ("belief_eta", "belief_lam", "belief_cov", "state"):
            np.testing.assert_array_equal(summed.var(kind, name), skipped.var(kind, name))


def test_phases_update_the_graph_arrays_in_place():
    graph = perturbed_graph()
    names = ["f_msg"]
    names += [f"{key}_{field}" for key in ("kf", "lm") for field in ("belief_eta", "belief_lam", "state")]
    arrays = {name: getattr(graph, name) for name in names}
    before = {name: value.copy() for name, value in arrays.items()}
    run(graph, ScheduleParams(), n=3)
    for name, value in arrays.items():
        assert getattr(graph, name) is value, name
        assert not np.array_equal(value, before[name]), name


def test_zero_weakening_window_restores_full_strength_priors():
    graph = perturbed_graph()
    run(graph, ScheduleParams(), n=12)
    assert np.all(graph.kf_prior_scale == 0.01) and np.all(graph.lm_prior_scale == 0.01)
    report = iterate(graph, ScheduleParams(prior_weaken_iters=0))
    assert report.prior_scale == 1.0
    assert np.all(graph.kf_prior_scale == 1.0) and np.all(graph.lm_prior_scale == 1.0)


def test_float32_first_round_messages_are_singular_as_in_float64():
    # a rank-2 factor conditioned on a zero input is singular on both sides
    # in exact arithmetic, so its messages are masked whatever its pivots
    # round to, in either dtype (seeds 5 and 8 each have a pivot that passes)
    for seed in (3, 5, 8):
        problem = perturb(synthesize(8, 250, seed=seed, pixel_sigma=1), 0.05, "backproject", seed=seed)
        for dtype in (np.float64, np.float32):
            graph = build(problem).astype(dtype)
            report = iterate(graph)
            assert report.n_singular_messages == 2 * graph.n_measurement_factors == 4000, (seed, dtype)
            assert not graph.f_msg[:, :3].any()


@pytest.mark.parametrize("seed", [5, 8])
def test_float32_solve_takes_the_float64_iterations(seed):
    # the message and belief phases, relinearisation rounds included, keep
    # float32 and lose no more than rounding against float64
    problem = perturb(synthesize(8, 250, seed=seed, pixel_sigma=1), 0.05, "backproject", seed=seed)
    reports = {}
    for dtype in (np.float64, np.float32):
        graph = build(problem).astype(dtype)
        reports[dtype] = solve(graph, ScheduleParams(are_target=1.5))
        for prefix, (fields, _) in factor_graph.TABLES.items():
            for f in fields:
                if f.kind == "float":
                    assert getattr(graph, prefix + f.name).dtype == dtype, (prefix + f.name, dtype)
    want, got = reports[np.float64], reports[np.float32]
    assert want.converged and got.converged
    assert want.iterations == got.iterations == 33
    assert got.final_are == pytest.approx(want.final_are, rel=1e-4)


def test_lm_solves_a_float32_graph_in_float64():
    # lm_solve works on a float64 copy, so a float32 graph differs from the
    # float64 one only by its rounded inputs and takes the same steps
    graph = build(perturb(synthesize(8, 250, seed=5, pixel_sigma=1), 0.05, "backproject", seed=5))
    want, got = lm_solve(graph), lm_solve(graph.astype(np.float32))
    assert got.kf_states.dtype == got.lm_states.dtype == np.float64
    assert (got.steps, got.reason) == (want.steps, want.reason) == (3, "are_target")
    assert got.final_are == pytest.approx(want.final_are, rel=1e-6)


def test_lm_steps_leave_out_behind_camera_factors():
    # a landmark mirrored behind its first observer: that factor keeps the
    # stale linearisation `build` gave it, which no LM step may use, so
    # clearing it changes nothing
    graph = build(perturb(synthesize(4, 30, seed=9, pixel_sigma=0.7), 0.03, "backproject", seed=10))
    m = np.flatnonzero(graph.f_lm == 0)[0]
    center = camera_center(graph.kf_state[graph.f_kf[m]])
    graph.lm_state[0] = 2 * center - graph.lm_state[0]
    behind = graph.residuals()[1] <= DEPTH_EPSILON
    assert behind[m] and graph.f_jac[m].any()
    clean = graph.copy()
    clean.f_jac[behind], clean.f_target[behind] = 0.0, 0.0
    want, got = lm_solve(clean), lm_solve(graph)
    assert got.steps == want.steps > 0
    np.testing.assert_array_equal(got.kf_states, want.kf_states)
    np.testing.assert_array_equal(got.lm_states, want.lm_states)


def test_zero_undamped_window_rejected_while_relinearising():
    # damping blends the measurement-space vector v, which is exact only once
    # the relinearisation round has resent each message with the new J
    with pytest.raises(ValueError, match="undamped_window"):
        ScheduleParams(undamped_window=0)
    ScheduleParams(undamped_window=0, beta=None)


def test_linear_gbp_reaches_dense_map():
    # no relinearisation, damping or weakening: loopy GBP on the linearised
    # graph converges to the exact MAP mean
    graph = perturbed_graph()
    want = map_solve(assemble(graph))
    schedule = ScheduleParams(
        beta=None, damping=0.0, prior_weaken_iters=0, are_target=0.0, max_iters=2000, message_tol=1e-10
    )
    report = solve(graph, schedule)
    assert report.reason == "message_tol"
    got = stack_states(graph)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("shape, rounds, dtype, rtol", [
    ((2, 300), 24, np.float64, 1e-12),
    ((3, 200), 31, np.float64, 1e-12),
    pytest.param((2, 300), 24, np.float32, 1e-6, marks=pytest.mark.xfail(strict=True, reason=(
        "3.6e-3 from the MAP: the float32 pivot tolerance of batch_linalg._cholesky_cm, 4500 eps "
        "(5.4e-4 of the trace), freezes landmarks 181 and 291, whose beliefs have condition numbers "
        "7.5e3 and 2.0e3 and float64 pivot ratios 7.6e-5 and 3.0e-4"))),
    ((3, 200), 31, np.float32, 1e-6),
])
def test_linear_gbp_on_dense_runs_reaches_dense_map(shape, rounds, dtype, rtol):
    # every keyframe's factors are one dense run.  float64 meets message_tol
    # in `rounds`; float32 messages jitter at rounding and never meet it, so
    # a float32 copy runs as many rounds
    graph = build(synthesize(*shape, seed=21))
    assert len(engine._dense_runs(graph.f_kf)) == shape[0]
    want = map_solve(assemble(graph))
    schedule = ScheduleParams(
        beta=None, damping=0.0, prior_weaken_iters=0, are_target=0.0, max_iters=2000, message_tol=1e-10
    )
    report = solve(graph.copy(), schedule)
    assert (report.reason, report.iterations) == ("message_tol", rounds)
    graph = graph.astype(dtype)
    run(graph, schedule, n=rounds)
    got = stack_states(graph)
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


def linear_schedule():
    return ScheduleParams(beta=None, damping=0.0, prior_weaken_iters=0, are_target=0.0, message_tol=1e-10)


def test_message_tol_skips_a_round_that_kept_every_message():
    # clearing every B^-1 after round 3 leaves round 4 unable to solve any
    # message: it keeps all 240, so its delta of 0 says nothing, and the
    # solve goes on to converge
    graph = build(synthesize(3, 40, seed=21))

    def clear_covariances(g, report):
        if report.iteration == 3:
            for kind in factor_graph.KINDS:
                g.var(kind, "belief_cov")[:] = 0

    report = solve(graph, linear_schedule(), callback=clear_covariances)
    kept = report.reports[3]
    assert kept.n_singular_messages == 2 * graph.n_measurement_factors == 240
    assert kept.max_message_delta == 0.0
    assert (report.reason, report.iterations) == ("message_tol", 31)


def test_message_tol_stops_a_settled_graph_after_one_round():
    # the first round of a second solve is checked like any other, and so
    # is the first round of a graph without factors, which has no message
    problem = synthesize(3, 40, seed=21)
    graph = build(problem)
    assert solve(graph, linear_schedule()).reason == "message_tol"
    report = solve(graph, linear_schedule())
    assert report.reports[0].max_message_delta < 1e-10
    assert (report.reason, report.iterations) == ("message_tol", 1)
    empty = build(dataclasses.replace(problem, **{
        name: getattr(problem, name)[:0] for name in ("meas_kf", "meas_lm", "meas_uv", "meas_sigma")
    }))
    report = solve(empty, linear_schedule())
    assert (report.reason, report.iterations, report.final_are) == ("message_tol", 1, 0.0)


def test_message_tol_waits_for_the_messages_of_new_factors():
    # a keyframe's measurements join a settled graph: the round they are
    # born in sends none of their messages, and the old factors' messages,
    # which read last round's beliefs, do not change in it, so its delta
    # is below the tolerance; the solve must go on and send the new ones
    problem = synthesize(4, 40, seed=21)
    old = problem.meas_kf < 3
    graph = build(ProblemSpec(
        problem.intrinsics, problem.kf_init[:3], problem.lm_init, meas_kf=problem.meas_kf[old],
        meas_lm=problem.meas_lm[old], meas_uv=problem.meas_uv[old], meas_sigma=problem.meas_sigma[old],
    ))
    assert solve(graph, linear_schedule()).reason == "message_tol"
    start = graph.n_measurement_factors
    graph.add_keyframe(problem.kf_init[3])
    graph.add_measurements(problem.meas_kf[~old], problem.meas_lm[~old], problem.meas_uv[~old],
                           problem.meas_sigma[~old])
    report = solve(graph, linear_schedule())
    assert report.reports[0].max_message_delta < 1e-10
    assert report.reason == "message_tol" and report.iterations > 1
    assert np.all(np.any(graph.f_msg[start:] != 0, axis=1))


@pytest.mark.parametrize("seed", [21, 23])
def test_linear_gbp_marginals_against_dense_oracle(seed):
    # on the loopy linear graph GBP means are exact at convergence and its
    # variances close to, not equal to, the exact ones, on either side
    graph = build(perturb(synthesize(4, 30, seed=seed, pixel_sigma=0.5), 0.05, "backproject", seed=seed + 1))
    system = assemble(graph)
    assert system.dim == 114
    with pytest.raises(OracleScaleError):
        marginals(system, max_dim=system.dim - 1)
    exact = marginals(system)
    schedule = ScheduleParams(
        beta=None, damping=0.0, prior_weaken_iters=0, are_target=0.0, max_iters=2000, message_tol=1e-10
    )
    assert solve(graph, schedule).reason == "message_tol"
    want = np.concatenate([mean for side in exact for mean, _ in side])
    got = stack_states(graph)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    for kind, side in zip(factor_graph.KINDS, exact):
        gbp_var = np.diagonal(np.linalg.inv(graph.var(kind, "belief_lam")), axis1=1, axis2=2)
        exact_var = np.array([np.diag(cov) for _, cov in side])
        np.testing.assert_allclose(gbp_var, exact_var, rtol=0.01, err_msg=kind.name)


def test_default_cadence_relinearises_every_factor_at_rounds_11_22_33():
    # every factor passes beta early, so the cooldown of 10 sets the
    # cadence: 10 rounds after its birth, then 11 after each relinearisation
    graph = build(perturb(synthesize(8, 250, seed=3, pixel_sigma=1), 0.05, "backproject", seed=3))
    assert graph.n_measurement_factors == 2000
    counts = {report.iteration: report.n_relinearized for report in run(graph, n=40)}
    assert counts == {t: 2000 if t in (11, 22, 33) else 0 for t in range(1, 41)}
    # factors added mid-solve start their count at zero
    new = add_observed_landmark(graph)
    assert np.all(graph.iters_since_relin(new) == 0)


SOLVE_PATH = textwrap.dedent("""
    import sys
    from gbp_ba import build, load, perturb, save, solve, synthesize
    problem = perturb(synthesize(6, 60, seed=5, pixel_sigma=0.5), 0.05, "backproject", seed=6)
    save(problem, sys.argv[1])
    report = solve(build(load(sys.argv[1])))
    assert report.converged, report.reason
    print(sorted(name for name in sys.modules if name.startswith("scipy")))
""")


def test_solve_path_loads_no_scipy(tmp_path):
    # scipy serves only the dense oracle and the LM baseline, which import
    # it themselves: generating, storing, loading, building and solving a
    # problem in a fresh interpreter leaves it unloaded
    src = str(Path(engine.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    result = subprocess.run(
        [sys.executable, "-c", SOLVE_PATH, str(tmp_path / "scene.gbpba")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
