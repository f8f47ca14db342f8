import dataclasses
import mmap

import numpy as np
import pytest

from gbp_ba import (
    BuildError,
    Intrinsics,
    ProblemSpec,
    ScheduleParams,
    assemble,
    build,
    inject_outliers,
    iterate,
    perturb,
    run,
    solve,
    synthesize,
)
from gbp_ba.camera import DEPTH_EPSILON, camera_center, jacobian_many, project_many, rotation_matrix
from gbp_ba import factor_graph
from gbp_ba.dense_oracle import stack_states
from gbp_ba.factor_graph import (
    FACTOR_FIELDS, KEYFRAME, KINDS, PRIOR_FLOOR_RTOL, TABLES, huber_energy, huber_weight,
)


def assert_graph_equal(graph, before):
    for name, value in vars(before).items():
        if isinstance(value, np.ndarray):
            np.testing.assert_array_equal(getattr(graph, name), value, err_msg=name)


def one_factor_problem(z=(0.0, 0.0), sigma=1.0):
    return ProblemSpec(
        intrinsics=Intrinsics(1.0, 1.0, 0.0, 0.0),
        kf_init=np.zeros((1, 6)),
        lm_init=np.array([[0.0, 0.0, 1.0]]),
        meas_kf=[0],
        meas_lm=[0],
        meas_uv=[list(z)],
        meas_sigma=[sigma],
    )


class TestBuild:
    def test_minimal_topology(self):
        graph = build(one_factor_problem())
        assert graph.n_variables == 2
        assert graph.n_measurement_factors == 1
        assert graph.n_factor_nodes == 3  # 2 priors + 1 measurement

    def test_desk_scale_counts(self):
        # 63 keyframes, 2913 landmarks, 13514 measurements ->
        # 2976 variables and 16490 factor nodes
        rng = np.random.default_rng(0)
        n_kf, n_lm, n_meas = 63, 2913, 13514
        meas_lm = np.concatenate([np.arange(n_lm), rng.integers(0, n_lm, n_meas - n_lm)])
        meas_kf = rng.integers(0, n_kf, n_meas)
        prob = ProblemSpec(
            kf_init=np.tile([0, 0, 0, 0, 0, 0.0], (n_kf, 1)),
            lm_init=rng.uniform(-1, 1, (n_lm, 3)) + [0, 0, 5.0],
            meas_kf=meas_kf,
            meas_lm=meas_lm,
            meas_uv=rng.uniform(0, 480, (n_meas, 2)),
            meas_sigma=np.ones(n_meas),
        )
        graph = build(prob)
        assert graph.n_variables == 2976
        assert graph.n_factor_nodes == 16490

    def test_empty_measurements_solve_returns_prior_means(self):
        prob = ProblemSpec(
            kf_init=np.array([[0.1, 0, 0, 1.0, 2.0, 3.0]]),
            lm_init=np.array([[4.0, 5.0, 6.0]]),
        )
        graph = build(prob)
        report = solve(graph, ScheduleParams(max_iters=5))
        assert report.converged and report.iterations == 0
        np.testing.assert_array_equal(report.kf_states, prob.kf_init)
        np.testing.assert_array_equal(report.lm_states, prob.lm_init)

    def test_dangling_ids_error(self):
        prob = one_factor_problem()
        prob.meas_lm = np.array([5])
        with pytest.raises(ValueError, match="landmark 5"):
            prob.validate()

    @pytest.mark.parametrize("nsigma", [-1.0, -np.inf, np.nan, True, False, "2"])
    def test_bad_huber_threshold_raises(self, nsigma):
        with pytest.raises(BuildError, match="huber_nsigma"):
            build(one_factor_problem(), huber_nsigma=nsigma)

    @pytest.mark.parametrize("nsigma", [None, 0, np.inf])
    def test_huber_off(self, nsigma):
        graph = build(one_factor_problem(z=(30.0, 40.0)), huber_nsigma=nsigma)
        assert graph.huber_nsigma == np.inf and graph.f_weight[0] == 1.0
        assert graph.energy() == pytest.approx(2500.0)

    def test_factor_rank_two_after_linearisation(self):
        graph = build(synthesize(3, 20, seed=1))
        eigs = np.linalg.eigvalsh(graph.factor_information(slice(None))[1])
        assert np.all(eigs[:, -3] < 1e-9 * np.maximum(eigs[:, -1], 1.0))
        assert graph.validate() == {"belief_not_psd": 0, "factor_rank": 0, "asymmetry": 0}

    def test_factor_rank_tolerance_follows_the_dtype(self, monkeypatch):
        # float32 rounding leaves a fresh factor's third eigenvalue at up to
        # 0.53 eps of its largest, which a float32 graph does not flag; a
        # float64 graph still flags anything above 1e-9 of it
        clean = {"belief_not_psd": 0, "factor_rank": 0, "asymmetry": 0}
        problem = perturb(synthesize(8, 200, seed=3, pixel_sigma=1), 0.05, "backproject", seed=3)
        graph = build(problem)
        assert graph.astype(np.float32).validate() == graph.validate() == clean
        n = graph.n_measurement_factors
        for ratio, flagged in ((5e-10, (0, 0)), (1e-8, (n, 0)), (1e-6, (n, n))):
            # every factor's information diag(0, ..., 0, 10 ratio, 10, 10)
            diag = np.zeros(9)
            diag[6:] = 10 * ratio, 10, 10
            monkeypatch.setattr(
                type(graph), "factor_information",
                lambda self, idx: (None, np.broadcast_to(np.diag(diag).astype(self.dtype), (len(idx), 9, 9))),
            )
            got = tuple(g.validate()["factor_rank"] for g in (graph, graph.astype(np.float32)))
            assert got == flagged, ratio
            monkeypatch.undo()

    def test_messages_start_at_zero_information(self):
        graph = build(synthesize(3, 20, seed=1))
        assert not graph.f_msg.any()


class TestPriors:
    def test_single_factor_prior_matches_information_diag(self):
        prob = synthesize(2, 12, seed=3, pixel_sigma=0.0)
        graph = build(prob)
        # landmark observed exactly twice: prior diag == summed J' Sigma^-1 J diag
        jac = jacobian_many(graph.f_lin[:, :6], graph.f_lin[:, 6:], graph.intrinsics)[2]
        for j in range(graph.n_landmarks):
            rows = np.flatnonzero(graph.f_lm == j)
            expect = np.zeros(3)
            for m in rows:
                block = jac[m][:, 6:].T @ jac[m][:, 6:] / graph.f_sigma[m] ** 2
                expect += np.diag(block)
            np.testing.assert_allclose(graph.lm_prior_diag0[j], expect, rtol=1e-12)

    def test_keyframe_prior_matches_information_diag(self):
        prob = synthesize(2, 12, seed=3, pixel_sigma=0.0)
        graph = build(prob)
        jac = jacobian_many(graph.f_lin[:, :6], graph.f_lin[:, 6:], graph.intrinsics)[2]
        for i in range(graph.n_keyframes):
            rows = np.flatnonzero(graph.f_kf == i)
            expect = np.zeros(6)
            for m in rows:
                block = jac[m][:, :6].T @ jac[m][:, :6] / graph.f_sigma[m] ** 2
                expect += np.diag(block)
            np.testing.assert_allclose(graph.kf_prior_diag0[i], expect, rtol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_priors_sum_squared_columns_in_ascending_order(self, dtype):
        # each prior entry sums its factors' squared Jacobian column over
        # sigma^2 in ascending factor order in float64: np.add.at's bits
        graph = build(synthesize(6, 400, seed=5)).astype(dtype)
        graph.refresh_priors()  # every variable was born in iteration 0
        colsq = np.sum(graph.f_jac ** 2, axis=1) / graph.f_sigma[:, None] ** 2
        for kind in KINDS:
            want = np.zeros((graph.size(kind), kind.dim))
            np.add.at(want, graph.adjacent(kind), colsq[:, kind.cols].astype(float))
            want = want.astype(dtype)
            want = np.maximum(want, PRIOR_FLOOR_RTOL * want.max(axis=1, keepdims=True))
            assert not graph.var(kind, "prior_fallback").any()
            np.testing.assert_array_equal(graph.var(kind, "prior_diag0"), want, err_msg=kind.name)

    def test_unobserved_variable_gets_unit_fallback(self):
        prob = ProblemSpec(
            kf_init=np.zeros((1, 6)),
            lm_init=np.array([[0, 0, 1.0], [5.0, 5.0, 5.0]]),
            meas_kf=[0],
            meas_lm=[0],
            meas_uv=[[0.0, 0.0]],
            meas_sigma=[1.0],
        )
        graph = build(prob)
        assert graph.lm_prior_fallback[1]
        np.testing.assert_array_equal(graph.lm_prior_diag0[1], np.ones(3))
        np.testing.assert_array_equal(graph.lm_prior_mean[1], [5.0, 5.0, 5.0])

    def test_unobserved_landmark_flagged_once_across_additions(self):
        prob = ProblemSpec(
            kf_init=np.zeros((1, 6)),
            lm_init=np.array([[0, 0, 1.0], [5.0, 5.0, 5.0]]),
            meas_kf=[0],
            meas_lm=[0],
            meas_uv=[[0.0, 0.0]],
            meas_sigma=[1.0],
        )
        graph = build(prob)
        assert graph.lm_prior_fallback.sum() == 1
        # both calls fall in the build's iteration and regenerate every prior
        graph.add_measurement(0, 0, np.array([0.1, 0.0]))
        graph.add_measurement(0, 0, np.array([0.0, 0.1]))
        assert graph.iteration == 0
        assert graph.lm_prior_fallback.sum() == 1 and graph.lm_prior_fallback[1]
        assert not graph.kf_prior_fallback.any()

    def test_prior_mean_fixed_under_weakening(self):
        from gbp_ba.engine import run

        graph = build(synthesize(3, 20, seed=5))
        mean_before = graph.kf_prior_mean.copy()
        run(graph, ScheduleParams(max_iters=30), n=15)
        np.testing.assert_array_equal(graph.kf_prior_mean, mean_before)
        # current prior eta / diag still encode the same mean
        eta, diag = graph.prior_information(KEYFRAME)
        np.testing.assert_allclose(eta / diag, mean_before, rtol=1e-12)

    def test_weakening_schedule(self):
        from gbp_ba.engine import iterate

        graph = build(synthesize(2, 15, seed=6))
        scales = []
        for _ in range(14):
            rep = iterate(graph, ScheduleParams(prior_floor=0.01))
            scales.append(rep.prior_scale)
        expect = [0.01 ** (min(t, 10) / 10) for t in range(14)]
        np.testing.assert_allclose(scales, expect, rtol=1e-12)
        # weakened to exactly 1/100 from iteration 10 onward, monotone before
        assert scales[10] == scales[11] == scales[13] == pytest.approx(0.01)
        assert all(scales[i + 1] <= scales[i] for i in range(13))

    def test_regenerate_uses_current_linearisation(self):
        graph = build(synthesize(3, 20, seed=7))
        diag_before = graph.lm_prior_diag0.copy()
        graph.refresh_priors()  # every variable and factor was born in this iteration
        np.testing.assert_array_equal(graph.lm_prior_diag0, diag_before)

    def test_factors_never_linearised_add_nothing(self):
        # keyframe 0 moved 5 m past the scene, and landmark 0 behind every
        # camera: each measurement of either is behind its camera at build,
        # so it is never linearised.  Both variables get the flagged unit
        # fallback prior, as if they had no measurements, their factors add
        # nothing to the dense system, and validate() reports nothing
        problem = synthesize(4, 30, seed=21, pixel_sigma=0.5, trajectory="line")
        center = camera_center(problem.kf_init[0]) + [0.0, 0.0, 5.0]
        problem.kf_init[0, 3:] = -rotation_matrix(problem.kf_init[0, :3]) @ center
        problem.lm_init[0] = [0.0, 0.0, -2.0]
        graph = build(problem)
        dead = (problem.meas_kf == 0) | (problem.meas_lm == 0)
        depth = graph.residuals()[1]
        assert np.all(depth[dead] <= DEPTH_EPSILON) and np.all(depth[~dead] > DEPTH_EPSILON)
        for kind in KINDS:
            assert graph.var(kind, "prior_fallback").tolist() == [True] + [False] * (graph.size(kind) - 1)
            np.testing.assert_array_equal(graph.var(kind, "prior_diag0")[0], np.ones(kind.dim))
        alive = dataclasses.replace(problem, **{
            name: getattr(problem, name)[~dead] for name in ("meas_kf", "meas_lm", "meas_uv", "meas_sigma")
        })
        want, got = assemble(build(alive)), assemble(graph)
        np.testing.assert_array_equal(got.eta, want.eta)
        np.testing.assert_array_equal(got.lam, want.lam)
        assert got.const == pytest.approx(want.const, rel=1e-14)
        clean = {"belief_not_psd": 0, "factor_rank": 0, "asymmetry": 0}
        assert graph.validate() == clean
        run(graph, ScheduleParams(), n=11)  # relinearises at round 10
        assert graph.validate() == clean


class TestEnergyAndAre:
    def test_zero_at_prior_means_with_zero_residuals(self):
        prob = synthesize(3, 20, seed=8, pixel_sigma=0.0)
        graph = build(prob)  # states at ground truth, priors centred there
        assert graph.energy() < 1e-9
        assert graph.average_reprojection_error() < 1e-9

    def test_single_measurement_quadratic_term(self):
        sigma = 0.5
        prob = one_factor_problem(z=(0.3, -0.4), sigma=sigma)
        graph = build(prob)
        r2 = 0.3**2 + 0.4**2
        np.testing.assert_allclose(graph.energy(), r2 / sigma**2, rtol=1e-12)

    def test_huber_modified_term(self):
        # residual 5 px at sigma 1 -> mahalanobis 5 > 2: linear contribution
        prob = one_factor_problem(z=(3.0, 4.0), sigma=1.0)
        graph = build(prob)
        np.testing.assert_allclose(graph.energy(), 2 * 2.0 * 5.0 - 4.0, rtol=1e-12)
        np.testing.assert_allclose(graph.energy(), huber_energy(5.0, 2.0), rtol=1e-12)

    def test_matches_dense_quadratic_form(self):
        # freshly built graph: quadratic form of the assembled system at the
        # linearisation point equals the graph energy of the linearised model
        prob = perturb(synthesize(4, 30, seed=9, pixel_sigma=0.7), 0.03, "backproject", seed=10)
        graph = build(prob)
        system = assemble(graph)
        np.testing.assert_allclose(
            system.quadratic_form(stack_states(graph)),
            graph.energy(),
            rtol=1e-10,
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_assembled_information_is_exactly_symmetric(self, dtype):
        # assemble scatters each factor's w J'J, symmetric entry for entry,
        # in one order, so lam needs no symmetrising: Huber weights below 1
        # and a relinearisation round included
        problem = inject_outliers(
            perturb(synthesize(3, 20, seed=19, pixel_sigma=0.5), 0.05, "backproject", seed=20),
            0.1, "reassign", seed=21,
        )
        graph = build(problem).astype(dtype)
        run(graph, ScheduleParams(), n=11)  # relinearised at round 10
        assert np.any(graph.f_weight < 1.0)
        lam = assemble(graph).lam
        assert np.array_equal(lam, lam.T)

    def test_are_offset_hypot(self):
        prob = one_factor_problem(z=(3.0, 4.0))
        graph = build(prob)
        np.testing.assert_allclose(graph.average_reprojection_error(), 5.0, rtol=1e-14)

    def test_read_only(self):
        graph = build(synthesize(3, 20, seed=11, pixel_sigma=0.5))
        before = {
            k: v.copy() for k, v in vars(graph).items() if isinstance(v, np.ndarray)
        }
        graph.energy()
        graph.average_reprojection_error()
        graph.classify_outliers()
        for k, v in before.items():
            np.testing.assert_array_equal(getattr(graph, k), v, err_msg=k)

    def test_behind_camera_sentinel(self):
        prob = one_factor_problem()
        graph = build(prob)
        graph.lm_state = np.array([[0.0, 0.0, -1.0]])  # shove landmark behind
        assert graph.average_reprojection_error() == pytest.approx(1e6)

    def test_behind_camera_counted_per_round(self):
        prob = one_factor_problem()
        prob.lm_init = np.array([[0.0, 0.0, -1.0]])
        graph = build(prob)
        assert not graph.f_jac[0].any()  # never linearised, so never moves
        reports = run(graph, ScheduleParams(), n=12)
        assert [r.n_behind_camera for r in reports] == [1] * 12
        assert [r.are for r in reports] == [pytest.approx(1e6)] * 12
        assert not graph.f_jac[0].any()
        normal = run(build(synthesize(3, 20, seed=11, pixel_sigma=0.5)), ScheduleParams(), n=3)
        assert [r.n_behind_camera for r in normal] == [0] * 3

    def test_behind_camera_energy_uses_linearisation_residual(self):
        from gbp_ba.engine import run

        graph = build(perturb(synthesize(4, 30, seed=21, pixel_sigma=0.5), 0.05, "backproject", seed=22))
        run(graph, ScheduleParams(), n=3)
        assert graph.f_jac.any(axis=(1, 2)).all()
        # mirror 5 landmarks through the centre of a camera that sees each
        for j in range(5):
            kf = graph.f_kf[np.flatnonzero(graph.f_lm == j)[0]]
            graph.lm_state[j] = 2.0 * camera_center(graph.kf_state[kf]) - graph.lm_state[j]
        residual, depth = graph.residuals()
        behind = depth <= DEPTH_EPSILON
        assert behind.sum() >= 5 and np.all(graph.f_lm[behind] < 5)

        # behind-camera rows keep the residual at their linearisation point
        uv_lin, _ = project_many(graph.f_lin[:, :6], graph.f_lin[:, 6:], graph.intrinsics)
        residual = np.where(behind[:, None], graph.f_z - uv_lin, residual)
        mahal = np.linalg.norm(residual, axis=1) / graph.f_sigma
        want = np.sum(huber_energy(mahal, graph.huber_nsigma))
        for prefix in ("kf_", "lm_"):
            diag = getattr(graph, prefix + "prior_scale")[:, None] * getattr(graph, prefix + "prior_diag0")
            delta = getattr(graph, prefix + "state") - getattr(graph, prefix + "prior_mean")
            want += np.sum(diag * delta**2)
        assert graph.energy() == pytest.approx(want, rel=1e-12)


class TestIncrementalMutation:
    def test_add_keyframe_copies_latest_pose(self):
        graph = build(synthesize(3, 15, seed=13))
        latest = graph.kf_state[-1].copy()
        new_id = graph.add_keyframe()
        assert new_id == 3
        np.testing.assert_array_equal(graph.kf_state[new_id], latest)

    def test_add_measurement_adds_one_factor_with_zero_messages(self):
        graph = build(synthesize(3, 15, seed=13))
        n_before = graph.n_measurement_factors
        fid = graph.add_measurement(0, 1, np.array([320.0, 240.0]), sigma=1.0)
        assert graph.n_measurement_factors == n_before + 1
        for kind in KINDS:
            s, v = graph.message(kind)
            assert not s[fid].any() and not v[fid].any()

    def test_duplicate_measurement_allowed_and_flagged(self):
        graph = build(synthesize(3, 15, seed=13))
        kf, lm = int(graph.f_kf[0]), int(graph.f_lm[0])
        before = graph.n_duplicate_measurements
        graph.add_measurement(kf, lm, graph.f_z[0])
        assert graph.n_duplicate_measurements == before + 1

    def test_duplicate_count_over_existing_and_new_pairs(self):
        prob = synthesize(3, 15, seed=13)
        rows = np.concatenate([np.arange(prob.n_measurements), [0, 0, 4]])
        prob = ProblemSpec(
            intrinsics=prob.intrinsics, kf_init=prob.kf_init, lm_init=prob.lm_init,
            meas_kf=prob.meas_kf[rows], meas_lm=prob.meas_lm[rows],
            meas_uv=prob.meas_uv[rows], meas_sigma=prob.meas_sigma[rows],
        )
        graph = build(prob)
        distinct = len(set(zip(prob.meas_kf.tolist(), prob.meas_lm.tolist())))
        assert distinct == prob.n_measurements - 3
        assert graph.n_duplicate_measurements == prob.n_measurements - distinct

        # one repeat of an existing pair, one new pair given three times
        lm = graph.add_landmark(np.array([0.0, 0.0, 1.2]))
        kf_ids = np.array([graph.f_kf[7], 1, 1, 1, 2])
        lm_ids = np.array([graph.f_lm[7], lm, lm, lm, lm])
        graph.add_measurements(kf_ids, lm_ids, np.full((5, 2), 300.0), np.ones(5))
        assert graph.n_duplicate_measurements == 3 + 1 + 2
        # zero keys: nothing to count
        graph.add_measurements([], [], np.zeros((0, 2)), [])
        assert graph.n_duplicate_measurements == 6
        empty = build(ProblemSpec(kf_init=np.zeros((1, 6)), lm_init=np.ones((1, 3))))
        assert empty.n_duplicate_measurements == 0

    def test_dangling_id_raises(self):
        graph = build(synthesize(3, 15, seed=13))
        with pytest.raises(BuildError, match="keyframe 99"):
            graph.add_measurement(99, 0, np.zeros(2))
        with pytest.raises(BuildError, match="landmark 99"):
            graph.add_measurement(0, 99, np.zeros(2))

    @pytest.mark.parametrize(
        "kf_ids, lm_ids, message, zs, sigmas",
        [([0.7], [1.9], "measurement 0 has a non-integral keyframe id 0.7", None, None),
         ([0, 1], [2, 1.5], "measurement 1 has a non-integral landmark id 1.5", None, None),
         ([np.nan], [0], "non-integral keyframe id nan", None, None),
         # bools and strings, which numpy reads as numbers: True stored
         # keyframe 1 and False landmark 0
         ([True], [False], "keyframe id must be numbers, not bool", None, None),
         ([1], [False], "landmark id must be numbers, not bool", None, None),
         (["1"], [0], "keyframe id must be numbers, not <U1", None, None),
         ([1], [0], "z must be numbers, not <U3", [["300", "200"]], None),
         ([1], [0], "sigma must be numbers, not <U1", None, ["1"]),
         ([1], [0], "sigma must be numbers, not bool", None, [True])],
    )
    def test_fractional_id_raises_and_leaves_graph(self, kf_ids, lm_ids, message, zs, sigmas):
        graph = build(synthesize(3, 15, seed=13))
        before = graph.copy()
        zs = np.full((len(kf_ids), 2), 300.0) if zs is None else zs
        sigmas = np.ones(len(kf_ids)) if sigmas is None else sigmas
        with pytest.raises(BuildError, match=message):
            graph.add_measurements(kf_ids, lm_ids, zs, sigmas)
        for name, value in vars(before).items():
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(getattr(graph, name), value, err_msg=name)

    @pytest.mark.parametrize(
        "kf_ids, lm_ids, n_z, n_sigma",
        [([0, 1], [0], 1, 1), ([0], [0], 2, 2), ([0], [0], 1, 2)],
    )
    def test_mismatched_lengths_raise_and_leave_graph(self, kf_ids, lm_ids, n_z, n_sigma):
        # one id against two measurements would otherwise be broadcast, and
        # a sigma too many would fail with the first columns already grown
        graph = build(synthesize(3, 15, seed=13))
        before = graph.copy()
        with pytest.raises(BuildError, match="differ in length"):
            graph.add_measurements(kf_ids, lm_ids, np.full((n_z, 2), 300.0), np.ones(n_sigma))
        for name, value in vars(before).items():
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(getattr(graph, name), value, err_msg=name)

    @pytest.mark.parametrize(
        "z, sigma", [((0.0, 0.0), 0.0), ((0.0, 0.0), -1.0), ((0.0, 0.0), np.inf), ((np.nan, 0.0), 1.0)]
    )
    def test_degenerate_measurement_raises_and_leaves_graph(self, z, sigma):
        graph = build(synthesize(3, 15, seed=13))
        before = graph.copy()
        with pytest.raises(BuildError, match="measurement 0"):
            graph.add_measurement(0, 0, np.array(z), sigma=sigma)
        for name, value in vars(before).items():
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(getattr(graph, name), value, err_msg=name)

    @pytest.mark.parametrize(
        "add, state, message",
        [
            ("add_landmark", [np.nan, 0.0, 2.0], "landmark 15"),
            ("add_landmark", [0.0, np.inf, 2.0], "landmark 15"),
            ("add_keyframe", [0.0, 0.0, 0.0, 0.0, -np.inf, 0.0], "keyframe 3"),
            ("add_keyframe", [np.nan] * 6, "keyframe 3"),
            ("add_keyframe", np.zeros(5), r"keyframe 3 takes a state of size 6, got shape \(5,\)"),
            ("add_keyframe", np.zeros((2, 3)), r"keyframe 3 takes a state of size 6, got shape \(2, 3\)"),
            ("add_landmark", np.zeros(2), r"landmark 15 takes a state of size 3, got shape \(2,\)"),
            ("add_landmark", np.ones((3, 1)), r"landmark 15 takes a state of size 3, got shape \(3, 1\)"),
            # numpy reads bools as numbers, and fails on strings in isfinite
            ("add_keyframe", [True] * 6, "keyframe 3 state must be numbers, not bool"),
            ("add_keyframe", ["0"] * 6, "keyframe 3 state must be numbers, not <U1"),
            ("add_landmark", np.array([0.0, None, 2.0], dtype=object), "landmark 15 state must be numbers, not object"),
        ],
    )
    def test_non_finite_state_raises_and_leaves_graph(self, add, state, message):
        graph = build(synthesize(3, 15, seed=13))
        assert (graph.n_keyframes, graph.n_landmarks) == (3, 15)
        before = graph.copy()
        with pytest.raises(BuildError, match=message):
            getattr(graph, add)(np.array(state))
        assert (graph.n_keyframes, graph.n_landmarks) == (3, 15)
        for name, value in vars(before).items():
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(getattr(graph, name), value, err_msg=name)

    @pytest.mark.parametrize(
        "zs",
        [
            [[300.0, 310.0, 320.0], [200.0, 210.0, 220.0]],  # a u row and a v row
            [300.0, 200.0, 310.0, 210.0, 320.0, 220.0],
            np.full((3, 2, 1), 300.0),
        ],
    )
    def test_pixels_not_in_rows_of_two_raise_and_leave_graph(self, zs):
        graph = build(synthesize(3, 15, seed=13))
        before = graph.copy()
        with pytest.raises(BuildError, match=r"shape \(n, 2\)"):
            graph.add_measurements([0, 1, 2], [0, 1, 2], zs, np.ones(3))
        assert_graph_equal(graph, before)

    @pytest.mark.parametrize("z", [np.zeros(1), np.zeros(3), np.zeros((2, 2))])
    def test_one_measurement_takes_one_pixel_pair(self, z):
        graph = build(synthesize(3, 15, seed=13))
        before = graph.copy()
        with pytest.raises(BuildError, match=r"one \(u, v\) pair"):
            graph.add_measurement(0, 0, z)
        assert_graph_equal(graph, before)

    def test_existing_state_untouched_by_addition(self):
        graph = build(synthesize(3, 15, seed=13))
        from gbp_ba.engine import run

        run(graph, ScheduleParams(), n=12)
        beliefs = graph.kf_belief_eta.copy()
        msgs = graph.f_msg.copy()
        lins = graph.f_lin.copy()
        it = graph.iteration
        fields = ("state", "prior_mean", "prior_diag0", "prior_scale")
        older = {
            kind: {name: getattr(graph, kind + name).copy() for name in fields}
            for kind in ("kf_", "lm_")
        }
        kf = graph.add_keyframe()
        lm = graph.add_landmark(np.array([0.0, 0.0, 1.2]))
        graph.add_measurement(kf, lm, np.array([320.0, 240.0]))
        np.testing.assert_array_equal(graph.kf_belief_eta[:3], beliefs)
        np.testing.assert_array_equal(graph.f_msg[: msgs.shape[0]], msgs)
        np.testing.assert_array_equal(graph.f_lin[: lins.shape[0]], lins)
        assert graph.iteration == it  # no reset
        # older variables' prior means are re-anchored at their states at the
        # call, which the solve has moved; prior strengths stay as they were
        for kind, before in older.items():
            n = before["state"].shape[0]
            after = {name: getattr(graph, kind + name)[:n] for name in fields}
            assert not np.array_equal(before["prior_mean"], before["state"]), kind
            np.testing.assert_array_equal(after["prior_mean"], before["state"])
            np.testing.assert_array_equal(after["prior_diag0"], before["prior_diag0"])
            np.testing.assert_array_equal(after["prior_scale"], before["prior_scale"])

    def test_new_variable_prior_from_adjacent_factors(self):
        graph = build(synthesize(3, 15, seed=13))
        lm_id = graph.add_landmark(np.array([0.0, 0.0, 1.2]))
        assert graph.lm_prior_fallback[lm_id]  # nothing adjacent yet
        uv, _ = __import__("gbp_ba").camera.project_many(
            graph.kf_state[0][None], graph.lm_state[lm_id][None], graph.intrinsics
        )
        graph.add_measurement(0, lm_id, uv[0])
        assert not graph.lm_prior_fallback[lm_id]
        jac = jacobian_many(graph.f_lin[-1:, :6], graph.f_lin[-1:, 6:], graph.intrinsics)[2][0]
        expect = np.diag(jac[:, 6:].T @ jac[:, 6:])
        np.testing.assert_allclose(graph.lm_prior_diag0[lm_id], expect, rtol=1e-12)

    def test_new_keyframe_prior_does_not_depend_on_how_its_measurements_arrive(self):
        # two add_measurements calls in one iteration give a new keyframe the
        # prior, and the graph, of one call with both batches
        graph = build(synthesize(3, 15, seed=13))
        run(graph, ScheduleParams(), n=5)
        kf = graph.add_keyframe()
        seen = np.unique(graph.f_lm[graph.f_kf == kf - 1])
        uv, _ = project_many(
            np.repeat(graph.kf_state[kf][None], seen.size, 0), graph.lm_state[seen], graph.intrinsics
        )
        split, whole = graph.copy(), graph.copy()
        for part in (slice(0, 4), slice(4, None)):
            ids = seen[part]
            split.add_measurements(np.full(ids.size, kf), ids, uv[part], np.ones(ids.size))
        whole.add_measurements(np.full(seen.size, kf), seen, uv, np.ones(seen.size))
        assert seen.size > 4 and not whole.kf_prior_fallback[kf]
        assert not np.array_equal(whole.kf_prior_diag0[kf], graph.kf_prior_diag0[kf])
        for name, value in vars(whole).items():
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(getattr(split, name), value, err_msg=name)

    def test_incremental_beats_cold_restart_on_same_graph(self):
        prob = perturb(synthesize(6, 60, seed=14, pixel_sigma=0.5), 0.05, "backproject", seed=15)
        graph = build(prob)
        solve(graph, ScheduleParams(max_iters=400))
        # drop in one more keyframe observing existing landmarks
        new_kf = graph.add_keyframe()
        seen = np.unique(graph.f_lm[graph.f_kf == graph.n_keyframes - 2])[:12]
        uv, _ = project_many(
            np.repeat(graph.kf_state[new_kf][None], seen.size, 0),
            graph.lm_state[seen],
            graph.intrinsics,
        )
        graph.add_measurements(np.full(seen.size, new_kf), seen, uv, np.ones(seen.size))
        # the first solve stopped under the default 1.5 px and the exact new
        # projections lower the ARE further, so only stricter targets make
        # either solve iterate
        for target in (1.0, 0.8):
            sched = ScheduleParams(max_iters=400, are_target=target)
            warm = solve(graph.copy(), sched)
            cold = solve(graph.cold_restart(), sched)
            assert warm.iterations > 0 and cold.iterations > 0, target
            assert warm.converged, target
            assert warm.iterations < cold.iterations, target
            assert warm.final_are <= cold.final_are, target
        # an unreachable target: a fixed budget, compared by where it ends
        sched = ScheduleParams(max_iters=200, are_target=0.5)
        warm = solve(graph.copy(), sched)
        cold = solve(graph.cold_restart(), sched)
        assert warm.iterations > 0 and cold.iterations > 0
        assert warm.final_are <= cold.final_are

    def test_copy_independent(self):
        graph = build(synthesize(3, 15, seed=16))
        clone = graph.copy()
        clone.kf_state += 1.0
        assert not np.allclose(graph.kf_state, clone.kf_state)


def float_dtypes(graph):
    return {
        name: value.dtype
        for name, value in vars(graph).items()
        if isinstance(value, np.ndarray) and np.issubdtype(value.dtype, np.floating)
    }


def grow(graph):
    """Add a keyframe and a landmark seen by it and by keyframe 0."""
    kf = graph.add_keyframe()
    lm = graph.add_landmark(graph.lm_state[0] + [0.05, 0.0, 0.0])
    kf_ids, lm_ids = np.array([kf, kf, 0]), np.array([0, lm, lm])
    uv, _ = project_many(graph.kf_state[kf_ids], graph.lm_state[lm_ids], graph.intrinsics)
    graph.add_measurements(kf_ids, lm_ids, uv, np.ones(3))


def test_float32_mode():
    graph = build(synthesize(3, 20, seed=17, pixel_sigma=0.5)).astype(np.float32)
    assert graph.kf_state.dtype == np.float32
    from gbp_ba.engine import run

    run(graph, ScheduleParams(), n=5)
    assert graph.kf_belief_eta.dtype == np.float32
    assert np.isfinite(graph.average_reprojection_error())
    # growing and solving on keeps every float array in float32
    grow(graph)
    run(graph, ScheduleParams(), n=5)
    upcast = {name: dt for name, dt in float_dtypes(graph).items() if dt != np.float32}
    assert not upcast
    assert np.isfinite(graph.average_reprojection_error())


@pytest.mark.parametrize("dtype", [np.int32, np.complex128, np.float16, bool, np.float32, np.float64])
def test_astype_takes_float32_or_wider_real_floats(dtype):
    # an int32 graph failed in its first round with a TypeError of a cast,
    # a complex128 one with a UFuncTypeError, and a float16 one overflowed
    # its priors and ran to ARE NaN after 3 rounds
    graph = build(synthesize(3, 20, seed=17, pixel_sigma=0.5))
    if dtype in (np.float32, np.float64):
        assert graph.astype(dtype).dtype == dtype
        return
    with pytest.raises(TypeError, match="float32 or a wider real float"):
        graph.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_cold_restart_keeps_the_float_dtype(dtype):
    graph = build(synthesize(3, 20, seed=17, pixel_sigma=0.5)).astype(dtype)
    run(graph, ScheduleParams(), n=5)
    cold = graph.cold_restart()
    assert cold.dtype == dtype
    assert set(float_dtypes(cold).values()) == {np.dtype(dtype)}
    np.testing.assert_array_equal(cold.kf_state, graph.kf_state)
    np.testing.assert_array_equal(cold.lm_state, graph.lm_state)


def test_float32_graph_evaluates_in_float32():
    graph = build(synthesize(3, 20, seed=17, pixel_sigma=0.5)).astype(np.float32)
    residual, depth = graph.residuals()
    assert residual.dtype == np.float32 and depth.dtype == np.float32
    uv, depth, jac = jacobian_many(graph.f_lin[:, :6], graph.f_lin[:, 6:], graph.intrinsics)
    assert uv.dtype == depth.dtype == jac.dtype == np.float32


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_per_keyframe_camera_terms_match_per_row_calls(dtype):
    # residuals() and linearize_factors() compute each keyframe's rotation
    # and left Jacobian once and gather them by factor; every row must be
    # what the per-row camera functions give, in the graph's dtype
    problem = perturb(synthesize(4, 30, seed=21, pixel_sigma=0.5), 0.05, "backproject", seed=22)
    graph = build(problem).astype(dtype)
    run(graph, ScheduleParams(), n=3)
    assert np.all(np.linalg.norm(graph.kf_state[:, :3], axis=1) > 0)
    residual, depth = graph.residuals()
    uv, want_depth = project_many(graph.kf_state[graph.f_kf], graph.lm_state[graph.f_lm], graph.intrinsics)
    assert residual.dtype == dtype and depth.dtype == dtype
    np.testing.assert_array_equal(residual, graph.f_z - uv)
    np.testing.assert_array_equal(depth, want_depth)
    idx = np.arange(1, graph.n_measurement_factors, 3)
    assert graph.linearize_factors(idx).all()
    assert not np.array_equal(graph.f_lin[idx], build(problem).astype(dtype).f_lin[idx])
    want = jacobian_many(graph.f_lin[idx, :6], graph.f_lin[idx, 6:], graph.intrinsics)[2]
    assert graph.f_jac.dtype == dtype and want.dtype == dtype
    np.testing.assert_array_equal(graph.f_jac[idx], want)


def test_linearize_factors_does_not_depend_on_the_order_of_idx():
    # rows given out of order, or twice, land in their own rows: a block
    # whose first and last rows span its size is not contiguous for that
    problem = perturb(synthesize(4, 30, seed=21, pixel_sigma=0.5), 0.05, "backproject", seed=22)
    graphs = [build(problem) for _ in range(2)]
    for graph in graphs:
        run(graph, ScheduleParams(), n=3)
    n = graphs[0].n_measurement_factors
    shuffled = np.concatenate([[0], np.random.default_rng(5).permutation(np.arange(1, n - 2)), [1, n - 1]])
    idx = np.unique(shuffled)
    ok = graphs[0].linearize_factors(idx)
    np.testing.assert_array_equal(graphs[1].linearize_factors(shuffled), ok[np.searchsorted(idx, shuffled)])
    for field in FACTOR_FIELDS:
        name = f"f_{field.name}"
        np.testing.assert_array_equal(getattr(graphs[1], name), getattr(graphs[0], name), err_msg=name)


@pytest.mark.parametrize("idx, error", [
    (np.arange(120) == 1, TypeError), ([5.7], TypeError), (np.array([1.0, 2.0]), TypeError),
    ([-1], IndexError), ([3, 120], IndexError),
])
def test_linearize_factors_rejects_masks_and_rows_out_of_range(idx, error):
    # read as integer rows, a mask with one True relinearised row 0 for
    # every False and row 1 once, 5.7 relinearised row 5, and row -1 was
    # reported relinearised while its write, through the slice -1:0, missed
    graph = build(perturb(synthesize(4, 30, seed=21, pixel_sigma=0.5), 0.05, "backproject", seed=22))
    run(graph, ScheduleParams(), n=3)
    before = graph.copy()
    with pytest.raises(error, match="factor rows"):
        graph.linearize_factors(idx)
    for field in FACTOR_FIELDS:
        name = f"f_{field.name}"
        np.testing.assert_array_equal(getattr(graph, name), getattr(before, name), err_msg=name)
    assert graph.linearize_factors(np.array([], dtype=int)).size == 0


def test_huber_keeps_dtype_and_disables_at_infinite_threshold():
    mahal = np.array([0.0, 1.0, 2.0, 3.0, 50.0], np.float32)
    assert huber_weight(mahal, 2.0).dtype == np.float32
    assert huber_energy(mahal, 2.0).dtype == np.float32
    np.testing.assert_allclose(huber_weight(mahal, 2.0), [1, 1, 1, 8 / 9, 0.0784], rtol=1e-6)
    with np.errstate(all="raise"):
        np.testing.assert_array_equal(huber_weight(mahal, np.inf), np.ones(5))
        np.testing.assert_array_equal(huber_energy(mahal, np.inf), mahal**2)
    assert huber_weight(5.0, 2.0) == pytest.approx(0.64)


class TestSchema:
    """Every array follows the schema tables, whatever made the graph."""

    def check(self, graph):
        arrays = {k: v for k, v in vars(graph).items() if isinstance(v, np.ndarray)}
        schema = {prefix + f.name for prefix, (fields, _) in TABLES.items() for f in fields}
        assert set(arrays) == schema
        rows = {"f_": graph.n_measurement_factors, "kf_": graph.n_keyframes, "lm_": graph.n_landmarks}
        for name, value in arrays.items():
            assert value.shape[0] == rows[name[: name.index("_") + 1]], name
        assert set(float_dtypes(graph).values()) == {graph.dtype}
        # nothing but the arrays and these: no lifetime tallies
        others = {k for k, v in vars(graph).items() if not isinstance(v, np.ndarray)}
        assert others == {"intrinsics", "huber_nsigma", "iteration", "dtype"}

    def test_build_add_copy_astype(self):
        from gbp_ba.engine import run

        graph = build(synthesize(3, 20, seed=18, pixel_sigma=0.5))
        self.check(graph)
        run(graph, ScheduleParams(), n=3)
        graph.add_keyframe()
        self.check(graph)
        graph.add_landmark(np.array([0.0, 0.0, 1.2]))
        self.check(graph)
        grow(graph)
        self.check(graph)
        for clone in (graph.copy(), graph.astype(np.float32)):
            self.check(clone)
            for name, value in vars(graph).items():
                if isinstance(value, np.ndarray):
                    copied = getattr(clone, name)
                    assert not np.shares_memory(value, copied), name
                    np.testing.assert_array_equal(copied, value.astype(copied.dtype), err_msg=name)
        assert graph.astype(np.float32).dtype == np.float32

    def test_arrays_are_stored_node_last(self):
        # each array is the (n, ...) view of a contiguous (..., n) base, so
        # the engine's component-major views of it are copy-free
        from gbp_ba.engine import run

        def check_layout(graph):
            for name, value in vars(graph).items():
                if isinstance(value, np.ndarray):
                    assert value.strides[0] == value.itemsize, name
                    assert np.moveaxis(value, 0, -1).flags.c_contiguous, name

        graph = build(synthesize(3, 20, seed=18, pixel_sigma=0.5))
        check_layout(graph)
        grow(graph)
        check_layout(graph)
        run(graph, ScheduleParams(), n=3)
        check_layout(graph)
        check_layout(graph.copy())
        check_layout(graph.astype(np.float32))

    def test_each_table_is_one_block(self):
        # a table's arrays are views of one allocation, so a large graph's
        # storage is mapped on its own, apart from the heap of temporaries
        def check_blocks(graph):
            for prefix, (fields, _) in TABLES.items():
                owners = {id(getattr(graph, prefix + f.name).base) for f in fields}
                assert len(owners) == 1, prefix
                block = getattr(graph, prefix + fields[0].name).base
                assert block.flags.owndata and block.nbytes % 64 == 0, prefix

        graph = build(synthesize(3, 20, seed=18, pixel_sigma=0.5))
        check_blocks(graph)
        grow(graph)
        check_blocks(graph)
        check_blocks(graph.copy())
        check_blocks(graph.astype(np.float32))

    @pytest.mark.skipif(not hasattr(mmap, "MADV_HUGEPAGE"), reason="no huge-page advice on this platform")
    def test_large_table_blocks_are_mapped_on_their_own(self, monkeypatch):
        # from MAPPED_BLOCK_BYTES on, a table's block is an anonymous mapping
        # of its own, never heap among the freed blocks of earlier graphs;
        # the graph runs as one whose blocks all come from numpy
        problem = perturb(synthesize(4, 100, seed=18, pixel_sigma=0.5), 0.05, "backproject", seed=19)
        want = build(problem)
        # every factor block, float32 too, but no variable block
        monkeypatch.setattr(factor_graph, "MAPPED_BLOCK_BYTES", want.f_z.base.nbytes // 2)
        graph = build(problem)

        def owner(array):  # what holds the array's memory: None for numpy's own
            base = array.base
            while isinstance(base, (np.ndarray, memoryview)):
                base = base.base if isinstance(base, np.ndarray) else base.obj
            return base

        for g in (graph, graph.copy(), graph.astype(np.float32)):
            assert isinstance(owner(g.f_z), mmap.mmap) and owner(g.kf_state) is None
        run(want, n=3)
        run(graph, n=3)
        assert_graph_equal(graph, want)

    def test_messages_store_s_and_v_only(self):
        # every message was sent with the factor's one stored J, `f_jac`:
        # one field holds S's three entries and v for each receiving kind
        fields = {f.name: f.shape for f in FACTOR_FIELDS if f.name.startswith("msg")}
        assert fields == {"msg": (5, len(KINDS))}
        assert [f.name for f in FACTOR_FIELDS if len(f.shape) == 2] == ["jac", "msg"]
        graph = build(synthesize(3, 20, seed=18, pixel_sigma=0.5))
        for k, kind in enumerate(KINDS):
            s, v = graph.message(kind)
            assert s.shape == (graph.n_measurement_factors, 3) and v.shape == (graph.n_measurement_factors, 2)
            s[:] = 1 + k
            v[:] = 3 + k
        np.testing.assert_array_equal(graph.f_msg[0], [[1, 2]] * 3 + [[3, 4]] * 2)

    def test_factor_stores_jacobian_not_information(self):
        from gbp_ba.engine import run

        assert all(f.shape != (9, 9) for f in FACTOR_FIELDS)
        problem = inject_outliers(
            perturb(synthesize(3, 20, seed=19, pixel_sigma=0.5), 0.05, "backproject", seed=20),
            0.1, "reassign", seed=21,
        )
        graph = build(problem)
        run(graph, ScheduleParams(), n=11)  # relinearised at round 10
        lin = graph.f_lin
        jac = jacobian_many(lin[:, :6], lin[:, 6:], graph.intrinsics)[2]
        uv, _ = project_many(lin[:, :6], lin[:, 6:], graph.intrinsics)
        target = np.einsum("fij,fj->fi", jac, lin) + graph.f_z - uv
        w = graph.f_weight / graph.f_sigma**2
        assert np.any(w < 1.0)
        eta, lam = graph.factor_information(np.arange(graph.n_measurement_factors))
        for m in range(graph.n_measurement_factors):
            np.testing.assert_allclose(lam[m], w[m] * jac[m].T @ jac[m], rtol=1e-12, atol=1e-9)
            np.testing.assert_allclose(eta[m], w[m] * jac[m].T @ target[m], rtol=1e-10, atol=1e-6)


def test_huber_classifies_reassigned_measurements():
    # 10 keyframes with 10% of the measurements reassigned to another
    # landmark the keyframe sees: once the inliers' ARE is below 1.5 px
    # every outlier is past the Huber threshold, and some inliers are too
    # (recall 1.0 and precision 0.418 measured; 0.52 after 150 rounds)
    problem = inject_outliers(
        perturb(synthesize(10, 100, seed=1, pixel_sigma=0.5), 0.05, "backproject", seed=2),
        0.1, "reassign", seed=3,
    )
    graph = build(problem)
    inliers = ~problem.outlier_mask
    for _ in range(100):
        iterate(graph)
        if np.mean(np.linalg.norm(graph.residuals()[0][inliers], axis=1)) < 1.5:
            break
    else:
        pytest.fail("the inliers' ARE stayed above 1.5 px")
    flagged = graph.classify_outliers()
    hits = np.count_nonzero(flagged & problem.outlier_mask)
    assert problem.outlier_mask.sum() == 100
    assert hits == problem.outlier_mask.sum()
    assert hits / flagged.sum() >= 0.41
