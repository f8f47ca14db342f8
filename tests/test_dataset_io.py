import numpy as np
import pytest

from gbp_ba import (
    FormatVersionError,
    Intrinsics,
    ParseError,
    ProblemSpec,
    build,
    import_bal,
    inject_outliers,
    lm_solve,
    load,
    perturb,
    save,
    synthesize,
)
from gbp_ba.camera import camera_center, rotation_matrix
from gbp_ba.dataset_io import backproject_at_unit_range


@pytest.fixture
def small_problem():
    return synthesize(4, 30, seed=42, pixel_sigma=0.5)


class TestNativeFormat:
    def test_round_trip_bitwise(self, small_problem, tmp_path):
        path = tmp_path / "p.gbpba"
        save(small_problem, path)
        again = load(path)
        assert again == small_problem
        # canonical form: save(load(save(x))) identical bytes
        path2 = tmp_path / "p2.gbpba"
        save(again, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_empty_problem_round_trips(self, tmp_path):
        empty = ProblemSpec(metadata={"note": "nothing here"})
        path = tmp_path / "empty.gbpba"
        save(empty, path)
        assert load(path) == empty

    def test_seventeen_digit_fidelity(self, tmp_path):
        awkward = np.array([np.pi, 1 / 3, 0.1, -1e-17, 2**-40, 1e300])
        prob = ProblemSpec(
            kf_init=awkward[None, :],
            lm_init=np.array([[np.e, -np.pi, 0.3]]),
            meas_kf=[0],
            meas_lm=[0],
            meas_uv=[[1e-7, 123.456]],
            meas_sigma=[0.7],
        )
        path = tmp_path / "x.gbpba"
        save(prob, path)
        assert load(path) == prob

    def test_outlier_labels_round_trip(self, small_problem, tmp_path):
        corrupted = inject_outliers(small_problem, 0.1, "uniform", seed=3)
        path = tmp_path / "o.gbpba"
        save(corrupted, path)
        again = load(path)
        np.testing.assert_array_equal(again.outlier_mask, corrupted.outlier_mask)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.gbpba"
        path.write_text("gbpba v99\nintrinsics 1 1 0 0\n")
        with pytest.raises(FormatVersionError):
            load(path)

    def test_parse_error_carries_line_number(self, small_problem, tmp_path):
        path = tmp_path / "trunc.gbpba"
        save(small_problem, path)
        lines = path.read_text().splitlines()
        lines[5] = "0 not_a_float 0 0 0 0 0 " + " ".join(["0"] * 6)
        path.write_text("\n".join(lines))
        with pytest.raises(ParseError) as exc:
            load(path)
        assert exc.value.line == 6

    def test_not_a_problem_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("hello world\n")
        with pytest.raises(ParseError):
            load(path)

    def test_comments_and_blanks_ignored(self, small_problem, tmp_path):
        path = tmp_path / "c.gbpba"
        save(small_problem, path)
        text = path.read_text().splitlines()
        text.insert(1, "# a comment")
        text.insert(3, "")
        path.write_text("\n".join(text))
        assert load(path) == small_problem


class TestDegenerateValues:
    @pytest.mark.parametrize(
        "field, row, value, message",
        [
            ("meas_uv", 3, np.nan, "measurement 3"),
            ("meas_uv", 0, np.inf, "measurement 0"),
            ("meas_sigma", 5, 0.0, "measurement 5"),
            ("meas_sigma", 2, -0.5, "measurement 2"),
            ("meas_sigma", 1, np.nan, "measurement 1"),
            ("kf_init", 2, np.nan, "keyframe 2"),
            ("lm_init", 7, -np.inf, "landmark 7"),
        ],
    )
    def test_problem_spec_rejects(self, small_problem, field, row, value, message):
        values = {f: getattr(small_problem, f) for f in ("kf_init", "lm_init", "meas_uv", "meas_sigma")}
        values[field] = values[field].copy()
        values[field][row] = value
        with pytest.raises(ValueError, match=message):
            ProblemSpec(
                intrinsics=small_problem.intrinsics,
                meas_kf=small_problem.meas_kf,
                meas_lm=small_problem.meas_lm,
                **values,
            )

    def test_load_rejects_zero_sigma(self, small_problem, tmp_path):
        path = tmp_path / "zero_sigma.gbpba"
        save(small_problem, path)
        lines = path.read_text().splitlines()
        first = lines.index(f"measurements {small_problem.n_measurements}") + 1
        lines[first] = " ".join(lines[first].split()[:4] + ["0"])
        path.write_text("\n".join(lines))
        with pytest.raises(ParseError, match="measurement 0"):
            load(path)


class TestSynthesize:
    def test_deterministic(self):
        assert synthesize(5, 40, seed=7) == synthesize(5, 40, seed=7)
        assert synthesize(5, 40, seed=7) != synthesize(5, 40, seed=8)

    def test_counts_and_visibility(self, small_problem):
        assert small_problem.n_keyframes == 4
        assert small_problem.n_landmarks <= 30
        counts = np.bincount(small_problem.meas_lm, minlength=small_problem.n_landmarks)
        assert counts.min() >= 2  # landmarks observed < 2 times discarded

    def test_noiseless_solves_to_zero_are_from_gt(self):
        prob = synthesize(4, 30, seed=1, pixel_sigma=0.0)
        graph = build(prob)  # initial states are ground truth
        assert graph.average_reprojection_error() < 1e-9

    def test_degenerate_raises(self):
        with pytest.raises(Exception):
            synthesize(1, 2, seed=0, vis_radius=1e-6)

    def test_lm_recovers_ground_truth_poses(self):
        # sigma = 1 px noise, init at ground truth: the refined poses should
        # sit within 1 cm RMSE of ground truth after rigid alignment
        prob = synthesize(10, 100, seed=3, pixel_sigma=1.0)
        graph = build(prob)
        report = lm_solve(graph)
        gt_centers = np.stack([camera_center(s) for s in prob.kf_gt])
        est_centers = np.stack([camera_center(s) for s in report.kf_states])
        # rigid (Kabsch) alignment of estimated onto true centres
        mu_a, mu_b = est_centers.mean(0), gt_centers.mean(0)
        u, _, vt = np.linalg.svd((est_centers - mu_a).T @ (gt_centers - mu_b))
        rot = (u @ np.diag([1, 1, np.sign(np.linalg.det(u @ vt))]) @ vt).T
        aligned = (rot @ (est_centers - mu_a).T).T + mu_b
        rmse = np.sqrt(np.mean(np.sum((aligned - gt_centers) ** 2, axis=1)))
        assert rmse < 0.01

    def test_line_trajectory(self):
        prob = synthesize(5, 60, seed=2, trajectory="line")
        assert prob.n_measurements > 0


class TestPerturb:
    def test_zero_noise_gauss_is_identity(self, small_problem):
        out = perturb(small_problem, 0.0, "gauss", landmark_sigma=0.0, seed=0)
        np.testing.assert_array_equal(out.kf_init, small_problem.kf_gt)
        np.testing.assert_array_equal(out.lm_init, small_problem.lm_gt)

    def test_backproject_on_unit_range_ray(self, small_problem):
        out = perturb(small_problem, 0.0, "backproject", seed=0)
        k = small_problem.intrinsics
        seen = set()
        for m in range(small_problem.n_measurements):
            j = small_problem.meas_lm[m]
            if j in seen:
                continue
            seen.add(j)
            state = out.kf_init[small_problem.meas_kf[m]]
            center = camera_center(state)
            # range exactly 1 m from the first observing keyframe
            np.testing.assert_allclose(np.linalg.norm(out.lm_init[j] - center), 1.0, rtol=1e-12)
            # and on the bearing ray of the measured pixel
            ray = rotation_matrix(state[:3]).T @ np.array(
                [
                    (small_problem.meas_uv[m, 0] - k.cx) / k.fx,
                    (small_problem.meas_uv[m, 1] - k.cy) / k.fy,
                    1.0,
                ]
            )
            ray /= np.linalg.norm(ray)
            np.testing.assert_allclose(out.lm_init[j] - center, ray, atol=1e-12)

    def test_keyframe_sigma_statistics(self, small_problem):
        prob = synthesize(200, 10, seed=9)
        out = perturb(prob, 0.07, "gauss", landmark_sigma=0.0, seed=1)
        noise = out.kf_init[:, 3:] - prob.kf_gt[:, 3:]
        assert abs(np.std(noise) - 0.07) < 0.01
        np.testing.assert_array_equal(out.kf_init[:, :3], prob.kf_gt[:, :3])

    def test_requires_ground_truth(self):
        prob = ProblemSpec(kf_init=np.zeros((1, 6)), lm_init=np.zeros((1, 3)))
        with pytest.raises(ValueError, match="ground truth"):
            perturb(prob, 0.07)

    def test_deterministic(self, small_problem):
        a = perturb(small_problem, 0.07, "backproject", seed=5)
        b = perturb(small_problem, 0.07, "backproject", seed=5)
        assert a == b

    def test_backproject_requires_observation(self):
        prob = ProblemSpec(
            kf_init=np.zeros((1, 6)),
            lm_init=np.ones((1, 3)),
            kf_gt=np.zeros((1, 6)),
            lm_gt=np.ones((1, 3)),
        )
        with pytest.raises(ValueError, match="no observation"):
            backproject_at_unit_range(
                prob.kf_init, prob.meas_kf, prob.meas_lm, prob.meas_uv,
                Intrinsics(1, 1, 0, 0), 1,
            )


class TestInjectOutliers:
    def test_zero_fraction_identity(self, small_problem):
        out = inject_outliers(small_problem, 0.0, "uniform", seed=0)
        np.testing.assert_array_equal(out.meas_uv, small_problem.meas_uv)
        assert out.outlier_mask.sum() == 0

    def test_exact_count(self, small_problem):
        n = small_problem.n_measurements
        for frac in (0.05, 0.1, 0.25):
            out = inject_outliers(small_problem, frac, "uniform", seed=1)
            assert out.outlier_mask.sum() == round(frac * n)
            out = inject_outliers(small_problem, frac, "reassign", seed=1)
            assert out.outlier_mask.sum() == round(frac * n)

    def test_reassign_same_keyframe_other_landmark(self, small_problem):
        out = inject_outliers(small_problem, 0.2, "reassign", seed=2)
        moved = np.flatnonzero(out.outlier_mask)
        assert moved.size > 0
        for m in moved:
            assert out.meas_kf[m] == small_problem.meas_kf[m]
            assert out.meas_lm[m] != small_problem.meas_lm[m]
            peers = small_problem.meas_lm[small_problem.meas_kf == out.meas_kf[m]]
            assert out.meas_lm[m] in peers
            np.testing.assert_array_equal(out.meas_uv[m], small_problem.meas_uv[m])

    def test_uniform_inside_image(self, small_problem):
        out = inject_outliers(small_problem, 0.3, "uniform", seed=3)
        moved = out.outlier_mask
        assert np.all(out.meas_uv[moved, 0] >= 0) and np.all(out.meas_uv[moved, 0] < 640)
        assert np.all(out.meas_uv[moved, 1] >= 0) and np.all(out.meas_uv[moved, 1] < 480)

    def test_counts_preserved(self, small_problem):
        out = inject_outliers(small_problem, 0.1, "reassign", seed=4)
        assert out.n_measurements == small_problem.n_measurements
        assert out.n_keyframes == small_problem.n_keyframes

    def test_fraction_range(self, small_problem):
        with pytest.raises(ValueError):
            inject_outliers(small_problem, 0.6)

    def test_deterministic(self, small_problem):
        a = inject_outliers(small_problem, 0.1, "reassign", seed=9)
        b = inject_outliers(small_problem, 0.1, "reassign", seed=9)
        assert a == b


BAL_TINY = """\
2 3 6
0 0   10.0 20.0
0 1   -5.0 12.0
0 2   1.0 -1.0
1 0   11.0 19.0
1 1   -6.5 11.0
1 2   2.0 -2.5
0.01 0.02 0.03
0.1 -0.2 1.5
420.0
0.0
0.0
-0.01 0.015 -0.02
-0.1 0.25 1.4
420.0
0.0
0.0
0.5 0.5 -2.0
-0.3 0.2 -1.8
0.1 -0.4 -2.2
"""


class TestImportBal:
    def test_tiny_file(self, tmp_path):
        path = tmp_path / "tiny.bal"
        path.write_text(BAL_TINY)
        prob = import_bal(path)
        assert prob.n_keyframes == 2
        assert prob.n_landmarks == 3
        assert prob.n_measurements == 6
        assert prob.intrinsics.fx == 420.0

    def test_residual_parity_with_independent_evaluator(self, tmp_path):
        # independent oracle for the source camera model: P = R X + t,
        # p = -P / P_z, pixel = f * p (no distortion)
        path = tmp_path / "tiny.bal"
        path.write_text(BAL_TINY)
        prob = import_bal(path)
        from scipy.spatial.transform import Rotation

        tokens = BAL_TINY.split()
        obs = np.array(tokens[3 : 3 + 24], dtype=float).reshape(6, 4)
        cams = np.array(tokens[27 : 27 + 18], dtype=float).reshape(2, 9)
        pts = np.array(tokens[45:], dtype=float).reshape(3, 3)
        graph = build(prob)
        ours, _ = graph.residuals()
        for m in range(6):
            ci, pi = int(obs[m, 0]), int(obs[m, 1])
            p = Rotation.from_rotvec(cams[ci, :3]).as_matrix() @ pts[pi] + cams[ci, 3:6]
            proj = cams[ci, 6] * (-p[:2] / p[2])
            ref = obs[m, 2:4] - proj
            np.testing.assert_allclose(np.linalg.norm(ours[m]), np.linalg.norm(ref), rtol=1e-10)

    def test_warns_on_distortion(self, tmp_path):
        text = BAL_TINY.replace("420.0\n0.0\n0.0\n-0.01", "420.0\n0.1\n0.0\n-0.01")
        path = tmp_path / "d.bal"
        path.write_text(text)
        with pytest.warns(UserWarning, match="distortion"):
            import_bal(path)

    def test_truncated_raises(self, tmp_path):
        path = tmp_path / "t.bal"
        path.write_text("2 3 6\n0 0 1.0 2.0\n")
        with pytest.raises(ParseError, match="truncated"):
            import_bal(path)

    def test_bad_index_raises(self, tmp_path):
        path = tmp_path / "b.bal"
        path.write_text(BAL_TINY.replace("1 2   2.0 -2.5", "1 9   2.0 -2.5"))
        with pytest.raises(ParseError, match="out of range"):
            import_bal(path)

    def test_reexport_stable(self, tmp_path):
        path = tmp_path / "tiny.bal"
        path.write_text(BAL_TINY)
        prob = import_bal(path)
        p1 = tmp_path / "native1.gbpba"
        p2 = tmp_path / "native2.gbpba"
        save(prob, p1)
        save(load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_generated_scene_resolves_identically(tmp_path):
    # end-to-end determinism: save, load, solve twice -> identical traces
    from gbp_ba import ScheduleParams, solve

    prob = perturb(synthesize(4, 40, seed=11, pixel_sigma=0.5), 0.05, "backproject", seed=12)
    path = tmp_path / "s.gbpba"
    save(prob, path)
    r1 = solve(build(load(path)), ScheduleParams(max_iters=40))
    r2 = solve(build(load(path)), ScheduleParams(max_iters=40))
    np.testing.assert_array_equal(r1.are_trace, r2.are_trace)
    np.testing.assert_array_equal(r1.kf_states, r2.kf_states)
