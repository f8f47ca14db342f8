import re
import string
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbp_ba import (
    FormatVersionError,
    GenerationError,
    Intrinsics,
    ParseError,
    ProblemSpec,
    ScheduleParams,
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
from gbp_ba.dataset_io import COLUMNS, RowError, backproject_at_unit_range


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


def _write_edited(problem, path, section, offset, edit):
    """Save `problem`, then replace the line `offset` lines below the first
    line that starts with `section` by `edit` of it; returns that line's
    1-based number."""
    save(problem, path)
    lines = path.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.split()[0] == section) + offset
    lines[at] = edit(lines[at])
    path.write_text("\n".join(lines) + "\n")
    return at + 1


class TestLoadErrors:
    @pytest.mark.parametrize(
        "section, offset, edit",
        [
            ("outliers", 0, lambda line: "outliers"),
            ("metadata", 0, lambda line: "metadata"),
            ("outliers", 0, lambda line: "outliers x"),
            ("outliers", 1, lambda line: "foo"),
            ("intrinsics", 0, lambda line: "intrinsics 0 350 320 240"),
            ("intrinsics", 0, lambda line: "intrinsics 350 350 nan 240"),
            ("outliers", 2, lambda line: "99999"),
            ("keyframes", 0, lambda line: "keyframes 4 gt=2"),
            ("measurements", 0, lambda line: line + " gt=0"),
            ("outliers", 0, lambda line: line + " gt=1"),
            ("metadata", 0, lambda line: line + " gt=0"),
            ("keyframes", 1, lambda line: line + " 0"),
            ("landmarks", 3, lambda line: line.rsplit(" ", 1)[0]),
            ("landmarks", 4, lambda line: line.replace(" ", " x", 1)),
            ("landmarks", 2, lambda line: "7" + line[1:]),
            ("measurements", 4, lambda line: line + " # c"),
            ("measurements", 1, lambda line: "0.5" + line[1:]),
        ],
        ids=[
            "outliers-without-count", "metadata-without-count", "outliers-count-not-a-number",
            "outlier-index-not-a-number", "intrinsics-zero-focal", "intrinsics-non-finite",
            "outlier-index-out-of-range",
            "bad-gt-flag", "measurements-gt-flag", "outliers-gt-flag", "metadata-gt-flag",
            "keyframe-row-too-long", "landmark-row-too-short",
            "landmark-field-not-a-number", "landmark-ids-not-contiguous",
            "measurement-trailing-comment", "measurement-fractional-id",
        ],
    )
    def test_malformed_line_raises_with_its_number(self, small_problem, tmp_path, section, offset, edit):
        labelled = inject_outliers(small_problem, 0.1, "uniform", seed=3)
        path = tmp_path / "bad.gbpba"
        line = _write_edited(labelled, path, section, offset, edit)
        with pytest.raises(ParseError) as exc:
            load(path)
        assert exc.value.line == line

    @pytest.mark.parametrize(
        "section, offset, edit",
        [
            ("measurements", 1, lambda line: "0.5" + line[1:]),
            ("keyframes", 2, lambda line: "1.0" + line[1:]),
            ("outliers", 1, lambda line: "2.7"),
        ],
        ids=["measurement-keyframe-id", "keyframe-id", "outlier-index"],
    )
    @pytest.mark.parametrize("lenient_numpy", [False, True])
    def test_fractional_integer_raises_whatever_the_warning_filters(
        self, small_problem, tmp_path, monkeypatch, section, offset, edit, lenient_numpy
    ):
        if lenient_numpy:
            # numpy before 2.0 reads a fractional integer field through a
            # float and truncates it, with only a DeprecationWarning; where
            # that warning is an error, it raises ValueError
            loadtxt = np.loadtxt

            def truncating_loadtxt(text, dtype, **kwargs):
                cut = [re.sub(r"^(\d+)\.\d+\b", r"\1", line) for line in text]
                if cut != list(text):
                    try:
                        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
                    except DeprecationWarning as exc:
                        raise ValueError(f"could not convert string to {dtype}") from exc
                return loadtxt(cut, dtype, **kwargs)

            monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
        labelled = inject_outliers(small_problem, 0.1, "uniform", seed=3)
        path = tmp_path / "bad.gbpba"
        line = _write_edited(labelled, path, section, offset, edit)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ParseError) as exc:
                load(path)
        assert exc.value.line == line

    @pytest.mark.parametrize(
        "section, offset, extra",
        [
            (None, None, ["outliers 1", "0"]),
            (None, None, ["metadata 1", "note again"]),
            ("outliers", 2, None),
            ("metadata", 2, None),
        ],
        ids=["second-outliers-section", "second-metadata-section", "outlier-index-twice", "metadata-key-twice"],
    )
    def test_what_save_never_writes_raises_with_its_line(self, small_problem, tmp_path, section, offset, extra):
        # a repeated section, outlier index or metadata key would otherwise
        # replace, merge or override what came before it
        labelled = inject_outliers(small_problem, 0.1, "uniform", seed=3)
        path = tmp_path / "bad.gbpba"
        save(labelled, path)
        lines = path.read_text().splitlines()
        if extra:
            line = len(lines) + 1
            lines += extra
        else:  # the row `offset` below the header repeats the key of the one above it
            at = next(i for i, line in enumerate(lines) if line.split()[0] == section) + offset
            lines[at] = lines[at - 1].split()[0] + " " + " ".join(lines[at].split()[1:])
            line = at + 1
        assert len(labelled.metadata) >= 2 and np.count_nonzero(labelled.outlier_mask) >= 2
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            load(path)
        assert exc.value.line == line

    def test_comment_lines_inside_sections(self, small_problem, tmp_path):
        path = tmp_path / "c.gbpba"
        save(small_problem, path)
        lines = path.read_text().splitlines()
        for at in (len(lines) - 3, 12, 5):  # from the end, so indices hold
            lines[at:at] = ["# a note", "   ", "  # indented"]
        path.write_text("\n".join(lines) + "\n")
        assert load(path) == small_problem
        assert lines[8].startswith("2 ")  # the third keyframe row, below the first block
        lines[8] += " # c"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            load(path)
        assert exc.value.line == 9


finite = st.floats(allow_nan=False, allow_infinity=False)
awkward = st.one_of(st.sampled_from([-0.0, 1e300, -1e300, 5e-324, -2.5e-320, 1e-310]), finite)
positive = st.one_of(st.sampled_from([5e-324, 1e-310, 1e300]), st.floats(min_value=1e-300, max_value=1e300))


@st.composite
def problems(draw):
    n_kf, n_lm = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    n_meas = draw(st.integers(0, 6)) if n_kf and n_lm else 0

    def arrays(shape, values=awkward):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(values, min_size=size, max_size=size))).reshape(shape)

    def maybe(shape):
        return arrays(shape) if draw(st.booleans()) else None

    key = st.text(string.ascii_letters + string.digits + "_.-", min_size=1, max_size=8)
    value = st.text(string.ascii_letters + string.digits + " _.,:=#-", max_size=12).map(str.strip)
    return ProblemSpec(
        intrinsics=Intrinsics(draw(positive), draw(positive), draw(awkward), draw(awkward)),
        kf_init=arrays((n_kf, 6)),
        lm_init=arrays((n_lm, 3)),
        kf_gt=maybe((n_kf, 6)),
        lm_gt=maybe((n_lm, 3)),
        meas_kf=draw(st.lists(st.integers(0, max(n_kf - 1, 0)), min_size=n_meas, max_size=n_meas)),
        meas_lm=draw(st.lists(st.integers(0, max(n_lm - 1, 0)), min_size=n_meas, max_size=n_meas)),
        meas_uv=arrays((n_meas, 2)),
        meas_sigma=arrays((n_meas,), positive),
        outlier_mask=draw(st.none() | st.lists(st.booleans(), min_size=n_meas, max_size=n_meas)),
        metadata=draw(st.dictionaries(key, value, max_size=3)),
    )


@settings(max_examples=150, deadline=None)
@given(problem=problems())
def test_save_load_round_trip(problem, tmp_path_factory):
    path = tmp_path_factory.mktemp("round_trip") / "p.gbpba"
    save(problem, path)
    again = load(path)
    assert again == problem
    for name, _, _, _ in COLUMNS:
        a, b = getattr(again, name), getattr(problem, name)
        assert (a is None and b is None) or a.dtype == b.dtype, name
    path2 = path.with_name("p2.gbpba")
    save(again, path2)
    assert path2.read_bytes() == path.read_bytes()


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
            ("meas_kf", 1, 0.5, "measurement 1 has a non-integral meas_kf 0.5"),
            ("meas_lm", 4, 2.25, "measurement 4 has a non-integral meas_lm 2.25"),
            ("outlier_mask", 0, 0.5, "measurement 0 has outlier_mask 0.5, not 0 or 1"),
            ("outlier_mask", 3, 2.0, "measurement 3 has outlier_mask 2.0"),
            ("outlier_mask", 6, -1.0, "measurement 6 has outlier_mask -1.0"),
            ("outlier_mask", 2, np.nan, "measurement 2 has outlier_mask nan"),
        ],
    )
    def test_problem_spec_rejects(self, small_problem, field, row, value, message):
        fields = ("kf_init", "lm_init", "meas_kf", "meas_lm", "meas_uv", "meas_sigma")
        values = {f: getattr(small_problem, f).astype(float) for f in fields}
        values["outlier_mask"] = np.zeros(small_problem.n_measurements)  # 0.0 labels are accepted
        values[field][row] = value
        with pytest.raises(ValueError, match=message):
            ProblemSpec(intrinsics=small_problem.intrinsics, **values)

    def test_problem_spec_takes_whole_float_ids(self, small_problem):
        ids = {f: getattr(small_problem, f).astype(float) for f in ("meas_kf", "meas_lm")}
        fields = ("kf_init", "lm_init", "meas_uv", "meas_sigma")
        again = ProblemSpec(
            intrinsics=small_problem.intrinsics, **{f: getattr(small_problem, f) for f in fields}, **ids
        )
        for f in ids:
            assert getattr(again, f).dtype == getattr(small_problem, f).dtype
            np.testing.assert_array_equal(getattr(again, f), getattr(small_problem, f))

    @pytest.mark.parametrize(
        "field, dtype",
        [("meas_kf", str), ("meas_lm", bool), ("meas_uv", str), ("meas_sigma", bool), ("kf_init", str),
         ("lm_init", object), ("kf_gt", bool)],
    )
    def test_problem_spec_rejects_bools_strings_and_objects(self, small_problem, field, dtype):
        # numpy would read True as 1 and "0" as 0, so string ids were accepted
        fields = ("kf_init", "lm_init", "meas_kf", "meas_lm", "meas_uv", "meas_sigma")
        values = {f: getattr(small_problem, f) for f in fields}
        values[field] = (values.get(field, small_problem.kf_init)).astype(dtype)
        with pytest.raises(RowError, match=f"{field} must be numbers, not"):
            ProblemSpec(intrinsics=small_problem.intrinsics, **values)

    @pytest.mark.parametrize(
        "metadata, key",
        [
            ({"a b": "c"}, "a b"),
            ({"k\t": "v"}, "k\t"),
            ({"": "v"}, ""),
            ({"#k": "v"}, "#k"),
            ({"k": "v "}, "k"),
            ({"k": "v\t"}, "k"),
            ({"k": "a\nb"}, "k"),
            ({"k": "a\rb"}, "k"),
            ({"k": 7}, "k"),
            ({7: "v"}, 7),
        ],
    )
    def test_save_rejects_metadata_it_cannot_read_back(self, small_problem, tmp_path, metadata, key):
        problem = small_problem.copy()
        problem.metadata = {"fine": "a value", **metadata}
        path = tmp_path / "meta.gbpba"
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            save(problem, path)
        assert not path.exists()

    def test_load_rejects_zero_sigma(self, small_problem, tmp_path):
        path = tmp_path / "zero_sigma.gbpba"
        save(small_problem, path)
        lines = path.read_text().splitlines()
        first = lines.index(f"measurements {small_problem.n_measurements}") + 1
        lines[first] = " ".join(lines[first].split()[:4] + ["0"])
        path.write_text("\n".join(lines))
        with pytest.raises(ParseError, match="measurement 0"):
            load(path)

    @pytest.mark.parametrize(
        "section, row, column, value, message",
        [
            ("measurements", 5, 0, "9", "measurement 5 references missing keyframe 9"),
            ("keyframes", 2, 3, "nan", "keyframe 2 has a non-finite state"),
        ],
    )
    def test_load_gives_the_line_of_a_rejected_value(
        self, small_problem, tmp_path, section, row, column, value, message
    ):
        # a row that parses but that validate rejects: the error names the
        # row and carries its line, counted past a comment and a blank line
        path = tmp_path / "rejected.gbpba"
        save(small_problem, path)
        lines = path.read_text().splitlines()
        lines[1:1] = ["# a comment", ""]
        index = next(i for i, line in enumerate(lines) if line.startswith(section + " ")) + 1 + row
        fields = lines[index].split()
        fields[column] = value
        lines[index] = " ".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=message) as exc:
            load(path)
        assert exc.value.line == index + 1


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

    @pytest.mark.parametrize(
        "perturbed, steps, bound", [(False, 0, 0.01), (True, 4, 0.02)], ids=["gt-start", "perturbed-start"]
    )
    def test_lm_recovers_ground_truth_poses(self, perturbed, steps, bound):
        # sigma = 1 px noise, init at ground truth (already below the ARE
        # target) or 5 cm off it: the refined poses should sit within `bound`
        # RMSE of ground truth after similarity (Umeyama) alignment, which
        # absorbs the scale the perturbed start settles at (about 1.31)
        prob = synthesize(10, 100, seed=3, pixel_sigma=1.0)
        start = perturb(prob, 0.05, "backproject", seed=3) if perturbed else prob
        graph = build(start)
        report = lm_solve(graph, ScheduleParams(prior_floor=0.01))
        assert (report.steps, report.reason) == (steps, "are_target")
        assert np.all(np.diff(report.energy_trace) < 0)
        np.testing.assert_array_equal(graph.kf_state, start.kf_init)  # not mutated
        gt_centers = np.stack([camera_center(s) for s in prob.kf_gt])
        est_centers = np.stack([camera_center(s) for s in report.kf_states])
        mu_a, mu_b = est_centers.mean(0), gt_centers.mean(0)
        a, b = est_centers - mu_a, gt_centers - mu_b
        u, d, vt = np.linalg.svd(b.T @ a)
        sign = np.diag([1, 1, np.sign(np.linalg.det(u @ vt))])
        scale = np.trace(np.diag(d) @ sign) / np.sum(a**2)
        aligned = scale * a @ (u @ sign @ vt).T + mu_b
        rmse = np.sqrt(np.mean(np.sum((aligned - gt_centers) ** 2, axis=1)))
        assert rmse < bound

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


@pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("call, error, name", [
    (lambda p, s: synthesize(4, 30, seed=42, pixel_sigma=s), GenerationError, "pixel_sigma"),
    (lambda p, s: perturb(p, s), ValueError, "keyframe_sigma"),
    (lambda p, s: perturb(p, 0.05, "gauss", landmark_sigma=s), ValueError, "landmark_sigma"),
], ids=["synthesize", "perturb-keyframe", "perturb-landmark"])
def test_negative_or_non_finite_noise_sigma_raises(small_problem, call, error, name, sigma):
    # each added no noise, by its `> 0` guard, yet recorded the sigma in
    # `metadata`; a sigma of 0 stays noise-free
    with pytest.raises(error, match=name):
        call(small_problem, sigma)
    call(small_problem, 0.0)


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

    def test_tokens_after_the_last_point_block_raise(self, tmp_path):
        # header counts that disagree with the body leave tokens over
        path = tmp_path / "long.bal"
        path.write_text(BAL_TINY + "0.1 0.2 -2.0\n")
        with pytest.raises(ParseError, match="after the last point block"):
            import_bal(path)

    def test_bad_index_raises(self, tmp_path):
        path = tmp_path / "b.bal"
        path.write_text(BAL_TINY.replace("1 2   2.0 -2.5", "1 9   2.0 -2.5"))
        with pytest.raises(ParseError, match="out of range"):
            import_bal(path)

    @pytest.mark.parametrize(
        "old, new, what",
        [
            ("0 0   10.0 20.0", "0.5 0   10.0 20.0", "camera index"),
            ("0 1   -5.0 12.0", "0 1.0   -5.0 12.0", "point index"),
            ("0 1   -5.0 12.0", "foo 1   -5.0 12.0", "camera index"),
            ("0 1   -5.0 12.0", "0 1   -5.0 bar", "pixel"),
            ("2 3 6", "2 3 -6", "negative count"),
            ("420.0", "nan", "bad focal length"),  # replaces both cameras' focal length
            ("420.0", "inf", "bad focal length"),
            ("420.0", "0.0", "bad focal length"),
            ("0.5 0.5 -2.0", "nan 0.5 -2.0", "landmark 0 has a non-finite state"),
            ("0.1 -0.2 1.5", "0.1 inf 1.5", "non-finite camera pose"),
            ("0.01 0.02 0.03", "0.01 nan 0.03", "non-finite camera pose"),
            ("-6.5 11.0", "-6.5 nan", "measurement 4 has uv"),
        ],
        ids=[
            "fractional-camera", "fractional-point", "word-camera", "word-pixel", "negative-count",
            "nan-focal", "inf-focal", "zero-focal", "nan-point", "inf-translation", "nan-rotation",
            "nan-pixel",
        ],
    )
    def test_malformed_token_raises(self, tmp_path, old, new, what):
        path = tmp_path / "n.bal"
        path.write_text(BAL_TINY.replace(old, new))
        with pytest.raises(ParseError, match=what):
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
