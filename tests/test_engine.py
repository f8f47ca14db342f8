"""The batched message phase against the scalar `pairwise_message`.

Phase B derives each variable-to-factor input as the variable's belief minus
the factor's own last message (zero in the round the factor was added in)
and damps the new information vector outside the undamped window.  These
tests replay one round factor by factor through the scalar information-form
path and compare.
"""

import numpy as np
import pytest

from gbp_ba import (
    InfoGaussian,
    ScheduleParams,
    build,
    iterate,
    pairwise_message,
    perturb,
    quotient,
    run,
    synthesize,
)
from gbp_ba.camera import project_many
from gbp_ba.info_gaussian import PIVOT_RTOL, SingularMarginalizationError

KF, LM = slice(0, 6), slice(6, 9)


def perturbed_graph():
    return build(perturb(synthesize(4, 30, seed=21, pixel_sigma=0.5), 0.05, "backproject", seed=22))


def scalar_message(factor, keep, elim, incoming, prev, damping):
    """`pairwise_message`, or `prev` where the conditioned eliminated block is
    not positive definite (the batched solve keeps the last message there)."""
    cond = factor.lam[elim, elim] + incoming.lam
    eigs = np.linalg.eigvalsh(cond)
    if eigs[0] <= PIVOT_RTOL * abs(np.trace(cond)):
        return prev
    try:
        return pairwise_message(factor, keep, incoming, prev, damping)
    except SingularMarginalizationError:
        return prev


def check_round(graph, schedule, factor_ids):
    """Run one round on `graph` and check the messages of `factor_ids`
    against the scalar path; returns the damping each factor used."""
    before = graph.copy()
    t = graph.iteration
    iterate(graph, schedule)
    dampings = []
    for m in factor_ids:
        # phase A may relinearise, phases B and C leave the factor alone
        after = graph.factor(m)
        old = before.factor(m)
        in_window = t - graph.f_last_relin[m] < schedule.undamped_window
        damping = 0.0 if in_window else schedule.damping
        dampings.append(damping)
        for keep, elim, belief, own_msg, prev, got in (
            (KF, LM, before.landmark(old.landmark_id).belief, old.msg_to_landmark,
             old.msg_to_keyframe, after.msg_to_keyframe),
            (LM, KF, before.keyframe(old.keyframe_id).belief, old.msg_to_keyframe,
             old.msg_to_landmark, after.msg_to_landmark),
        ):
            first_round = before.f_birth[m] == t
            incoming = InfoGaussian.zero(belief.dim) if first_round else quotient(belief, own_msg)
            want = scalar_message(after.factor, keep, elim, incoming, prev, damping)
            scale = max(np.abs(want.lam).max(), np.abs(want.eta).max(), 1.0)
            np.testing.assert_allclose(got.lam, want.lam, rtol=1e-7, atol=1e-9 * scale, err_msg=f"factor {m}")
            np.testing.assert_allclose(got.eta, want.eta, rtol=1e-7, atol=1e-9 * scale, err_msg=f"factor {m}")
    return dampings


@pytest.mark.parametrize("warmup, damped", [(3, False), (9, True)])
def test_messages_match_scalar_path(warmup, damped):
    # every factor is linearised at build and next relinearised at round 10,
    # so round 3 is inside the undamped window and round 9 outside it
    graph = perturbed_graph()
    schedule = ScheduleParams()
    run(graph, schedule, n=warmup)
    dampings = check_round(graph, schedule, np.arange(0, graph.n_measurement_factors, 5))
    assert set(dampings) == {schedule.damping if damped else 0.0}


def test_factor_added_mid_solve_starts_from_zero_input():
    graph = perturbed_graph()
    schedule = ScheduleParams()
    run(graph, schedule, n=19)  # old factors are outside the undamped window
    kf = graph.add_keyframe()
    lm = graph.add_landmark(graph.lm_state[0] + [0.05, 0.0, 0.0])
    kf_ids, lm_ids = np.array([kf, kf, 0]), np.array([0, lm, lm])
    uv, _ = project_many(graph.kf_state[kf_ids], graph.lm_state[lm_ids], graph.intrinsics)
    last = graph.add_measurements(kf_ids, lm_ids, uv, np.ones(3))
    new = np.arange(last - 2, last + 1)
    old = np.arange(0, graph.n_measurement_factors - 3, 11)
    assert np.all(graph.f_birth[new] == graph.iteration)

    # first round: the new factors condition on zero inputs, which leave a
    # rank-2 factor singular on either side, so their messages stay zero
    dampings = check_round(graph, schedule, np.concatenate([old, new]))
    assert set(dampings) == {0.0, schedule.damping}
    for m in new:
        view = graph.factor(m)
        assert not view.msg_to_keyframe.lam.any() and not view.msg_to_landmark.lam.any()
    # an input derived from the belief would not have been singular
    view = graph.factor(new[0])
    assert pairwise_message(view.factor, KF, graph.landmark(view.landmark_id).belief).lam.any()

    # later rounds: inputs are belief minus message, as for every factor
    check_round(graph, schedule, np.concatenate([old, new]))
    assert graph.factor(new[0]).msg_to_keyframe.lam.any()
