"""Property tests: compile any crot angle, complete any admissible (A, B)."""

import numpy as np
from _helpers import random_admissible_series
from hypothesis import given, settings, strategies as st

from mscompile import complete, crot_angles, evaluate_plan
from mscompile.su2 import rz
from mscompile.subspace import compute_thetas

GRID = np.linspace(0, 2 * np.pi, 1024, endpoint=False)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 16),
    alpha=st.floats(-2 * np.pi, 2 * np.pi, exclude_min=True),
)
def test_crot_blocks_match_for_any_angle(n, alpha):
    plan = crot_angles(n, alpha)
    for q, theta in enumerate(compute_thetas(n, plan.tau, plan.h)):
        want = rz(alpha) if q == n - 1 else np.eye(2)
        np.testing.assert_allclose(evaluate_plan(plan.phis, theta), want, atol=1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), with_b=st.booleans())
def test_completion_is_normalized(seed, with_b):
    a, b = random_admissible_series(np.random.default_rng(seed), max_degree=8, with_b=with_b)
    c, d = complete(a, b, +1)
    total = a(GRID) ** 2 + b(GRID) ** 2 + c(GRID) ** 2 + d(GRID) ** 2
    assert np.max(np.abs(total - 1)) < 1e-10
