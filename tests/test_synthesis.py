import warnings

import numpy as np
import pytest
from _helpers import (
    crot_targets,
    full_width_angles,
    node_block_miss,
    pauli_components,
    quadruple_matrix,
    series_from_samples,
    weighted_targets,
)

from mscompile import (
    EVEN,
    ODD,
    CompilationPlan,
    CompletionError,
    SynthesisError,
    TrigSeries,
    build_crot_circuit,
    build_toffoli_circuit,
    circuit_unitary,
    crot_angles,
    evaluate_plan,
    extract_angles,
    ideal_weighted,
    pad_for_phase_reset,
    phase_distance,
    phase_reset_ok,
    weighted_angles,
)
from mscompile import synthesis
from mscompile.su2 import norm_2x2, rx, rz
from mscompile.synthesis import MAX_PULSES, _crot_quadruple, _weighted_quadruple

GRID = np.linspace(0, 2 * np.pi, 1024, endpoint=False)


def _random_plan(rng, max_half_degree=6):
    length = 2 * int(rng.integers(0, max_half_degree + 1))
    return tuple(rng.uniform(-np.pi, np.pi, length + 1))


class TestEvaluatePlan:
    def test_all_zero_is_double_x(self):
        np.testing.assert_allclose(evaluate_plan((0.0, 0.0, 0.0), np.pi), -np.eye(2), atol=1e-14)

    def test_empty_train_is_rz(self):
        for theta in (0.0, 1.3, -2.2):
            np.testing.assert_allclose(evaluate_plan((0.7,), theta), rz(0.7), atol=1e-15)

    def test_zero_angle_collapses_to_rz(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            phis = _random_plan(rng)
            np.testing.assert_allclose(evaluate_plan(phis, 0.0), rz(phis[0]), atol=1e-13)

    def test_parity_of_components(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            phis = _random_plan(rng)
            theta = rng.uniform(0, 2 * np.pi)
            a1, b1, c1, d1 = pauli_components(evaluate_plan(phis, theta))
            a2, b2, c2, d2 = pauli_components(evaluate_plan(phis, -theta))
            assert abs(a1 - a2) < 1e-12 and abs(d1 - d2) < 1e-12
            assert abs(b1 + b2) < 1e-12 and abs(c1 + c2) < 1e-12

    @pytest.mark.parametrize("length", [2, 14, 64, 512])
    def test_matches_the_literal_product(self, length):
        rng = np.random.default_rng(length)
        phis = tuple(rng.uniform(-np.pi, np.pi, length + 1))
        for theta in (0.0, np.pi, 2 * np.pi, -1.3, rng.uniform(-2 * np.pi, 2 * np.pi)):
            want = rz(phis[0])
            for phi in phis[1:]:
                want = want @ rz(phi) @ rx(theta) @ rz(-phi)
            np.testing.assert_allclose(evaluate_plan(phis, theta), want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_angle_gives_nan_entries_quietly(self, bad):
        # su2.rotation's rule: NaN entries, with no exception and no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for phis in ((0.0, bad, 0.3), (bad, 0.2, 0.3), (0.1, 0.2, bad)):
                assert np.isnan(evaluate_plan(phis, 1.1)).all(), phis

    def test_special_unitary(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            u = evaluate_plan(_random_plan(rng), rng.uniform(0, 2 * np.pi))
            assert abs(np.linalg.det(u) - 1) < 1e-12
            np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


class TestComplete:
    def test_trivial_quadruple(self):
        # P = 0, or so small that it underflows on part of the grid
        quads = [_crot_quadruple(4, 0.0), _weighted_quadruple(3, [0.0] * 3)]
        quads += [_crot_quadruple(4, 1e-160), _weighted_quadruple(3, [1e-160, 0.0, 0.0])]
        for _, _, c, d in quads:
            np.testing.assert_allclose(c.evaluate(GRID), 0.0, atol=1e-14)
            np.testing.assert_allclose(d.evaluate(GRID), 0.0, atol=1e-14)

    def test_n2_pi_has_unit_d_at_pi(self):
        _, _, _, d = _crot_quadruple(2, np.pi)
        assert d.evaluate(np.pi) == pytest.approx(-1.0, abs=1e-12)  # -sin(pi/2)

    def test_branch_sign_flip(self):
        a_minus, _, c_minus, d_minus = _crot_quadruple(2, np.pi)
        a_plus, _, c_plus, d_plus = _crot_quadruple(2, -np.pi)
        assert a_minus == a_plus
        assert d_minus.evaluate(np.pi) == pytest.approx(-d_plus.evaluate(np.pi), abs=1e-12)
        np.testing.assert_allclose(c_minus.evaluate(GRID), -c_plus.evaluate(GRID), atol=1e-14)

    def test_nan_series_is_a_completion_error(self):
        with pytest.raises(CompletionError, match="nan"):
            crot_angles(5, np.nan)
        with pytest.raises(CompletionError, match="nan"):
            weighted_angles(3, [0.4, np.nan, 1.1])

    @pytest.mark.parametrize("sign", [0, 2, -0.5])
    def test_d_sign_must_be_plus_or_minus_one(self, sign):
        with pytest.raises(ValueError, match="d_sign_at_pi must be"):
            synthesis.complete(np.zeros(9), np.array([]), 2, sign)

    def test_random_admissible_normalized(self):
        rng = np.random.default_rng(13)
        for trial in range(25):
            n = int(rng.integers(2, 9))
            if trial % 3 == 0:
                a, b, c, d = _weighted_quadruple(n, rng.uniform(-np.pi, np.pi, n))
            else:
                a, b, c, d = _crot_quadruple(n, rng.uniform(-2 * np.pi, 2 * np.pi))
            assert c.parity == "odd" and d.parity == "even"
            total = a(GRID) ** 2 + b(GRID) ** 2 + c(GRID) ** 2 + d(GRID) ** 2
            assert np.max(np.abs(total - 1)) < 1e-10


class TestExtractAngles:
    def test_constant_identity(self):
        a = TrigSeries(EVEN, (1.0,))
        z = TrigSeries.zero
        phis = extract_angles(a, z("odd"), z("odd"), z("even"))
        assert phis == (0.0,)

    def test_pure_x_rotation(self):
        a = TrigSeries(EVEN, (0.0, 1.0))
        b = TrigSeries(ODD, (0.0, -1.0))
        phis = extract_angles(a, b, TrigSeries.zero("odd", 1), TrigSeries.zero("even", 1))
        np.testing.assert_allclose(phis, (0.0, 0.0, 0.0), atol=1e-9)
        theta = 0.83
        np.testing.assert_allclose(evaluate_plan(phis, theta), rx(2 * theta), atol=1e-12)

    def test_nan_quadruple_is_an_extraction_error(self):
        from mscompile import ExtractionError

        a = TrigSeries(EVEN, (np.nan, 0.5))
        z = TrigSeries.zero
        with pytest.raises(ExtractionError, match="nan"):
            extract_angles(a, z("odd", 1), z("odd", 1), z("even", 1))

    def test_series_in_the_wrong_roles_are_refused(self):
        a, b, c, d = _crot_quadruple(3, 1.1)
        for quad in ((b, a, c, d), (a, b, d, c), (a, d, c, b)):
            with pytest.raises(ValueError, match="expected a (even|odd) series"):
                extract_angles(*quad)

    def test_crot_n3_length_before_padding(self):
        phis = extract_angles(*_crot_quadruple(3, np.pi))
        assert len(phis) - 1 == 4  # L = 2N - 2

    def test_round_trip_from_sampled_plan(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            phis = _random_plan(rng, max_half_degree=5)
            half = (len(phis) - 1) // 2
            k = 8 * (half + 1)
            thetas = 2 * np.pi * np.arange(k) / k
            mats = np.stack([evaluate_plan(phis, t) for t in thetas])
            comps = np.stack([pauli_components(m) for m in mats]).real
            a = series_from_samples(comps[:, 0], half, "even")
            b = series_from_samples(comps[:, 1], half, "odd")
            c = series_from_samples(comps[:, 2], half, "odd")
            d = series_from_samples(comps[:, 3], half, "even")
            recovered = extract_angles(a, b, c, d)
            for t in rng.uniform(0, 2 * np.pi, 6):
                err = np.linalg.norm(evaluate_plan(recovered, t) - evaluate_plan(phis, t), ord=2)
                assert err < 1e-9


class TestPadding:
    def test_pad_rounds_up_to_2n(self):
        plan = CompilationPlan(3, np.pi / 3, -np.pi / 3, (0.1, 0.2, 0.3, 0.4, 0.5))
        padded = pad_for_phase_reset(plan)
        assert padded.num_pulses == 6
        assert padded.phis[5:] == (np.pi, 0.0)
        assert phase_reset_ok(padded.num_pulses, padded.tau)

    def test_pad_noop_at_multiple(self):
        plan = CompilationPlan(3, np.pi / 3, -np.pi / 3, tuple(np.linspace(0, 1, 7)))
        assert pad_for_phase_reset(plan) == plan

    def test_pad_two_pairs(self):
        plan = CompilationPlan(3, np.pi / 3, -np.pi / 3, tuple(np.linspace(0, 1, 9)))
        padded = pad_for_phase_reset(plan)
        assert padded.num_pulses == 12

    def test_pad_preserves_action_pointwise(self):
        rng = np.random.default_rng(15)
        plan = CompilationPlan(4, np.pi / 4, -np.pi / 4, _random_plan(rng, 3))
        padded = pad_for_phase_reset(plan)
        for theta in rng.uniform(-np.pi, np.pi, 20):
            np.testing.assert_allclose(
                evaluate_plan(padded.phis, theta), evaluate_plan(plan.phis, theta), atol=1e-13
            )


class TestCrotAngles:
    def test_identity_angle_gives_identity_blocks(self):
        plan = crot_angles(2, 0.0)
        from mscompile.subspace import compute_thetas

        for theta in compute_thetas(2, plan.tau, plan.h):
            u = evaluate_plan(plan.phis, theta)
            assert abs(abs(np.trace(u)) - 2) < 1e-9  # proportional to identity

    def test_n7_has_14_pulses(self):
        plan = crot_angles(7, np.pi)
        assert plan.num_pulses == 14

    def test_plan_blocks_match_target(self):
        # two near-identity angles and a large N
        cases = [(3, -np.pi), (4, 0.3), (5, 2 * np.pi), (10, -0.001)]
        cases += [(12, 0.0019827690549103494), (48, np.pi), (64, 2 * np.pi - 0.05)]
        cases += [(10, 2 * np.pi), (10, 2 * np.pi - 1e-4)]
        cases += [(64, 1e-4), (64, -1e-4), (96, 1e-4)]  # the pin solve's rounding failed these
        # P formed as 1 - A^2 sat at rounding level here: completion took
        # P(pi) for a zero (the first two), or the identity blocks missed 1
        # by 1.04e-9 with no error raised (the last two)
        cases += [(10, 2 * np.pi - 1e-6), (27, 1e-6), (12, 1e-6), (12, -1e-6)]
        for n, alpha in cases:
            assert node_block_miss(crot_angles(n, alpha), crot_targets(n, alpha)) <= 1e-9, (n, alpha)
        # a subtracted P left these weight blocks 2.1e-9 off Rx(alpha_q), with no error raised
        alphas = [6.2831852584218755, 6.283184308003471]
        assert node_block_miss(weighted_angles(2, alphas), weighted_targets(alphas)) <= 1e-9

    @pytest.mark.parametrize("n, alpha", [(10, 2 * np.pi - 1e-6), (27, 1e-6), (5, 1.1)])
    def test_controlled_block_miss_is_a_completion_error(self, monkeypatch, n, alpha):
        # the guard behind completion's D(pi) sign rule: a D(pi) of the
        # wrong sign must not compile.  Near identity (the first two cases)
        # |D(pi)| = |sin(alpha/2)| = 5e-7, so the flipped block misses
        # Rz(alpha) by only 1e-6; these once compiled with D(pi) = 0, a miss of 5e-7
        complete = synthesis.complete
        monkeypatch.setattr(synthesis, "complete", lambda p, roots, degree, sign: complete(p, roots, degree, -sign))
        with pytest.raises(CompletionError, match="controlled block misses"):
            crot_angles(n, alpha)

    def test_alpha_reaches_the_quadruple_unchanged(self, monkeypatch):
        # a fold into (-2*pi, 2*pi] once turned -0.3 into -0.3000000000000007
        seen = []
        quadruple = synthesis._crot_quadruple
        monkeypatch.setattr(synthesis, "_crot_quadruple", lambda n, alpha: seen.append(alpha) or quadruple(n, alpha))
        crot_angles(5, -0.3)
        assert seen == [-0.3]

    def test_compiles_beyond_two_pi(self):
        plan = crot_angles(6, 3 * np.pi)
        assert np.linalg.norm(evaluate_plan(plan.phis, np.pi) - rz(3 * np.pi), ord=2) <= 1e-9
        assert node_block_miss(plan, crot_targets(6, 3 * np.pi)) <= 1e-9

    def test_quadruple_normalization_over_sweep(self):
        for n in range(2, 9):
            for alpha in (0.3, np.pi / 2, np.pi, 2 * np.pi):
                a, b, c, d = _crot_quadruple(n, alpha)
                total = a(GRID) ** 2 + b(GRID) ** 2 + c(GRID) ** 2 + d(GRID) ** 2
                assert np.max(np.abs(total - 1)) < 1e-10


class TestWeightedAngles:
    @pytest.mark.parametrize("n", [6, 7, 8])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_profiles_compile_and_verify(self, n, seed):
        # completion once leaked a nonzero sin(0) coefficient into C here
        alphas = np.random.default_rng(100 * n + seed).uniform(-np.pi, np.pi, size=n)
        circ = build_crot_circuit(weighted_angles(n, alphas))
        assert phase_distance(circuit_unitary(circ), ideal_weighted(n, alphas)) < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_pad_alone_lengthens_the_train(self, monkeypatch, n):
        # extraction stops at 2 * degree = 4N - 2 pulses; the identity pair is padding's
        seen = []
        pad = synthesis.pad_for_phase_reset

        def spy(plan):
            padded = pad(plan)
            seen.append((plan.num_pulses, padded.num_pulses))
            return padded

        monkeypatch.setattr(synthesis, "pad_for_phase_reset", spy)
        weighted_angles(n, np.linspace(-1.0, 1.3, n))
        assert seen == [(4 * n - 2, 4 * n)]

    def test_compiles_at_n_max(self):
        # the largest weighted N within the pulse budget (4N pulses), so README's N_max (N_max + 1 is in test_cli)
        n = MAX_PULSES // 4
        rng = np.random.default_rng(n)
        for alphas in (rng.uniform(-np.pi, np.pi, n), 0.7 + 1e-6 * rng.uniform(-1.0, 1.0, n)):
            assert node_block_miss(weighted_angles(n, alphas), weighted_targets(alphas)) <= 1e-9


@pytest.mark.parametrize("kind,pulses_per_qubit", [("crot", 2), ("weighted", 4)], ids=["crot", "weighted"])
def test_over_budget_is_refused_before_the_fit(monkeypatch, kind, pulses_per_qubit):
    """A train over MAX_PULSES raises SynthesisError before any numerics: neither the
    fit nor the O(n) read of the weighted angles is called."""
    def refuse(name):
        def call(*args):
            raise AssertionError(f"{name} ran")
        return call

    for name in ("fit_A", "fit_weight_dependent", "_angles"):
        monkeypatch.setattr(synthesis, name, refuse(name))
    n = 10**5
    with pytest.raises(SynthesisError, match=f"{kind} is supported up to N = {MAX_PULSES // pulses_per_qubit}, got N = {n}"):
        crot_angles(n, 1.0) if kind == "crot" else weighted_angles(n, np.zeros(n))


def test_plan_validation():
    with pytest.raises(ValueError):
        CompilationPlan(3, 1.0, -1.0, (0.1, 0.2))  # odd L
    with pytest.raises(ValueError):
        CompilationPlan(3, 1.0, -1.0, ())
    with pytest.raises(ValueError):
        CompilationPlan(1, 1.0, -1.0, (0.0,))


@pytest.mark.parametrize(
    "call",
    [
        lambda: crot_angles(4.5, 1.0),
        lambda: crot_angles("4", 1.0),
        lambda: crot_angles(True, 1.0),
        lambda: crot_angles(4, "1.0"),
        lambda: crot_angles(4, 1j),
        lambda: crot_angles(4, True),
        lambda: build_toffoli_circuit(3.0),
        lambda: weighted_angles(3.0, (0.1, 0.2, 0.3)),
        lambda: weighted_angles(3, (0.1, "0.2", 0.3)),
        lambda: weighted_angles(3, (0.1, 0.2, np.complex128(0.3))),
        lambda: weighted_angles(3, (0.1, np.True_, 0.3)),
        lambda: CompilationPlan(3.5, 1.0, 1.0, (0.0,)),
    ],
    ids=["crot_float_n", "crot_string_n", "crot_bool_n", "crot_string_alpha", "crot_complex_alpha", "crot_bool_alpha",
         "toffoli_float_n", "weighted_float_n", "weighted_string_angle", "weighted_complex_angle", "weighted_bool_angle",
         "plan_float_n"],
)
def test_arguments_follow_the_ir_rules(call):
    """A count is an integer and an angle a real number, as in Gate and Circuit."""
    with pytest.raises(ValueError, match="must be an integer|must be a real number"):
        call()


def test_numpy_counts_and_angles_give_the_same_plans():
    alphas = (0.4, -1.1, 2.0)
    assert crot_angles(np.int64(6), np.float64(0.7)) == crot_angles(6, 0.7)
    assert weighted_angles(np.int32(3), np.array(alphas)) == weighted_angles(3, alphas)
    assert build_toffoli_circuit(np.int64(3)) == build_toffoli_circuit(3)
    assert type(CompilationPlan(np.int64(3), 1.0, -1.0, (0.0,)).n) is int


def test_extraction_matches_quadruple_on_grid():
    rng = np.random.default_rng(18)
    cases = [_crot_quadruple(n, rng.uniform(-2 * np.pi, 2 * np.pi)) for n in range(2, 8)]
    cases += [_weighted_quadruple(n, rng.uniform(-np.pi, np.pi, n)) for n in (2, 3, 3)]
    # peels of L = 30..62, off the library's own grid
    cases += [_crot_quadruple(n, rng.uniform(-2 * np.pi, 2 * np.pi)) for n in (16, 24, 32)]
    for quad in cases:
        degree = max(s.degree for s in quad)
        phis = extract_angles(*quad)
        assert len(phis) == 2 * degree + 1
        for theta in rng.uniform(0, 2 * np.pi, 16):
            err = np.linalg.norm(evaluate_plan(phis, theta) - quadruple_matrix(*quad, theta), ord=2)
            assert err < 1e-9, (degree, theta, err)


def test_peel_step_is_the_projector_product():
    rng = np.random.default_rng(21)
    for length in (2, 3, 8, 33):
        for phi in (0.0, np.pi, -np.pi / 2, *rng.uniform(-np.pi, np.pi, 4)):
            live = rng.uniform(-1, 1, (length, 2, 2)) + 1j * rng.uniform(-1, 1, (length, 2, 2))
            e = np.exp(1j * phi)
            t_plus = 0.5 * np.array([[1.0, -np.conj(e)], [-e, 1.0]])
            t_minus = np.eye(2) - t_plus
            want = live[1:] @ t_plus + live[:-1] @ t_minus
            np.testing.assert_allclose(synthesis._peel_step(live, phi), want, rtol=0, atol=1e-15)


def test_live_layer_peel_matches_the_full_width_peel_bit_for_bit():
    rng = np.random.default_rng(20)
    cases = [
        (f"crot {n} {alpha!r}", _crot_quadruple(n, alpha))
        for n in range(2, 25)
        for alpha in (0.0, 1e-8, np.pi / 2, np.pi, 2 * np.pi, -0.3)
    ]
    for n in range(2, 9):
        for alphas in (np.zeros(n), np.full(n, 0.7), rng.uniform(-np.pi, np.pi, n)):
            cases.append((f"weighted {n} {alphas}", _weighted_quadruple(n, alphas)))
    for name, quad in cases:
        assert extract_angles(*quad) == full_width_angles(*quad), name


@pytest.mark.parametrize("n", [9, 32])
def test_weighted_p_in_row_blocks_matches_one_block(monkeypatch, n):
    # grids of 2048 and 4096 points: two and four blocks of synthesis._P_BLOCK_ROWS
    seen = []
    complete = synthesis.complete
    monkeypatch.setattr(synthesis, "complete", lambda p, *rest: seen.append(p) or complete(p, *rest))
    alphas = np.random.default_rng(n).uniform(-np.pi, np.pi, n)
    _weighted_quadruple(n, alphas)
    thetas = np.array(synthesis.compute_thetas(n, *synthesis.weighted_params(n)))
    nodes = np.concatenate([thetas, -thetas])
    grid = synthesis._completion_grid(2 * n - 1)
    assert grid.size > synthesis._P_BLOCK_ROWS
    phases = np.concatenate([-alphas, alphas]) / 2.0
    fejer = synthesis._fejer(2 * n, np.subtract.outer(grid, nodes))
    gaps = 4.0 * np.sin(np.subtract.outer(phases, phases) / 2.0) ** 2
    want = 0.5 * np.einsum("ij,ij->i", fejer, fejer @ gaps)
    np.testing.assert_allclose(seen[0], want, rtol=1e-14, atol=0)


def test_norm_2x2_matches_lapack():
    rng = np.random.default_rng(19)

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    rank_one = np.einsum("ki,kj->kij", cplx(50, 2), cplx(50, 2).conj())
    unitary = np.stack([evaluate_plan(_random_plan(rng), t) for t in rng.uniform(0, 7, 50)])
    phased = np.exp(1j * rng.uniform(0, 7, (50, 1, 1))) * unitary
    for mats in (cplx(200, 2, 2), rank_one, unitary, phased, np.zeros((1, 2, 2))):
        for scale in (1.0, 1e-15, 1e3):
            m = scale * mats
            want = np.linalg.norm(m, ord=2, axis=(-2, -1))
            np.testing.assert_allclose(norm_2x2(m), want, rtol=1e-12, atol=0)
