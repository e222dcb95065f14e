"""Joint-table construction, feasibility ranges, and moment constraints."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import checked_cells, named_dual_cells, named_triple_cells, random_triple_params
from dualsim.errors import InfeasibleParamsError, ValidationError
from dualsim.outcome_model import (
    DualOutcomeParams,
    RedistributionPolicy,
    TripleOutcomeParams,
    build_dual_joint,
    build_triple_joint,
    lambda_feasible_range,
    lambda_loose_range,
)

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
# dependence terms wide enough that about half the draws are infeasible
deps = st.floats(min_value=-0.4, max_value=0.4, allow_nan=False)


def built(build, params):
    """Cells as float.hex strings, or the (cell, value bits, message) of the
    InfeasibleParamsError raised instead."""
    try:
        return [float(c).hex() for c in build(params)]
    except InfeasibleParamsError as e:
        return e.cell, float(e.value).hex(), str(e)


def reference_dual(params):
    return checked_cells(named_dual_cells(params))


def reference_triple(params):
    return checked_cells(named_triple_cells(params))


def cell(cells, *bits):
    """Pr(hop h correct == bits[h] for every hop) from the bit-ordered cells."""
    return cells[int("".join(map(str, bits)), 2)]


def correct_mass(cells, *hops):
    """Pr(every hop in ``hops`` correct), summed from the cells reshaped to
    one axis per hop (the first hop is the most significant bit)."""
    n_hops = len(cells).bit_length() - 1
    joint = np.reshape(cells, (2,) * n_hops)
    rest = tuple(h for h in range(n_hops) if h not in hops)
    return joint.sum(axis=rest)[(1,) * len(hops)]


class TestBuildDualJoint:
    def test_independent_symmetric(self):
        cells = build_dual_joint(DualOutcomeParams(0.5, 0.5, 0.0, 0.0))
        assert len(cells) == 4
        for c in cells:
            assert c == pytest.approx(0.25, abs=1e-15)

    def test_product_cell(self):
        # measured marginals 0.65 / 0.73, no dependence
        cells = build_dual_joint(DualOutcomeParams(0.65, 0.73, 0.0, 0.0))
        assert cell(cells, 1, 1) == pytest.approx(0.4745, abs=1e-12)

    def test_infeasible_lambda_names_cell(self):
        with pytest.raises(InfeasibleParamsError) as exc:
            build_dual_joint(DualOutcomeParams(0.6, 0.7, 0.2, 0.0))
        assert exc.value.cell == (1, 0)
        assert "(1, 0)" in str(exc.value)

    @given(p12=probs, p21r=probs, u=probs, delta=probs)
    @settings(max_examples=200, deadline=None)
    def test_marginals_reproduced_exactly(self, p12, p21r, u, delta):
        low, high = lambda_feasible_range(p12, p21r)
        # clamp: the lerp can round just past the endpoint
        lam = min(max(low + u * (high - low), low), high)
        cells = build_dual_joint(DualOutcomeParams(p12, p21r, lam, delta))
        assert correct_mass(cells, 0) == pytest.approx(p12, abs=1e-12)
        assert correct_mass(cells, 1) == pytest.approx(p21r, abs=1e-12)
        assert correct_mass(cells, 0, 1) == pytest.approx(p12 * p21r + lam, abs=1e-12)
        assert sum(cells) == pytest.approx(1.0, abs=1e-12)

    def test_param_validation(self):
        with pytest.raises(ValidationError):
            DualOutcomeParams(1.2, 0.5, 0.0, 0.0)
        with pytest.raises(ValidationError):
            DualOutcomeParams(0.5, 0.5, float("nan"), 0.0)
        with pytest.raises(ValidationError):
            DualOutcomeParams(0.5, 0.5, 0.0, -0.1)
        with pytest.raises(ValidationError, match=r"^p12 must be a number in \[0, 1\], got nan$"):
            DualOutcomeParams(float("nan"), 0.5, 0.0, 0.0)
        # float() of an int past the float range raised OverflowError
        with pytest.raises(ValidationError, match="^lam must be a finite number, got 1000"):
            DualOutcomeParams(0.5, 0.5, 10**400, 0.1)


class TestBitIdentity:
    """The joint-table builders against the named-cell references in conftest:
    the same cells bit for bit, or the same first negative cell and message."""

    @given(p12=probs, p21r=probs, lam=deps, delta=probs)
    @settings(max_examples=400, deadline=None)
    @example(p12=0.5, p21r=0.5, lam=0.3, delta=0.0)  # (1, 0) and (0, 1) negative
    @example(p12=0.5, p21r=0.5, lam=-0.3, delta=0.0)  # (1, 1) and (0, 0) negative
    def test_dual_matches_named_reference(self, p12, p21r, lam, delta):
        params = DualOutcomeParams(p12, p21r, lam, delta)
        assert built(build_dual_joint, params) == built(reference_dual, params)

    @given(q=st.tuples(probs, probs, probs), lam1=deps, lam2=deps, delta=probs)
    @settings(max_examples=400, deadline=None)
    @example(q=(0.5, 0.6, 0.7), lam1=0.1, lam2=0.0, delta=0.0)
    @example(q=(0.5, 0.5, 0.5), lam1=-0.3, lam2=0.3, delta=0.0)
    def test_triple_matches_named_reference(self, q, lam1, lam2, delta):
        params = TripleOutcomeParams(*q, lam1, lam2, delta)
        assert built(build_triple_joint, params) == built(reference_triple, params)

    @pytest.mark.parametrize(
        "named, params",
        [
            (named_dual_cells, DualOutcomeParams(0.5, 0.5, 0.3, 0.0)),
            (named_dual_cells, DualOutcomeParams(0.5, 0.5, -0.3, 0.0)),
            (named_triple_cells, TripleOutcomeParams(0.5, 0.6, 0.7, 0.1, 0.0, 0.0)),
            (named_triple_cells, TripleOutcomeParams(0.5, 0.5, 0.5, -0.3, 0.3, 0.0)),
        ],
    )
    def test_examples_have_two_negative_cells(self, named, params):
        """The explicit examples above exercise the first-of-several rule."""
        assert sum(v < 0.0 for v in named(params).values()) >= 2

    @given(p12=probs, p21r=probs, lam=deps, delta=probs, q3=probs, lam2=deps)
    @settings(max_examples=200, deadline=None)
    def test_numpy_scalar_inputs_give_the_same_bits(self, p12, p21r, lam, delta, q3, lam2):
        """Draws from a numpy Generator arrive as np.float64: the cells and
        the first negative cell keep their bits."""
        f = np.float64
        for package, reference, args in (
            (build_dual_joint, reference_dual, (p12, p21r, lam, delta)),
            (build_triple_joint, reference_triple, (p12, p21r, q3, lam, lam2, delta)),
        ):
            cls = DualOutcomeParams if len(args) == 4 else TripleOutcomeParams
            got = built(package, cls(*map(f, args)))
            want = built(reference, cls(*map(f, args)))
            if isinstance(want, tuple):  # the message shows the value's own type
                got, want = got[:2], want[:2]
            assert got == want

    def test_int_inputs_give_float_cells(self):
        """Each input is read once as a float, so an all-int model gets float
        cells: the theory command prints its p_case11 as 1.0, where the named
        form printed the int 1, and the error shows -1.0, not -1."""
        cells = build_dual_joint(DualOutcomeParams(1, 1, 0, 0))
        assert cells == (0.0, 0.0, 0.0, 1.0)
        assert all(type(c) is float for c in cells)
        with pytest.raises(InfeasibleParamsError, match=r"\(1, 1\) would be negative: -1\.0$"):
            build_dual_joint(DualOutcomeParams(0, 0, -1, 0))


class TestLambdaRange:
    def test_symmetric(self):
        assert lambda_feasible_range(0.5, 0.5) == (-0.25, 0.25)

    def test_degenerate_marginal_forces_independence(self):
        for p in (0.0, 0.3, 1.0):
            low, high = lambda_feasible_range(1.0, p)
            assert low == 0.0 and high == 0.0

    def test_feasibility_flips_exactly_at_endpoints(self):
        # independent oracle: scan a lambda grid and check acceptance
        # against interval membership, plus endpoint +/- 1e-9 probes
        p12, p21r = 0.6, 0.7
        low, high = lambda_feasible_range(p12, p21r)
        assert (low, high) == pytest.approx((-0.12, 0.18), abs=1e-12)

        def feasible(lam):
            try:
                build_dual_joint(DualOutcomeParams(p12, p21r, lam, 0.0))
                return True
            except InfeasibleParamsError:
                return False

        for lam in np.linspace(-0.5, 0.5, 1001):
            assert feasible(lam) == (low <= lam <= high)
        assert feasible(low) and feasible(high)
        assert feasible(high - 1e-9) and not feasible(high + 1e-9)
        assert feasible(low + 1e-9) and not feasible(low - 1e-9)

    @given(p12=probs, p21r=probs)
    @settings(max_examples=200, deadline=None)
    def test_loose_range_contains_tight(self, p12, p21r):
        low, high = lambda_feasible_range(p12, p21r)
        loose_low, loose_high = lambda_loose_range(p12, p21r)
        assert loose_low <= low <= high <= loose_high

    @given(p12=probs, p21r=probs)
    @settings(max_examples=100, deadline=None)
    def test_endpoints_always_feasible(self, p12, p21r):
        low, high = lambda_feasible_range(p12, p21r)
        for lam in (low, high):
            build_dual_joint(DualOutcomeParams(p12, p21r, lam, 0.0))


class TestRedistributionPolicy:
    def test_simplex_enforced(self):
        RedistributionPolicy(0.3, 0.28, 0.42)
        with pytest.raises(ValidationError):
            RedistributionPolicy(0.5, 0.5, 0.5)
        with pytest.raises(ValidationError):
            RedistributionPolicy(-0.1, 0.6, 0.5)
        with pytest.raises(ValidationError, match=r"^alpha must be a number in \[0, 1\], got 1000"):
            RedistributionPolicy(10**400, 0, 0)


def _solve_triple_system(params: TripleOutcomeParams) -> dict[tuple[int, int, int], float]:
    """Independent oracle: solve the eight moment equations directly."""
    outcomes = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    rows, rhs = [], []
    rows.append([1.0] * 8)
    rhs.append(1.0)
    for axis, q in zip(range(3), (params.q12, params.q23, params.q31)):
        rows.append([float(o[axis]) for o in outcomes])
        rhs.append(q)
    for (a, b), q in zip(
        [(0, 1), (1, 2), (0, 2)],
        (
            params.q12 * params.q23 + params.lam1,
            params.q23 * params.q31 + params.lam1,
            params.q12 * params.q31 + params.lam1,
        ),
    ):
        rows.append([float(o[a] * o[b]) for o in outcomes])
        rhs.append(q)
    rows.append([float(o[0] * o[1] * o[2]) for o in outcomes])
    rhs.append(params.q12 * params.q23 * params.q31 + params.lam2)
    solution = np.linalg.solve(np.array(rows), np.array(rhs))
    return dict(zip(outcomes, solution))


class TestBuildTripleJoint:
    def test_independent_uniform(self):
        cells = build_triple_joint(TripleOutcomeParams(0.5, 0.5, 0.5, 0.0, 0.0, 0.0))
        assert len(cells) == 8
        assert all(c == pytest.approx(0.125, abs=1e-15) for c in cells)

    def test_product_top_cell(self):
        cells = build_triple_joint(TripleOutcomeParams(0.6, 0.7, 0.8, 0.0, 0.0, 0.0))
        assert cell(cells, 1, 1, 1) == pytest.approx(0.336, abs=1e-12)

    def test_dependent_cells_match_linear_solve(self):
        params = TripleOutcomeParams(0.5, 0.5, 0.5, 0.05, 0.02, 0.0)
        cells = build_triple_joint(params)
        assert cell(cells, 0, 0, 0) == pytest.approx(0.255, abs=1e-12)
        assert sum(cells) == pytest.approx(1.0, abs=1e-12)
        expected = _solve_triple_system(params)
        for outcome, value in expected.items():
            assert cell(cells, *outcome) == pytest.approx(value, abs=1e-12)

    def test_moment_constraints_on_random_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            params = random_triple_params(rng, with_dependence=True)
            cells = build_triple_joint(params)
            assert sum(cells) == pytest.approx(1.0, abs=1e-12)
            for axis, q in zip(range(3), (params.q12, params.q23, params.q31)):
                assert correct_mass(cells, axis) == pytest.approx(q, abs=1e-12)
            for a, b, q in [
                (0, 1, params.q12 * params.q23),
                (1, 2, params.q23 * params.q31),
                (0, 2, params.q12 * params.q31),
            ]:
                assert correct_mass(cells, a, b) == pytest.approx(q + params.lam1, abs=1e-12)
            assert cell(cells, 1, 1, 1) == pytest.approx(
                params.q12 * params.q23 * params.q31 + params.lam2, abs=1e-12
            )
            solved = _solve_triple_system(params)
            for outcome, value in solved.items():
                assert cell(cells, *outcome) == pytest.approx(value, abs=1e-12)

    def test_infeasible_names_cell(self):
        # lam1 = 0.1 starves the single-correct cells at moderate marginals
        with pytest.raises(InfeasibleParamsError) as exc:
            build_triple_joint(TripleOutcomeParams(0.5, 0.6, 0.7, 0.1, 0.0, 0.0))
        assert len(exc.value.cell) == 3

    @pytest.mark.parametrize(
        "at, message",
        [(0, r"q12 must be a number in \[0, 1\], got 1.5"),
         (1, r"q23 must be a number in \[0, 1\], got 1.5"),
         (2, r"q31 must be a number in \[0, 1\], got 1.5"),
         (3, "lam1 must be a finite number, got 'x'"),
         (4, "lam2 must be a finite number, got 'x'"),
         (5, r"delta must be a number in \[0, 1\], got 1.5")],
        ids=["q12", "q23", "q31", "lam1", "lam2", "delta"],
    )
    def test_param_validation_names_each_field(self, at, message):
        args = [0.5, 0.5, 0.5, 0.0, 0.0, 0.1]
        args[at] = "x" if at in (3, 4) else 1.5
        with pytest.raises(ValidationError, match=f"^{message}$"):
            TripleOutcomeParams(*args)
