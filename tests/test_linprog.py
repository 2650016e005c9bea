"""Exact simplex on origin-feasible programs: optimality, rays, vertices."""

import itertools
import random
from fractions import Fraction as F

import pytest

from deflator_lab.enlargement import _eliminate
from deflator_lab.linprog import OPTIMAL, UNBOUNDED, LinearProgram


def test_bounded_optimum_exact():
    lp = LinearProgram(2)
    lp.add_ge({0: F(1)}, F(0))
    lp.add_ge({1: F(1)}, F(0))
    lp.set_objective({0: F(3), 1: F(5)})
    lp.add_le({0: F(1)}, F(4))
    lp.add_le({1: F(2)}, F(12))
    lp.add_le({0: F(3), 1: F(2)}, F(18))
    res = lp.solve()
    assert res.status == OPTIMAL
    assert res.value == 36
    assert res.x == [F(2), F(6)]


def test_rows_must_hold_at_the_origin():
    lp = LinearProgram(1)
    with pytest.raises(ValueError):
        lp.add_le({0: F(1)}, F(-1))
    with pytest.raises(ValueError):
        lp.add_ge({0: F(1)}, F(1))
    assert lp.rows == []


def test_unbounded_returns_improving_ray():
    lp = LinearProgram(2)
    lp.set_objective({0: F(1), 1: F(0)})
    lp.add_ge({0: F(1), 1: F(-1)}, F(-3))   # x - y >= -3, both free
    res = lp.solve()
    assert res.status == UNBOUNDED
    d = res.ray
    # the ray must satisfy the homogeneous constraint and improve the objective
    assert d[0] - d[1] >= 0
    assert d[0] > 0


def test_degenerate_problems_terminate():
    # Bland's rule must survive heavy degeneracy: many redundant rows
    lp = LinearProgram(3)
    for j in range(3):
        lp.add_ge({j: F(1)}, F(0))
    lp.set_objective({0: F(1), 1: F(1), 2: F(1)})
    for _ in range(4):
        lp.add_le({0: F(1), 1: F(1), 2: F(1)}, F(1))
        lp.add_le({0: F(1), 1: F(1)}, F(1))
        lp.add_le({0: F(1)}, F(1))
    res = lp.solve()
    assert res.status == OPTIMAL
    assert res.value == 1


def _lhs(coeffs, x):
    return sum((c * x[j] for j, c in coeffs.items()), F(0))


def test_randomized_against_feasibility_checks():
    rng = random.Random(2024)
    statuses = set()
    for trial in range(40):
        n = rng.randint(1, 4)
        lp = LinearProgram(n)
        for j in range(n):
            if rng.random() < 0.5:
                lp.add_ge({j: F(1)}, F(0))
        lp.set_objective({j: F(rng.randint(-4, 4)) for j in range(n)})
        for _ in range(rng.randint(1, 5)):
            lp.add_le({j: F(rng.randint(-3, 3)) for j in range(n)},
                      F(rng.randint(0, 4)))
        res = lp.solve()
        statuses.add(res.status)
        if res.status == OPTIMAL:
            x = res.x
            assert all(_lhs(coeffs, x) <= rhs for coeffs, rhs in lp.rows)
            assert _lhs(lp.objective, x) == res.value
            assert res.value >= 0          # x = 0 is feasible
        else:
            assert res.status == UNBOUNDED
            d = res.ray
            # homogeneous feasibility of the ray and positive objective rate
            assert all(_lhs(coeffs, d) <= 0 for coeffs, _ in lp.rows)
            assert _lhs(lp.objective, d) > 0
    assert statuses == {OPTIMAL, UNBOUNDED}


def test_optimum_is_the_best_vertex():
    """On boxed programs the simplex value is the largest objective over all
    vertices, each found by solving an n-row subset of the rows."""
    rng = random.Random(20_261_018)
    for trial in range(150):
        n = rng.randint(1, 3)
        lp = LinearProgram(n)
        lp.set_objective({j: F(rng.randint(-4, 4)) for j in range(n)})
        for _ in range(rng.randint(0, 4)):
            lp.add_le({j: F(rng.randint(-3, 3)) for j in range(n)},
                      F(rng.randint(0, 4), rng.randint(1, 3)))
        for j in range(n):
            lp.add_le({j: F(1)}, F(5))
            lp.add_ge({j: F(1)}, F(-5))
        res = lp.solve()
        assert res.status == OPTIMAL, trial

        best = None
        for subset in itertools.combinations(lp.rows, n):
            rank, x = _eliminate(
                [[coeffs.get(j, F(0)) for j in range(n)] for coeffs, _ in subset],
                [rhs for _, rhs in subset])
            if rank < n or x is None:
                continue
            if all(_lhs(coeffs, x) <= rhs for coeffs, rhs in lp.rows):
                value = _lhs(lp.objective, x)
                best = value if best is None else max(best, value)
        assert best is not None, trial     # the box has 2^n vertices
        assert res.value == best, trial
        assert _lhs(lp.objective, res.x) == res.value
