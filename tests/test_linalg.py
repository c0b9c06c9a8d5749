"""Exact linear system solving and span utilities."""

import random
from fractions import Fraction

import pytest

from relint_kit.errors import InputError
from relint_kit.linalg import (
    in_span,
    project_onto_span,
    rank,
    solve_linear_system,
)
from relint_kit.rational import dot, mat, vec, vsub


def test_single_equation_parametrization():
    # x + y = 1, eliminated by hand: x = 1 - y.
    sol = solve_linear_system(mat([[1, 1]]), vec([1]), 2)
    assert sol.particular == vec([1, 0])
    assert sol.nullspace_basis == (vec([-1, 1]),)


def test_inconsistent_system():
    assert solve_linear_system(mat([[1], [1]]), vec([0, 1]), 1) is None


def test_no_constraints_whole_space():
    sol = solve_linear_system((), (), 2)
    assert sol.particular == vec([0, 0])
    assert sol.nullspace_basis == (vec([1, 0]), vec([0, 1]))


def test_solution_actually_solves():
    E = mat([[2, 1, -1], [1, 0, 1]])
    d = vec([3, 2])
    sol = solve_linear_system(E, d, 3)
    assert [dot(row, sol.particular) for row in E] == list(d)
    for v in sol.nullspace_basis:
        assert all(dot(row, v) == 0 for row in E)
    assert rank(sol.nullspace_basis) == len(sol.nullspace_basis)


def test_rank_of_dependent_rows():
    rows = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(rows) == 2


def test_rank_and_nullspace_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4008)
    deficient = 0
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        M = [[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 5))) for _ in range(cols)]
             for _ in range(rows)]
        if rows > 1 and rng.random() < 0.5:
            # the last row becomes a rational combination of earlier ones
            t = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            M[-1] = [a + t * b for a, b in zip(M[0], M[rng.randrange(rows - 1)])]
        S = sympy.Matrix([[sympy.Rational(a.numerator, a.denominator) for a in row]
                          for row in M])
        expected = S.rank()
        deficient += expected < min(rows, cols)
        assert rank(M) == expected
        sol = solve_linear_system(M, (Fraction(0),) * rows, cols)
        assert len(sol.nullspace_basis) == len(S.nullspace()) == cols - expected
        assert all(dot(row, v) == 0 for row in M for v in sol.nullspace_basis)
    assert deficient >= 50


def test_in_span():
    basis = (vec([1, 0, 1]), vec([0, 1, 0]))
    assert in_span(basis, vec([2, 3, 2]))
    assert not in_span(basis, vec([1, 0, 0]))
    assert in_span((), vec([0, 0, 0]))


def test_projection_preserves_values_on_span():
    dirs = (vec([1, 0, 1]), vec([0, 2, 0]))
    h = vec([3, -1, 5])
    u = project_onto_span(dirs, h)
    assert in_span(dirs, u)
    for d in dirs:
        assert dot(u, d) == dot(h, d)
    # The residual is orthogonal to the span.
    for d in dirs:
        assert dot(vsub(h, u), d) == 0


def test_projection_requires_independent_directions():
    with pytest.raises(InputError):
        project_onto_span((vec([1, 0]), vec([2, 0])), vec([1, 1]))


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError):
        solve_linear_system(mat([[1, 2]]), vec([1]), 3)
