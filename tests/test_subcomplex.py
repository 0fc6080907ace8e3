"""Kernel subcomplexes: the common kernel S_k of condition rows in each
degree of a cochain complex, its restricted differential and its
d-stability verdict, read by lie.betti.

An ideal h given as conditions, iota_X and L_X = d iota_X + iota_X d for
X in a basis of h, cuts out Lambda(g/h)*, so the subcomplex has the
Betti numbers of the quotient g/h.  The condition rows are built here,
from ce_complex's differentials and exterior.wedge_insert.  On abelian
R^q, where d = 0, random integer condition rows are checked against a
dense Gauss-Jordan kernel (tests/oracles.py).  A Subcomplex is built
from its conditions alone, so any spanning set of the same rows gives
the same subcomplex and report.  Lambda^k X, whose rows build the
conditions Lambda^k X - I of a group's invariant forms, is checked
entry by entry against the minors of random rational X and against
Cauchy-Binet.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from oracles import (condition_kernels, densify, det_gauss, gauss_rank,
                     random_lie_algebra)
from quotientcoh import abelian, heisenberg, quotient, sl2
from quotientcoh.cochain import ce_complex
from quotientcoh.config import parse_config
from quotientcoh.exterior import enumerate_basis, wedge_insert
from quotientcoh.lie import betti
from quotientcoh.matrix import ExactMatrix
from quotientcoh.subcomplex import Subcomplex, exterior_power

ROOT = Path(__file__).resolve().parents[1]
# each job with a degree k whose conditions, dropped, let d leave S: the
# k-forms of g that are not forms of g/h include one whose d has an
# h-component.  In quotient8 h is central, so no 1-form is such a form.
IDEAL_JOBS = [(ROOT / "examples" / "carriere-flow.cfg", 1),
              (ROOT / "tests" / "fixtures" / "quotient8.cfg", 2),
              (ROOT / "tests" / "fixtures" / "quotient-random8-check.cfg", 1)]


def _rows(m: ExactMatrix) -> list[dict[int, Fraction]]:
    return [{j: Fraction(x, m.den) for j, x in row} for row in m.int_rows]


def _iota(x, n: int, k: int) -> ExactMatrix:
    """iota_X from the k-forms to the (k-1)-forms of R^n, X = sum x_j e_j:
    iota_(e_j) e_I = s e_J where e_j ^ e_J = s e_I."""
    column = {mono: c for c, mono in enumerate(enumerate_basis(n, k))}
    rows = []
    for mono in enumerate_basis(n, k - 1):
        row: dict[int, Fraction] = {}
        for j, xj in enumerate(x):
            hit = wedge_insert(j, mono) if xj != 0 else None
            if hit:
                sign, merged = hit
                row[column[merged]] = sign * xj
        rows.append(row)
    return ExactMatrix.from_sparse(len(column), rows)


def _plus(a: ExactMatrix, b: ExactMatrix) -> list[dict[int, Fraction]]:
    out = []
    for x, y in zip(_rows(a), _rows(b)):
        for j, v in y.items():
            x[j] = x.get(j, 0) + v
        out.append(x)
    return out


def _relative_conditions(c, h):
    """(iota rows, L rows) per degree k = 0..n, for X a basis row of the
    Subspace h: iota_X on the k-forms and L_X = d_(k-1) iota_X + iota_X
    d_k."""
    n = c.dim
    iotas, lies = [], []
    for k in range(n + 1):
        iota_rows, lie_rows = [], []
        for row in h.basis:
            x = [Fraction(dict(row).get(j, 0)) for j in range(n)]
            up = _iota(x, n, k + 1) @ c.d[k] if k < n else None
            if k:
                iota_rows += _rows(_iota(x, n, k))
                down = c.d[k - 1] @ _iota(x, n, k)
                lie_rows += _plus(down, up) if up else _rows(down)
            else:
                lie_rows += _rows(up)
        iotas.append(iota_rows)
        lies.append(lie_rows)
    return iotas, lies


def _conditions(c, *per_degree):
    return [ExactMatrix.from_sparse(width, [r for rows in per_degree
                                            for r in rows[k]])
            for k, width in enumerate(c.cochains)]


def _times(m: ExactMatrix, v: dict[int, Fraction]) -> list[Fraction]:
    return [sum(Fraction(x, m.den) * v.get(j, 0) for j, x in row)
            for row in m.int_rows]


@pytest.mark.parametrize("path, degree", IDEAL_JOBS,
                         ids=[path.stem for path, _ in IDEAL_JOBS])
def test_an_ideal_as_conditions_gives_the_quotient_numbers(path, degree):
    job = parse_config(path.read_text()).job
    g, ideal = job.algebra, job.ideal
    c = ce_complex(g)
    iotas, lies = _relative_conditions(c, ideal)
    conditions = _conditions(c, iotas, lies)
    sub = Subcomplex(c, conditions)
    assert sub.unstable is None
    report = betti(sub)
    expected = betti(ce_complex(quotient(g, ideal))).betti
    assert report.betti == expected + (0,) * ideal.dim
    # each generator, in g's monomials, meets every condition and is a
    # cocycle of g
    for k, gens in enumerate(report.generators):
        assert len(gens) == report.betti[k]
        for v in gens:
            v = {j: Fraction(*x) for j, x in v}
            assert not any(_times(conditions[k], v))
            assert k == g.dim or not any(_times(c.d[k], v))
    # iota_Y w = 0 for every Y in h puts w in Lambda(g/h)*, a subcomplex
    # for an ideal, so L_X w = iota_X d w = 0 already: the L_X rows
    # change no S_k, and dropping any of them cannot make d leave S
    assert Subcomplex(c, _conditions(c, iotas)).basis == sub.basis
    # dropping the conditions of that degree leaves S_k all k-forms, and
    # the verdict fails there
    broken = Subcomplex(c, _conditions(c, *(
        [rows if k != degree else [] for k, rows in enumerate(per_degree)]
        for per_degree in (iotas, lies))))
    assert broken.unstable == degree
    with pytest.raises(ValueError, match="not a subcomplex: d_%d maps S_%d "
                       "out of S_%d" % (degree, degree, degree + 1)):
        betti(broken)


def test_no_conditions_give_the_ambient_report():
    # S_k is every unit vector and d' is d, so the report is betti's of
    # the ambient complex field for field, generators lifted included
    rng = random.Random(7)
    for g in (heisenberg(), sl2(), random_lie_algebra(rng, 5)):
        c = ce_complex(g)
        sub = Subcomplex(c, [ExactMatrix.zero(0, w)
                                    for w in c.cochains])
        assert sub.d == c.d
        assert betti(sub) == betti(c)


def test_random_conditions_on_abelian_ambients_against_the_dense_oracle():
    # d = 0, so every condition set is d-stable, each restricted rank is
    # 0 and b_k = dim S_k; the generators span the dense kernel
    rng = random.Random(48)
    for _ in range(40):
        q = rng.randint(1, 4)
        conditions = []
        for k in range(q + 1):
            rows = [[rng.randint(-2, 2) for _ in range(comb(q, k))]
                    for _ in range(rng.randint(0, comb(q, k)))]
            if rows and rng.random() < 0.3:  # a dependent row
                rows.append([3 * x for x in rows[0]])
            conditions.append(rows)
        sub = Subcomplex(ce_complex(abelian(q)), [
            ExactMatrix.from_rows(rows, cols=comb(q, k))
            for k, rows in enumerate(conditions)])
        report = betti(sub)
        kernels = condition_kernels(conditions, q)
        assert (sub.unstable, report.ranks) == (None, (0,) * q)
        assert report.betti == tuple(len(kernel) for kernel in kernels)
        for k, (gens, kernel) in enumerate(zip(report.generators, kernels)):
            dense = [densify(v, comb(q, k)) for v in gens]
            assert gauss_rank(dense) == gauss_rank(dense + kernel) == len(
                kernel)


def test_conditions_of_the_wrong_width_are_refused():
    c = ce_complex(abelian(2))
    with pytest.raises(ValueError, match="width C\\(n, k\\)"):
        Subcomplex(c, [ExactMatrix.zero(0, w) for w in (1, 2)])
    with pytest.raises(ValueError, match="width C\\(n, k\\)"):
        Subcomplex(c, [ExactMatrix.zero(0, w) for w in (1, 1, 1)])


def _respanned(rng, rows, width):
    """A second spanning set of the dense integer rows: rows added to one
    another and scaled by nonzero integers, with dependent and zero rows
    appended, shuffled."""
    out = [list(row) for row in rows]
    for _ in range(3):
        if len(out) > 1:
            i, j = rng.sample(range(len(out)), 2)
            t = rng.choice((-3, -2, -1, 1, 2, 3))
            out[i] = [x + t * y for x, y in zip(out[i], out[j])]
    out = [[c * x for x in row] for row, c in zip(
        out, rng.choices((-3, -2, -1, 1, 2, 5), k=len(out)))]
    for _ in range(rng.randint(0, 2)):
        c = [rng.randint(-2, 2) for _ in rows]
        out.append([sum(a * row[j] for a, row in zip(c, rows))
                    for j in range(width)])
    out += [[0] * width] * rng.randint(0, 2)
    rng.shuffle(out)
    return out


def _dense(m: ExactMatrix) -> list[list[int]]:
    """The integer rows of m, densely: m times its denominator."""
    return [[dict(row).get(j, 0) for j in range(m.cols)]
            for row in m.int_rows]


def _betti_or_refusal(sub):
    try:
        return betti(sub)
    except ValueError as refusal:
        return str(refusal)


def _assert_canonical(rng, c, conditions):
    sub = Subcomplex(c, conditions)
    other = Subcomplex(c, [
        ExactMatrix.from_rows(_respanned(rng, _dense(m), m.cols), cols=m.cols)
        for m in conditions])
    assert (other.basis, other.d, other.unstable) == (
        sub.basis, sub.d, sub.unstable)
    assert _betti_or_refusal(other) == _betti_or_refusal(sub)
    return sub


def test_subcomplex_of_any_spanning_conditions_is_canonical():
    # the conditions of each degree and a second spanning set of the
    # same rows cut out the same S_k, d'_k and verdict, and betti gives
    # one report (or one refusal): random rows on abelian R^q, and the
    # iota/L conditions of the ideal jobs, whole and with the degree
    # dropped whose verdict fails
    rng = random.Random(51)
    for _ in range(60):
        q = rng.randint(1, 4)
        c = ce_complex(abelian(q))
        _assert_canonical(rng, c, [ExactMatrix.from_rows(
            [[rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(w)]
             for _ in range(rng.randint(0, w))], cols=w)
            for w in c.cochains])
    for path, degree in IDEAL_JOBS:
        job = parse_config(path.read_text()).job
        c = ce_complex(job.algebra)
        iotas, lies = _relative_conditions(c, job.ideal)
        assert _assert_canonical(rng, c, _conditions(
            c, iotas, lies)).unstable is None
        assert _assert_canonical(rng, c, _conditions(c, *(
            [rows if k != degree else [] for k, rows in enumerate(per_degree)]
            for per_degree in (iotas, lies)))).unstable == degree


def test_a_subcomplex_and_its_report_take_two_products_a_degree(monkeypatch):
    # d_k S_k gives both d'_k and its d-stability residual, which
    # subtracts S_(k+1) d'_k: two ExactMatrix products for each of the n
    # differentials, and betti forms none
    products = []
    matmul = ExactMatrix.__matmul__

    def spy(a, b):
        products.append((a.rows, b.cols))
        return matmul(a, b)

    monkeypatch.setattr(ExactMatrix, "__matmul__", spy)
    for path, _ in IDEAL_JOBS:
        job = parse_config(path.read_text()).job
        c = ce_complex(job.algebra)
        conditions = _conditions(c, *_relative_conditions(
            c, job.ideal))
        products.clear()
        betti(Subcomplex(c, conditions))
        assert len(products) == 2 * c.dim, path.stem


def _random_rational(rng, rows: int, cols: int) -> ExactMatrix:
    """A rows x cols rational matrix over a denominator above 1, with
    about a third of its rows zero."""
    den = rng.randint(2, 6)
    return ExactMatrix.from_sparse(cols, [
        {} if rng.random() < 0.3 else
        {j: Fraction(rng.randint(-4, 4), den) for j in range(cols)
         if rng.random() < 0.7} for _ in range(rows)])


def test_exterior_power_entries_are_the_minors():
    # entry (J, I) of Lambda^k X is det X[J, I], J and I the k-subsets of
    # the rows and the columns, for k from 0 past both sizes
    rng = random.Random(52)
    for _ in range(200):
        x = _random_rational(rng, rng.randint(0, 4), rng.randint(0, 4))
        dense = x.entries
        for k in range(max(x.rows, x.cols) + 2):
            power = exterior_power(x, k)
            assert x.den ** k % power.den == 0
            assert power.entries == tuple(
                tuple(det_gauss([[dense[j][i] for i in cols] for j in rows])
                      for cols in enumerate_basis(x.cols, k))
                for rows in enumerate_basis(x.rows, k))
            assert power.cols == comb(x.cols, k)


def test_exterior_power_satisfies_cauchy_binet():
    # Lambda^k (X Y) = Lambda^k X Lambda^k Y, past the inner size too,
    # where both sides vanish
    rng = random.Random(52)
    for _ in range(200):
        r, s, t = (rng.randint(0, 4) for _ in range(3))
        x, y = _random_rational(rng, r, s), _random_rational(rng, s, t)
        for k in range(max(r, s, t) + 2):
            assert exterior_power(x @ y, k) == (
                exterior_power(x, k) @ exterior_power(y, k)), (x, y, k)
