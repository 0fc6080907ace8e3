"""Seeded job generator: one recipe per job class.

Every job is a job-file text plus the command-line flags to run it with
and the answers the checker compares the report against.  The answers
come from this file alone (pinned block Betti numbers combined by the
Kuenneth formula, binomial coefficients, a numpy mode count, the closed
form of the bump sups), never from the engine under test.

A workload is a fixed cycle of job classes.  The seed picks the
parameters inside each class (which blocks, which basis, which
coordinates and coefficients) but not the class sizes, so two seeds give
different job lists of the same shape and cost profile.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, exp, lcm, log

import numpy as np

# Betti numbers of the building blocks, in their standard bases.  They
# are cross-checked against an independent naive cochain computation by
# selftest.py.
PINNED_BETTI = {
    "abelian1": (1, 1),
    "solvable2": (1, 1, 0),
    "heisenberg": (1, 2, 2, 1),
    "sl2": (1, 0, 0, 1),
    "filiform4": (1, 2, 2, 2, 1),
    "filiform5": (1, 2, 3, 3, 2, 1),
    "filiform6": (1, 2, 3, 4, 3, 2, 1),
    "filiform7": (1, 2, 4, 6, 6, 4, 2, 1),
    "filiform8": (1, 2, 4, 8, 10, 8, 4, 2, 1),
}

# Caps from the seed-commit sizing: Lie cost grows about 7x per
# dimension and a torus job audits at most ~1.2e5 modes.
MAX_LIE_DIM = 8
MAX_AUDITED_MODES = 120_000
# The engine's documented relative slack on witness sup bounds.
RELATIVE_SLACK = 1e-9


@dataclass(frozen=True)
class Job:
    """One engine invocation and the answers its report must match.

    label names the job's class in its workload's cycle.
    """

    text: str
    flags: tuple[str, ...] = ()
    expect: dict = field(default_factory=dict)
    label: str = ""


# ---------------------------------------------------------------- Lie algebra

def block_table(name: str) -> tuple[int, dict]:
    """(dim, {(i, j, k): c}) with i < j for one named block."""
    if name == "abelian1":
        return 1, {}
    if name == "solvable2":
        return 2, {(0, 1, 1): Fraction(1)}
    if name == "heisenberg":
        return 3, {(0, 1, 2): Fraction(1)}
    if name == "sl2":
        return 3, {(0, 1, 1): Fraction(2), (0, 2, 2): Fraction(-2),
                   (1, 2, 0): Fraction(1)}
    if name.startswith("filiform"):
        m = int(name[len("filiform"):])
        return m, {(0, i, i + 1): Fraction(1) for i in range(1, m - 1)}
    raise KeyError(name)


def block_center(name: str) -> int | None:
    """Index of a central basis vector of the block, if there is one."""
    if name == "abelian1":
        return 0
    if name == "heisenberg":
        return 2
    if name.startswith("filiform"):
        return int(name[len("filiform"):]) - 1
    return None


def block_quotient(name: str) -> list[str]:
    """Blocks of the quotient of one block by its central vector."""
    if name == "abelian1":
        return []
    if name == "heisenberg":
        return ["abelian1", "abelian1"]
    m = int(name[len("filiform"):])
    return ["heisenberg" if m == 4 else "filiform%d" % (m - 1)]


def direct_sum(names: list[str]) -> tuple[int, dict, list[int]]:
    """(dim, table, block offsets) of the direct sum of named blocks."""
    table: dict = {}
    offsets = []
    dim = 0
    for name in names:
        d, t = block_table(name)
        offsets.append(dim)
        for (i, j, k), v in t.items():
            table[(i + dim, j + dim, k + dim)] = v
        dim += d
    return dim, table, offsets


def kunneth(names: list[str]) -> list[int]:
    out = [1]
    for name in names:
        b = PINNED_BETTI[name]
        conv = [0] * (len(out) + len(b) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(b):
                conv[i + j] += x * y
        out = conv
    return out


def dense(dim: int, table: dict) -> list:
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), v in table.items():
        c[i][j][k] = v
        c[j][i][k] = -v
    return c


def jacobi_holds(dim: int, table: dict) -> bool:
    c = dense(dim, table)
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                for m in range(dim):
                    total = sum(
                        c[i][j][u] * c[u][k][m] + c[j][k][u] * c[u][i][m]
                        + c[k][i][u] * c[u][j][m]
                        for u in range(dim)
                    )
                    if total:
                        return False
    return True


def inverse(p: list) -> list | None:
    """Gauss-Jordan inverse over Fractions, None when singular."""
    n = len(p)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(p)]
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return None
        a[c], a[piv] = a[piv], a[c]
        inv = a[c][c]
        a[c] = [x / inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def random_basis(rng: random.Random, dim: int) -> tuple[list, list]:
    """A dense invertible matrix with small fractional entries, and its
    inverse."""
    while True:
        p = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3))
              for _ in range(dim)] for _ in range(dim)]
        q = inverse(p)
        if q is not None:
            return p, q


def change_basis(dim: int, table: dict, p: list, q: list) -> dict:
    """Structure constants in the basis f_a = sum_i p[i][a] e_i."""
    c = dense(dim, table)
    # brackets of the new basis vectors in old coordinates, then mapped
    # back through the inverse
    out = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            old = [Fraction(0)] * dim
            for i in range(dim):
                if p[i][a] == 0:
                    continue
                for j in range(dim):
                    if p[j][b] == 0:
                        continue
                    f = p[i][a] * p[j][b]
                    for k in range(dim):
                        if c[i][j][k]:
                            old[k] += f * c[i][j][k]
            for r in range(dim):
                v = sum(q[r][k] * old[k] for k in range(dim) if old[k])
                if v:
                    out[(a, b, r)] = v
    return out


def lie_text(dim: int, table: dict, ideal: list | None = None) -> str:
    lines = ["[lie]", "dim = %d" % dim]
    for (i, j, k), v in sorted(table.items()):
        lines.append("bracket = %d %d %d %s" % (i, j, k, v))
    for vec in ideal or ():
        lines.append("ideal = " + ",".join(str(x) for x in vec))
    lines += ["", "[output]", "format = json", ""]
    return "\n".join(lines)


def signed_permutation(rng: random.Random, dim: int) -> tuple[list, list]:
    """A basis relabelling with random signs, and its inverse."""
    perm = list(range(dim))
    rng.shuffle(perm)
    signs = [rng.choice([1, -1]) for _ in range(dim)]
    p = [[Fraction(signs[a]) if perm[a] == i else Fraction(0)
          for a in range(dim)] for i in range(dim)]
    q = [[p[i][a] for i in range(dim)] for a in range(dim)]
    return p, q


def lie_job(rng: random.Random, names: list[str], *, basis: str = "standard",
            quotient_block: int | None = None, check=False) -> Job:
    """A Lie job on a direct sum of blocks, in the standard basis, a
    seeded signed permutation of it, or a seeded dense rational basis.

    quotient_block names the block whose central vector spans the ideal;
    the quotient is then the direct sum with that block replaced by its
    quotient blocks.
    """
    dim, table, offsets = direct_sum(names)
    if dim > MAX_LIE_DIM:
        raise ValueError("Lie jobs are capped at dim %d" % MAX_LIE_DIM)
    expected_names = list(names)
    ideal = None
    if quotient_block is not None:
        centre = offsets[quotient_block] + block_center(names[quotient_block])
        scale = Fraction(rng.choice([1, -1, 2, -3]), rng.choice([1, 2, 5]))
        ideal = [[scale if t == centre else Fraction(0) for t in range(dim)]]
        expected_names[quotient_block:quotient_block + 1] = block_quotient(
            names[quotient_block])
    if basis != "standard":
        if basis == "random":
            p, q = random_basis(rng, dim)
        else:
            p, q = signed_permutation(rng, dim)
        table = change_basis(dim, table, p, q)
        if ideal is not None:
            # the ideal vector in the new coordinates
            ideal = [[sum(q[r][t] * ideal[0][t] for t in range(dim))
                      for r in range(dim)]]
    flags = ("--check",) if check else ()
    expect = {
        "mode": "lie",
        "exit": 0,
        "betti": kunneth(expected_names),
        "unimodular": "solvable2" not in expected_names,
        "quotient": ideal is not None,
        "check": check,
    }
    return Job(lie_text(dim, table, ideal), flags, expect)


def partition(rng: random.Random, dim: int, parts: list[str]) -> list[str]:
    """Random multiset of blocks from parts with total dimension dim."""
    while True:
        names: list[str] = []
        total = 0
        while total < dim:
            name = rng.choice(parts)
            d = block_table(name)[0]
            if total + d > dim:
                continue
            names.append(name)
            total += d
        if len(names) > 1 or dim == block_table(names[0])[0]:
            return names


# ---------------------------------------------------------------- torus

def torus_text(n: int, dirs: list[list[str]], invariance: list[int],
               truncation: int) -> str:
    lines = ["[torus]", "n = %d" % n]
    for d in dirs:
        lines.append("foliation = " + ",".join(d))
    if invariance:
        lines.append("invariance = " + ",".join(str(j) for j in invariance))
    lines += ["truncation = %d" % truncation, "", "[output]",
              "format = json", ""]
    return "\n".join(lines)


def count_surviving(n: int, constraints: list[list[int]],
                    invariance: list[int], bound: int) -> tuple[int, int]:
    """(nonzero surviving modes, box size), counted on a numpy grid."""
    free = [j for j in range(n) if j not in invariance]
    if not free:
        return 0, 1
    grid = np.indices((2 * bound + 1,) * len(free)).reshape(len(free), -1)
    grid = grid - bound
    keep = np.ones(grid.shape[1], dtype=bool)
    for row in constraints:
        dot = np.zeros(grid.shape[1], dtype=np.int64)
        for pos, j in enumerate(free):
            if row[j]:
                dot += row[j] * grid[pos]
        keep &= dot == 0
    return int(keep.sum()) - 1, grid.shape[1]


def _integer_row(values: list[Fraction]) -> list[int]:
    den = lcm(*(v.denominator for v in values))
    return [int(v * den) for v in values]


def frac_rank(rows: list[list[Fraction]]) -> int:
    a = [list(r) for r in rows]
    rank = 0
    cols = len(a[0]) if a else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            if a[i][c] != 0:
                f = a[i][c] / a[rank][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def torus_job(n: int, rat: list[list[Fraction]], irr: list[list[Fraction]],
              invariance: list[int], truncation: int, check=False) -> Job:
    """A torus job from the rational and alpha parts of its directions.

    Directions are chosen with independent rational parts, so the
    engine's frame search succeeds at alpha = 0 and p = len(rat).
    """
    p = len(rat)
    if p and frac_rank(rat) != p:
        raise ValueError("rational parts must be independent")
    dirs = []
    for a_row, b_row in zip(rat, irr):
        dirs.append([
            str(a) if b == 0 else "%s%s%s*alpha" % (a, "+-"[b < 0], abs(b))
            for a, b in zip(a_row, b_row)
        ])
    constraints = [_integer_row(r) for r in rat + irr if any(r)]
    audited, _ = count_surviving(n, constraints, invariance, truncation)
    if audited > MAX_AUDITED_MODES:
        raise ValueError("torus jobs are capped at %d audited modes"
                         % MAX_AUDITED_MODES)
    expect = {
        "mode": "torus",
        "exit": 0,
        "betti": [comb(n - p, k) for k in range(n - p + 1)],
        "audited_modes": audited,
        "check": check,
    }
    flags = ("--check",) if check else ()
    return Job(torus_text(n, dirs, invariance, truncation), flags,
               expect)


def _frac(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([1, -1, 2, -2, 3]), rng.choice([1, 1, 2, 3]))


def rational_on_invariance(rng: random.Random, n: int, invariance: list[int],
                           p: int) -> list[list[Fraction]]:
    """p independent rational directions supported on the invariance
    coordinates, so every mode of the pinned box survives."""
    while True:
        rows = [[_frac(rng) if j in invariance and rng.random() < 0.7
                 else Fraction(0) for j in range(n)] for _ in range(p)]
        if frac_rank(rows) == p:
            return rows


def alpha_directions(rng: random.Random, n: int, p: int, bound: int,
                     max_share: float) -> tuple[list, list]:
    """p directions with alpha parts, keeping at most max_share of the
    (2*bound+1)^n box alive."""
    while True:
        rat = []
        irr = []
        for _ in range(p):
            support = rng.sample(range(n), 3)
            a = [Fraction(0)] * n
            b = [Fraction(0)] * n
            for j in support[:2]:
                a[j] = Fraction(rng.choice([1, -1, 2, -2, 3]))
            b[support[2]] = Fraction(rng.choice([1, -1, 2]))
            b[support[0]] = Fraction(rng.choice([0, 1, -1]))
            rat.append(a)
            irr.append(b)
        if frac_rank(rat) != p:
            continue
        constraints = [_integer_row(r) for r in rat + irr if any(r)]
        audited, box = count_surviving(n, constraints, [], bound)
        if audited + 1 <= max_share * box:
            return rat, irr


# ---------------------------------------------------------------- witness

def phi_polys(max_order: int) -> list[list[int]]:
    """Integer polynomials P_m with phi^(m) = P_m * phi / q^(2m), where
    q = x(1-x): P_0 = 1, P_{m+1} = q^2 P_m' + q'(1 - 2mq) P_m."""
    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def add(a, b):
        out = [0] * max(len(a), len(b))
        for i, x in enumerate(a):
            out[i] += x
        for i, y in enumerate(b):
            out[i] += y
        return out

    q = [0, 1, -1]
    q2 = mul(q, q)
    dq = [1, -2]
    polys = [[1]]
    for m in range(max_order):
        pm = polys[-1]
        deriv = [i * c for i, c in enumerate(pm)][1:] or [0]
        polys.append(add(mul(q2, deriv),
                         mul(mul(dq, add([1], [-2 * m * c for c in q])), pm)))
    return polys


def profile_constants(max_order: int, samples: int) -> list[float]:
    """sup |phi^(m)| over the engine's documented shared grid i/(n+1).

    A float Horner pass finds the peak; P_m has large alternating
    coefficients, so the grid points around the peak are then evaluated
    with P_m exact and only the exponential factor in floats.
    """
    s = np.arange(1, samples + 1, dtype=float) / (samples + 1)
    q = s * (1.0 - s)
    out = []
    for m, poly in enumerate(phi_polys(max_order)):
        acc = np.zeros_like(s)
        for c in reversed(poly):
            acc = acc * s + float(c)
        peak = int(np.argmax(np.abs(acc * np.exp(-1.0 / q - 2 * m * np.log(q)))))
        best = 0.0
        for i in range(max(0, peak - 20), min(samples, peak + 21)):
            x = Fraction(i + 1, samples + 1)
            exact = sum(c * x ** k for k, c in enumerate(poly))
            qi = float(x * (1 - x))
            best = max(best, abs(float(exact)) * exp(-1.0 / qi - 2 * m * log(qi)))
        out.append(best)
    return out


def predicted_violations(k_min: int, k_max: int, order: int) -> list:
    """(family, m, k, k+1) where the closed-form sup ratio
    e^-(2k+1) 2^(2m) (twice that for the scaled family) reaches 1."""
    out = []
    for family, factor in (("f", 1.0), ("scaled", 2.0)):
        for m in range(order + 1):
            for k in range(k_min, k_max):
                if -(2 * k + 1) + 2 * m * log(2.0) + log(factor) >= 0:
                    out.append([family, m, k, k + 1])
    return out


def witness_job(k_min: int, k_max: int, order: int, samples: int) -> Job:
    text = "\n".join([
        "[witness]",
        "k_min = %d" % k_min,
        "k_max = %d" % k_max,
        "max_derivative_order = %d" % order,
        "samples_per_interval = %d" % samples,
        "", "[output]", "format = json", "",
    ])
    expect = {
        "mode": "witness",
        "exit": 0,
        "k_range": list(range(k_min, k_max + 1)),
        "order": order,
        "samples": samples,
        "violations": predicted_violations(k_min, k_max, order),
    }
    return Job(text, (), expect)


# ---------------------------------------------------------------- refusals

def refusal(kind: str, rng: random.Random) -> Job:
    """A job the engine must refuse with its documented exit code."""
    if kind == "non-ideal":
        # a root vector of sl2 plus a random abelian summand: [h, e] stays
        # in the span but [f, e] = -h does not
        extra = rng.randint(0, 2)
        dim, table, _ = direct_sum(["sl2"] + ["abelian1"] * extra)
        vec = [Fraction(0)] * dim
        vec[rng.choice([1, 2])] = _frac(rng)
        text = lie_text(dim, table, [vec])
        return Job(text, (), {"exit": 2})
    if kind == "broken-jacobi":
        dim = rng.randint(3, 4)
        while True:
            table = {}
            for i in range(dim):
                for j in range(i + 1, dim):
                    for k in range(dim):
                        if rng.random() < 0.4:
                            table[(i, j, k)] = Fraction(rng.choice([-2, -1, 1, 2]))
            if table and not jacobi_holds(dim, table):
                break
        return Job(lie_text(dim, table), (), {"exit": 2})
    if kind == "zero-direction":
        n = rng.randint(2, 4)
        text = torus_text(n, [["0"] * n], [], 2)
        return Job(text, (), {"exit": 2})
    if kind == "decimal":
        dim, table, _ = direct_sum(["heisenberg"])
        text = lie_text(dim, table).replace(
            "bracket = 0 1 2 1", "bracket = 0 1 2 %d.5" % rng.randint(0, 3))
        return Job(text, (), {"exit": 1})
    raise KeyError(kind)


# ---------------------------------------------------------------- recipes

SMALL_BLOCKS = ["abelian1", "solvable2", "heisenberg", "sl2", "filiform4",
                "filiform5"]
CENTRAL = ["heisenberg", "filiform4", "filiform5", "abelian1"]


def _small_lie(rng, quotient: bool, check: bool = False) -> Job:
    if not quotient:
        return lie_job(rng, partition(rng, rng.randint(3, 5), SMALL_BLOCKS),
                       check=check)
    while True:
        names = partition(rng, rng.randint(3, 5), SMALL_BLOCKS)
        central = [i for i, b in enumerate(names) if b in CENTRAL]
        if central:
            return lie_job(rng, names, quotient_block=rng.choice(central))


def _small_torus(rng, check: bool = False) -> Job:
    n = rng.randint(2, 4)
    p = rng.randint(0, min(2, n - 1))
    invariance = sorted(rng.sample(range(n), rng.randint(0, n - p - 1)))
    truncation = rng.randint(1, 3)
    while True:
        rat = [[_frac(rng) if rng.random() < 0.6 else Fraction(0)
                for _ in range(n)] for _ in range(p)]
        irr = [[Fraction(rng.choice([0, 0, 1, -1])) for _ in range(n)]
               for _ in range(p)]
        if frac_rank(rat) == p:
            return torus_job(n, rat, irr, invariance, truncation, check)


def small_class(rng: random.Random, kind: str) -> Job:
    if kind in ("lie", "lie-check"):
        return _small_lie(rng, False, kind == "lie-check")
    if kind == "lie-quotient":
        return _small_lie(rng, True)
    if kind in ("torus", "torus-check"):
        return _small_torus(rng, kind == "torus-check")
    if kind == "witness":
        k_min = rng.randint(1, 2)
        return witness_job(k_min, k_min + rng.randint(2, 4), rng.randint(1, 3),
                           2 * rng.randint(1000, 5000) + 1)
    return refusal(kind, rng)


# Fixed block sums per Lie class keep each class's cost the same
# from seed to seed; the seed relabels and re-signs the basis (standard
# classes) or draws the dense basis change (random classes).
LIE_CLASSES = {
    "std8-nil": ["filiform5", "heisenberg"],
    "std7-mixed": ["sl2", "heisenberg", "abelian1"],
    "quotient8": ["filiform8"],
    "std7-check": ["filiform4", "sl2"],
    "random7": ["heisenberg", "filiform4"],
    "random7-check": ["sl2", "solvable2", "abelian1", "abelian1"],
}


def lie_class(rng: random.Random, kind: str) -> Job:
    names = LIE_CLASSES[kind]
    if kind.startswith("random"):
        return lie_job(rng, names, basis="random", check=kind.endswith("check"))
    return lie_job(rng, names, basis="signed-permutation",
                   quotient_block=0 if kind == "quotient8" else None,
                   check=kind.endswith("check"))


TORUS_CLASSES = ("full6", "alpha6-1", "inv6", "alpha6-2", "full5-check",
                 "alpha5-check")


def torus_class(rng: random.Random, kind: str) -> Job:
    if kind == "full6":
        # p = 0 with no invariance: the whole 7^6 box is audited
        return torus_job(6, [], [], [], 3)
    if kind == "inv6":
        # one invariance coordinate and a rational direction inside it:
        # 9^5 - 1 audited modes
        inv = [rng.randrange(6)]
        return torus_job(6, rational_on_invariance(rng, 6, inv, 1),
                         [[Fraction(0)] * 6], inv, 4)
    if kind == "full5-check":
        # p = 0 on T^5 at truncation 4: 9^5 - 1 audited modes, twice over
        return torus_job(5, [], [], [], 4, check=True)
    p = 2 if kind == "alpha6-2" else 1
    n = 5 if kind == "alpha5-check" else 6
    rat, irr = alpha_directions(rng, n, p, 4, 0.01)
    return torus_job(n, rat, irr, [], 4, check=kind == "alpha5-check")


# witness slots are (order, number of levels, samples): the seed moves
# the levels and nudges the grid but keeps each slot's sympy and numpy
# work
WITNESS_SLOTS = {
    "w4-20001": (4, 6, 20001), "w5-12001": (5, 5, 12001),
    "w6-10001": (6, 7, 10001), "w7-16001": (7, 7, 16001),
    "w8-2001": (8, 6, 2001),
}


def witness_class(rng: random.Random, kind: str) -> Job:
    order, levels, samples = WITNESS_SLOTS[kind]
    k_min = rng.randint(max(1, 6 - levels + 1), 10 - levels + 1)
    samples -= 2 * rng.randint(0, 40 if samples > 2001 else 0)
    return witness_job(k_min, k_min + levels - 1, order, samples)


def make_job(rng: random.Random, label: str) -> Job:
    if label in LIE_CLASSES:
        return lie_class(rng, label)
    if label in TORUS_CLASSES:
        return torus_class(rng, label)
    if label in WITNESS_SLOTS:
        return witness_class(rng, label)
    return small_class(rng, label)


# The median heavy job: filiform4+sl2 (dim 7) with --check.  Eight
# classes of the heavy cycle are cheaper and eight dearer, so the median
# of a run falls among this class's seven jobs, which are spread over the
# whole run; with one job of each class the median would be whichever
# single job lands in the middle, and would move with the machine's speed
# at that moment.
HEAVY_MEDIAN = "std7-check"
HEAVY_OTHERS = ("full6", "w4-20001", "std7-mixed", "alpha6-1", "w6-10001",
                "quotient8", "inv6", "w5-12001", "random7", "alpha6-2",
                "w8-2001", "std8-nil", "full5-check", "w7-16001",
                "random7-check", "alpha5-check")


def _spread(every: str, others: tuple, count: int) -> tuple:
    """others in order with count copies of every spread evenly among
    them, one at each end."""
    gaps = count - 1
    out = [every]
    for i in range(gaps):
        out += others[len(others) * i // gaps:len(others) * (i + 1) // gaps]
        out.append(every)
    return tuple(out)


# Each workload is a cycle of job classes; a run takes a prefix of the
# cycle repeated, so every class keeps its share.
CYCLES = {
    "small-jobs": ("lie", "torus", "non-ideal", "lie-quotient", "witness",
                   "torus", "broken-jacobi", "lie-check", "torus-check",
                   "zero-direction", "lie-quotient", "witness", "decimal"),
    "heavy-jobs": _spread(HEAVY_MEDIAN, HEAVY_OTHERS, 7),
}


def generate(workload: str, seed: int, count: int) -> list[Job]:
    """The first count jobs of a workload's seeded job list."""
    rng = random.Random("%s:%d" % (workload, seed))
    cycle = CYCLES[workload]
    jobs = []
    for slot in range(count):
        label = cycle[slot % len(cycle)]
        jobs.append(dataclasses.replace(make_job(rng, label), label=label))
    return jobs
