"""Independent output checker.

It compares an engine report with the answers jobs.py derived on its own.
It reads the documented top-level report keys and named certificate
fields only; the layout of the per-mode torus ``koszul`` list is not
read, so a later change to that list's format cannot break the check.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import comb, exp

from jobs import RELATIVE_SLACK, profile_constants

TOP_KEYS = ("mode", "betti", "ranks", "generators", "certificates",
            "audited_modes", "exit")
# Our profile constants against the engine's: the same function on the
# same grid by different routes, which agree to about 1e-13.
PROFILE_TOLERANCE = 1e-9


@lru_cache(maxsize=None)
def _constants(order: int, samples: int) -> tuple[float, ...]:
    return tuple(profile_constants(order, samples))


def check(expect: dict, code: int, text: str | None) -> list[str]:
    """Problems found in one job's exit code and report; empty if none."""
    problems = []
    if code != expect["exit"]:
        problems.append("exit code %d, expected %d" % (code, expect["exit"]))
    if "mode" not in expect:
        return problems
    if text is None:
        return problems + ["no report written"]
    try:
        report = json.loads(text)
    except ValueError as exc:
        return problems + ["report is not JSON: %s" % exc]
    missing = [k for k in TOP_KEYS if k not in report]
    if missing:
        return problems + ["report lacks keys %s" % missing]
    if report["mode"] != expect["mode"]:
        return problems + ["mode %r, expected %r" % (report["mode"],
                                                     expect["mode"])]
    if report["exit"] != expect["exit"]:
        problems.append("report exit %r" % report["exit"])
    checker = {"lie": _check_lie, "torus": _check_torus,
               "witness": _check_witness}[expect["mode"]]
    try:
        problems += checker(expect, report)
    except (KeyError, TypeError, IndexError, ValueError, ZeroDivisionError) as exc:
        problems.append("malformed report: %r" % exc)
    return problems


def _check_lie(expect: dict, report: dict) -> list[str]:
    out = []
    betti = report["betti"]
    n = len(betti) - 1
    if betti != expect["betti"]:
        out.append("betti %s, expected %s" % (betti, expect["betti"]))
    ranks = report["ranks"]
    for k in range(n + 1):
        rk = ranks[k] if k < n else 0
        rk_prev = ranks[k - 1] if k else 0
        if betti[k] != comb(n, k) - rk - rk_prev:
            out.append("betti[%d] disagrees with the reported ranks" % k)
    if n and sum((-1) ** k * b for k, b in enumerate(betti)) != 0:
        out.append("Euler characteristic is not 0")
    if expect["unimodular"] and betti != betti[::-1]:
        out.append("Poincare duality fails")
    gens = report["generators"]
    if [len(g) for g in gens] != betti:
        out.append("generator counts %s differ from betti"
                   % [len(g) for g in gens])
    certs = report["certificates"]
    if certs["jacobi"] is not True or certs["d_squared_zero"] is not True:
        out.append("jacobi or d_squared_zero certificate not true")
    if certs["ideal"] is not (True if expect["quotient"] else None):
        out.append("ideal certificate %r" % certs["ideal"])
    if expect["check"] and certs.get("sign_twist") is not True:
        out.append("sign_twist certificate %r" % certs.get("sign_twist"))
    return out


def _check_torus(expect: dict, report: dict) -> list[str]:
    out = []
    if report["betti"] != expect["betti"]:
        out.append("betti %s, expected %s" % (report["betti"],
                                              expect["betti"]))
    if report["audited_modes"] != expect["audited_modes"]:
        out.append("audited_modes %r, expected %d"
                   % (report["audited_modes"], expect["audited_modes"]))
    certs = report["certificates"]
    if certs["all_modes_acyclic"] is not True:
        out.append("all_modes_acyclic is not true")
    if len(certs["transverse_coordinates"]) != len(expect["betti"]) - 1:
        out.append("transverse frame has the wrong size")
    if expect["check"] and certs.get("cross_check_ce") is not True:
        out.append("cross_check_ce %r" % certs.get("cross_check_ce"))
    return out


def _check_witness(expect: dict, report: dict) -> list[str]:
    out = []
    certs = report["certificates"]
    order = expect["order"]
    ks = expect["k_range"]
    constants = _constants(order, expect["samples"])
    if certs["samples_per_interval"] != expect["samples"]:
        out.append("samples_per_interval %r" % certs["samples_per_interval"])
    reported = certs["profile_constants"]
    if len(reported) != order + 1 or any(
        abs(r - c) > PROFILE_TOLERANCE * c for r, c in zip(reported, constants)
    ):
        out.append("profile constants differ from the closed form")
    seen = set()
    for rec in certs["sup_bounds"]:
        k, m, family = rec["level"], rec["order"], rec["family"]
        seen.add((family, k, m))
        measured, bound = rec["measured"], rec["bound"]
        scale = 2.0 ** k if family == "scaled" else 1.0
        closed = scale * constants[m] * exp(-float(k * k)) * 2.0 ** (2 * k * m)
        if abs(bound - closed) > PROFILE_TOLERANCE * closed:
            out.append("bound at %s k=%d m=%d is not C_m e^-k^2 2^2km"
                       % (family, k, m))
        ratio = measured / bound
        if not (1.0 - RELATIVE_SLACK <= ratio <= 1.0 + RELATIVE_SLACK):
            out.append("sup at %s k=%d m=%d is %r of its bound"
                       % (family, k, m, ratio))
    wanted = {(f, k, m) for f in ("f", "scaled") for k in ks
              for m in range(order + 1)}
    if seen != wanted:
        out.append("sup records do not cover every family, level and order")
    violations = sorted(
        [v["family"], v["order"], v["level_from"], v["level_to"]]
        for v in certs["monotone_violations"]
    )
    if violations != sorted(expect["violations"]):
        out.append("monotone violations %s, predicted %s"
                   % (violations, sorted(expect["violations"])))
    if certs["forced_levels"] != [[k, k] for k in ks]:
        out.append("forced levels %s" % certs["forced_levels"])
    if certs["lift_obstruction"] is not True:
        out.append("lift_obstruction is not true")
    deg1 = certs["degree_one"]
    if (deg1["quotient_degree1_dim"], deg1["invariant_basic_degree1_dim"],
            deg1["conclusion"]) != (0, 1, "pullback-not-surjective"):
        out.append("degree-one certificate %s" % deg1)
    return out
