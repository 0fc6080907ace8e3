"""Exact real-root isolation for integer polynomials.

A polynomial is a tuple of integer coefficients, lowest degree first.
sturm_chain builds its Sturm sequence with pseudo-remainders, so every
member stays an integer polynomial and a positive multiple of the
classical one; root_brackets bisects (0, 1/4] at dyadic points, counting
roots with the chain and narrowing each isolated root by the signs of
the polynomial alone.  Every sign is that of an integer: at u / 2^e the
polynomial is evaluated as 2^(e deg) p(u / 2^e) by Horner on u.

The witness pipeline covers the critical points of the bump's
derivatives with these brackets; it imports this module when it builds
a bump family, so the other pipelines start without it.
"""

from __future__ import annotations

from math import gcd

from .ratio import Ratio, ratio


def _sign_at(poly: tuple[int, ...], u: int, e: int) -> int:
    """The sign of the integer polynomial poly (lowest first) at the
    dyadic point u / 2^e.

    Horner on the numerator: 2^(e deg) * poly(u / 2^e) is an integer
    with the same sign.
    """
    acc = poly[-1]
    shift = 0
    for c in reversed(poly[:-1]):
        shift += e
        acc = acc * u + (c << shift)
    return (acc > 0) - (acc < 0)


def _primitive(poly: list[int]) -> tuple[int, ...]:
    """poly without trailing zeros, divided by the gcd of its
    coefficients; a positive multiple of poly, or () for zero."""
    while poly and poly[-1] == 0:
        poly.pop()
    content = 0
    for c in poly:
        content = gcd(content, c)
    return tuple(c // content for c in poly) if content else ()


def _pseudo_divide(
    a: tuple[int, ...], b: tuple[int, ...]
) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of c * a by b over the integers, for some
    integer c > 0 (a power of |lead(b)|), so both stay exact."""
    rem = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    scale, sign = abs(lead), (1 if lead > 0 else -1)
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        top = rem[-1] * sign
        rem = [c * scale for c in rem]
        quot = [c * scale for c in quot]
        quot[shift] += top
        for i, c in enumerate(b):
            rem[i + shift] -= top * c
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return quot, rem


def sturm_chain(poly: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The Sturm sequence (p, p', -rem, ...) of an integer polynomial,
    each member a positive multiple of the classical one, so its sign
    variations are the classical ones.  Its last member is
    gcd(p, p') up to a constant."""
    chain = [_primitive(list(poly)),
             _primitive([i * c for i, c in enumerate(poly)][1:])]
    while len(chain[-1]) > 1:
        _, rem = _pseudo_divide(chain[-2], chain[-1])
        rem = _primitive([-c for c in rem])
        if not rem:
            break
        chain.append(rem)
    return tuple(p for p in chain if p)


def _variations(chain, u: int, e: int) -> int:
    signs = [s for s in (_sign_at(p, u, e) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def root_brackets(
    poly: tuple[int, ...], width: Ratio
) -> tuple[tuple[Ratio, Ratio], ...]:
    """Disjoint brackets [a, b], sorted, one around each distinct real
    root of the integer polynomial poly in (0, 1/4].

    Sturm's theorem counts the roots in (a, b] as V(a) - V(b), V the
    sign variations of the chain (zeros skipped), also when a or b is
    a root, because the chain of the square-free part ends in a nonzero
    constant.  Intervals are halved at their midpoints until each holds
    one root with a sign change at its ends, which plain bisection on
    the signs of poly then narrows to at most width.  A root at a
    midpoint or at 1/4 becomes the bracket [c, c].  The search keeps an
    endpoint as an integer numerator u over 2^e, and returns it as the
    Ratio of u / 2^e.
    """
    chain = sturm_chain(poly)
    if len(chain[-1]) > 1:
        # the last member is gcd(poly, poly'), up to a constant: divide
        # it out, keeping every root and making each simple
        quotient, _ = _pseudo_divide(chain[0], chain[-1])
        chain = sturm_chain(_primitive(quotient))
    p = chain[0]
    if len(p) < 2:
        return ()
    out = []  # (u_a, u_b, e) for the bracket [u_a, u_b] / 2^e
    emit = out.append
    v_lo, v_hi = _variations(chain, 0, 2), _variations(chain, 1, 2)
    on_hi = _sign_at(p, 1, 2) == 0
    if on_hi:
        emit((1, 1, 2))
    # (a, b, e, V(a), V(b), number of roots in the open (a, b) / 2^e)
    todo = [(0, 1, 2, v_lo, v_hi, v_lo - v_hi - on_hi)]
    while todo:
        a, b, e, v_a, v_b, count = todo.pop()
        if count == 0:
            continue
        sign_a = _sign_at(p, a, e)
        if count == 1 and sign_a * _sign_at(p, b, e) < 0:
            # b - a > width, in integers: (b - a) / 2^e vs n / d
            while (b - a) * width[1] > width[0] << e:
                a, b, e = 2 * a, 2 * b, e + 1
                c = (a + b) // 2
                sign_c = _sign_at(p, c, e)
                if sign_c == 0:
                    a = b = c
                elif sign_c == sign_a:
                    a = c
                else:
                    b = c
            emit((a, b, e))
            continue
        a, b, e = 2 * a, 2 * b, e + 1
        c = (a + b) // 2
        v_c = _variations(chain, c, e)
        on_c = _sign_at(p, c, e) == 0
        if on_c:
            emit((c, c, e))
        left = v_a - v_c - on_c
        todo.append((a, c, e, v_a, v_c, left))
        todo.append((c, b, e, v_c, v_b, count - left - on_c))
    # sorted by value: both ends over the finest 2^e of the search
    top = max((e for _, _, e in out), default=0)
    out.sort(key=lambda t: (t[0] << (top - t[2]), t[1] << (top - t[2])))
    return tuple((ratio(a, 1 << e), ratio(b, 1 << e)) for a, b, e in out)
