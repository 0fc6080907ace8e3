"""The exact tokens of the job-file grammar.

All numeric fields of the exact pipelines take integers or ratios a/b
only, read into exact (numerator, denominator) pairs, and a foliation
entry is p, p+q*alpha or p-q*alpha with p, q such ratios
(parse_ext_scalar).  Decimal literals are rejected with a pointed
message, since silently rounding them would defeat the purpose of an
exact engine.  parse_ext_scalar imports ExtScalar only once its token
has parsed, so a job whose values do not parse loads no pipeline.
"""

from __future__ import annotations

from .errors import ValidationError
from .ratio import Ratio, parse_ratio

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .scalars import ExtScalar


# The token tests are str predicates, so that no job compiles a regular
# expression.  A digit is a character str.isdecimal accepts: Unicode
# category Nd, as the \d of a str pattern, and what int() reads.
def _is_ratio(token: str) -> bool:
    # an optional minus and digits, then optionally '/' and digits
    num, slash, den = token.removeprefix("-").partition("/")
    return num.isdecimal() and (den.isdecimal() or not slash)


def _is_decimal_literal(token: str) -> bool:
    # a digit on either side of a point: 0.5, .5, -.5, 5.
    return any(c == "." and (token[i - 1:i].isdecimal()
                             or token[i + 1:i + 2].isdecimal())
               for i, c in enumerate(token))


def exact_ratio(key: str, token: str) -> Ratio:
    if not _is_ratio(token):
        if _is_decimal_literal(token):
            raise ValidationError(
                key,
                "decimal literal %r not allowed in an exact field; "
                "use an integer or a fraction like 1/2" % token,
            )
        raise ValidationError(key, "cannot parse %r as a fraction" % token)
    try:
        return parse_ratio(token)
    except ZeroDivisionError:
        raise ValidationError(key, "zero denominator in %r" % token) from None


def exact_int(key: str, token: str) -> int:
    if not token.removeprefix("-").isdecimal():
        if _is_decimal_literal(token):
            raise ValidationError(
                key, "decimal literal %r not allowed; use an integer" % token
            )
        raise ValidationError(key, "cannot parse %r as an integer" % token)
    return int(token)


def parse_ext_scalar(text: str) -> ExtScalar:
    """Parse 'p', 'p+q*alpha' or 'p-q*alpha' with p, q integer or fraction.

    Decimal literals are rejected on purpose: exact fields must stay exact.
    """
    raw = text.strip()
    rat, sign, irr = raw, "+", "0"
    if raw.endswith("*alpha"):
        # q has no sign, so its sign is the last in raw; without one after
        # p's, rat is empty or ends in "alph" and is refused
        at = max(raw.rfind("+"), raw.rfind("-"))
        rat, sign, irr = raw[:at], raw[at], raw[at + 1:-len("*alpha")]
    if not (_is_ratio(rat) and _is_ratio(irr)):
        if _is_decimal_literal(raw):
            raise ValueError(
                "decimal literal %r not allowed in an exact field; "
                "use an integer or a fraction like 3/10" % raw
            )
        raise ValueError(
            "cannot parse %r as an exact scalar "
            "(expected p or p+q*alpha with p, q rational)" % raw
        )
    try:
        rat, irr = parse_ratio(rat), parse_ratio(irr)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % raw) from None
    if sign == "-":
        irr = (-irr[0], irr[1])
    from .scalars import ExtScalar

    return ExtScalar(rat, irr)
