"""Input guards that no job reaches.

config validates a job file before the engine's constructors see it,
so each guard below is met only by a library caller.  Each case checks
the exception and its message.
"""

from __future__ import annotations

import pytest

from quotientcoh import (
    ExactMatrix, ExtScalar, LieAlgebra, Subspace, TorusSpec, abelian,
    build_bumps, quotient)
from quotientcoh.record import record
from quotientcoh.witness import interval

GUARDS = [
    ("negative Lie dimension",
     lambda: LieAlgebra(-1, ExactMatrix.zero(0, 0)),
     ValueError, "dimension must be nonnegative"),
    ("wrong bracket table shape",
     lambda: LieAlgebra(2, ExactMatrix.zero(2, 2)),
     ValueError, "bracket matrix must be 1 x 2"),
    ("short spanning vector",
     lambda: Subspace.span(3, [[1, 0]]),
     ValueError, "vector length 2 != ambient dim 3"),
    ("quotient by a subspace of another space",
     lambda: quotient(abelian(3), Subspace.span(2, [[1, 0]])),
     ValueError, "subspace ambient dimension does not match algebra"),
    ("short torus direction",
     lambda: TorusSpec(n=3, foliation_dirs=((ExtScalar(1), ExtScalar(0)),)),
     ValueError, "direction vector length 2 != n = 3"),
    ("torus direction entry that is no ExtScalar",
     lambda: TorusSpec(n=2, foliation_dirs=((ExtScalar(1), 0),)),
     ValueError, "direction entries must be ExtScalar"),
    ("support interval of level 0",
     lambda: interval(0),
     ValueError, "levels start at k = 1"),
    ("phi derivative above the family's order",
     lambda: build_bumps(range(1, 3), max_derivative_order=1,
                         samples_per_interval=3).phi_derivative(2, [0.5]),
     ValueError, "derivative order 2 out of range"),
    ("dense matrix with no rows",
     lambda: ExactMatrix.from_rows([]),
     ValueError, "cannot infer width of a matrix with no rows"),
    ("record that extends a record",
     lambda: record(type("Wider", (ExtScalar,), {})),
     TypeError, "a record cannot extend another record"),
]


@pytest.mark.parametrize(
    "build, error, message",
    [case[1:] for case in GUARDS],
    ids=[case[0] for case in GUARDS])
def test_constructor_guards_refuse_malformed_input(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert str(raised.value) == message
