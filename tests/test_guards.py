"""Constructor guards of the engine's records.

Most guards below are met only by a library caller, since a job file
either cannot state the input or is refused before the record is built.
The TorusSpec cases and the short vector of Subspace.span are the
exceptions: the spec is the one holder of a [torus] section's shape,
and the span of an ideal's vectors, so a job file with the same fault
is refused by the same check, with the same message
(tests/test_config.py).  Each case checks the exception and its
message.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from quotientcoh import (
    CochainComplex, ExactMatrix, ExtScalar, LieAlgebra, Subspace, TorusSpec,
    abelian, build_bumps, ce_complex, quotient)
from quotientcoh.record import record
from quotientcoh.witness import interval

# the message of a row entry (i, j, x) off the normal form at width w
OFF_NORMAL_FORM = ("row 0 entry (%d, %d) is off the normal form: nonzeros "
                   "at increasing columns in [0, %d)")

GUARDS = [
    ("negative Lie dimension",
     lambda: LieAlgebra.from_brackets(-1, {}),
     ValueError, "width must be nonnegative, got -1"),
    ("wrong bracket table shape",
     lambda: LieAlgebra(ExactMatrix.zero(2, 2)),
     ValueError, "bracket matrix must be 1 x 2"),
    ("negative matrix width",
     lambda: ExactMatrix(-1, 1, ()),
     ValueError, "width must be nonnegative, got -1"),
    ("stored zero",
     lambda: ExactMatrix(1, 1, (((0, 0),),)),
     ValueError, OFF_NORMAL_FORM % (0, 0, 1)),
    ("unsorted columns",
     lambda: ExactMatrix(2, 1, (((1, 2), (0, 3)),)),
     ValueError, OFF_NORMAL_FORM % (0, 3, 2)),
    ("repeated column",
     lambda: ExactMatrix(2, 1, (((1, 2), (1, 3)),)),
     ValueError, OFF_NORMAL_FORM % (1, 3, 2)),
    ("column at the width",
     lambda: ExactMatrix(2, 1, (((2, 1),),)),
     ValueError, OFF_NORMAL_FORM % (2, 1, 2)),
    ("negative column",
     lambda: ExactMatrix(2, 1, (((-1, 1),),)),
     ValueError, OFF_NORMAL_FORM % (-1, 1, 2)),
    ("complex missing a differential",
     lambda: CochainComplex((), abelian(2)),
     ValueError, "a complex of dim 2 needs 2 differentials, got 0"),
    ("misshapen differential",
     lambda: CochainComplex((ExactMatrix.zero(2, 1), ExactMatrix.zero(1, 3)),
                            abelian(2)),
     ValueError, "d_1 must be 1 x 2, got 1 x 3"),
    ("weight of the wrong length",
     lambda: CochainComplex(ce_complex(abelian(2)).d, abelian(2), (1,)),
     ValueError, "weight length 1 != dim 2"),
    ("subspace column outside its ambient space",
     lambda: Subspace(2, (((5, 1),),)),
     ValueError, OFF_NORMAL_FORM % (5, 1, 2)),
    ("short spanning vector",
     lambda: Subspace.span(3, [[1, 0]]),
     ValueError, "vector has 2 entries, expected 3"),
    ("quotient by a subspace of another space",
     lambda: quotient(abelian(3), Subspace.span(2, [[1, 0]])),
     ValueError, "subspace ambient dimension does not match algebra"),
    # a TorusSpec holds the shape of a [torus] section alone: each of its
    # refusals names the key it concerns, and a job file refused there
    # prints it after "key 'torus': " (tests/test_config.py)
    ("short torus direction",
     lambda: TorusSpec(n=3, foliation_dirs=((ExtScalar(1), ExtScalar(0)),)),
     ValueError, "foliation: direction vector has 2 entries, expected n = 3"),
    ("long torus direction",
     lambda: TorusSpec(n=2, foliation_dirs=((ExtScalar(1),) * 3,)),
     ValueError, "foliation: direction vector has 3 entries, expected n = 2"),
    ("torus direction entry that is no ExtScalar",
     lambda: TorusSpec(n=2, foliation_dirs=((ExtScalar(1), 0),)),
     ValueError, "direction entries must be ExtScalar"),
    ("one automorphism row on T^2",
     lambda: TorusSpec(n=2, automorphism=((1, 0),)),
     ValueError, "automorphism: 1 row, expected n = 2"),
    ("short automorphism row",
     lambda: TorusSpec(n=2, automorphism=((1, 0), (0,))),
     ValueError, "automorphism: row vector has 1 entry, expected n = 2"),
    ("three automorphism rows on T^2",
     lambda: TorusSpec(n=2, automorphism=((1, 0, 0), (0, 1, 0), (0, 0, 1))),
     ValueError, "automorphism: 3 rows, expected n = 2"),
    ("automorphism rows beside invariance",
     lambda: TorusSpec(n=2, invariance_coords={0},
                       automorphism=((2, 1), (1, 1))),
     ValueError, "invariance: not allowed with automorphism rows"),
    ("automorphism rows beside discrete coordinates",
     lambda: TorusSpec(n=2, discrete_coords={1},
                       automorphism=((2, 1), (1, 1))),
     ValueError, "discrete: not allowed with automorphism rows"),
    ("alpha direction beside automorphism rows",
     lambda: TorusSpec(n=3, foliation_dirs=(
         (ExtScalar(0), ExtScalar(0), ExtScalar(1, 1)),),
         automorphism=((2, 1, 0), (1, 1, 0), (1, -1, 1))),
     ValueError, "foliation: a direction with an alpha part is ROADMAP item "
     "24 phase 3: the modes an irrational foliation leaves form a lattice "
     "of lower rank than its transverse frame"),
    # diag(1/2, 2) has determinant 1 but does not act on T^2
    ("automorphism entry that is no integer",
     lambda: TorusSpec(n=2, automorphism=((Fraction(1, 2), 0), (0, 2))),
     ValueError, "automorphism: entry 1/2 is not an integer"),
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
