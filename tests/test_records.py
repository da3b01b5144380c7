"""Value semantics of the matrix-layer records.

Reports and traces compare by value (the differential tests compare them
with `==`), print as `Name(field=value, ...)`, and `BitMatrix`, which the
package exports as an immutable value, hashes by value and refuses any
assignment.  `AvailabilityCode` compares by value too but is unhashable,
and its echelon form of H, from which k, `dual_basis` and `basis` are
read, is computed once, on first use, and is not a field.
"""

import copy
import pickle

import pytest

import availcodes.codes
from availcodes import (
    AvailabilityCheckReport,
    AvailabilityCode,
    BitMatrix,
    GreedyTrace,
    StrictCheckReport,
    build_partition_family,
    check_availability,
    check_strict_availability,
    greedy_cover,
    partition_code,
)

K4_EDGES = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_bitmatrix_is_an_immutable_value():
    a = BitMatrix(2, 3, (0b101, 0b010))
    b = BitMatrix.from_rows([5, 2], 3)
    assert a == b and a is not b
    assert a != BitMatrix(2, 4, (5, 2))
    assert a != BitMatrix(2, 3, (5, 3))
    assert a != (2, 3, (5, 2))
    assert hash(a) == hash(b)
    assert len({a, b, a.transpose(), a.transpose()}) == 2
    assert repr(a) == "BitMatrix(rows=2, cols=3, bits=(5, 2))"
    assert repr(BitMatrix(0, 4, ())) == "BitMatrix(rows=0, cols=4, bits=())"
    for name in ("rows", "cols", "bits", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert (a.rows, a.cols, a.bits) == (2, 3, (5, 2))
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and hash(twin) == hash(a)
        with pytest.raises(AttributeError):
            twin.rows = 3


def test_strict_report_record():
    report = check_strict_availability(BitMatrix.from_supports([(1, 2), (1, 2), (3,)], 3), 1, 1)
    assert report == StrictCheckReport(False, (3,), (1, 2), ((1, 2),), False)
    assert report != StrictCheckReport(False, (3,), (1, 2), ((1, 2),), True)
    assert report != AvailabilityCheckReport(False, ())
    assert repr(report) == (
        "StrictCheckReport(passed=False, row_weight_violations=(3,), "
        "column_weight_violations=(1, 2), intersection_violations=((1, 2),), balance_ok=False)"
    )


def test_availability_report_record():
    report = check_availability(BitMatrix.from_supports([(1, 2), (2, 3)], 3), 1, 1)
    assert report == AvailabilityCheckReport(True, (True, True, True))
    assert report != AvailabilityCheckReport(True, (True, True))
    assert repr(report) == "AvailabilityCheckReport(passed=True, column_ok=(True, True, True))"
    assert copy.deepcopy(report) == report == pickle.loads(pickle.dumps(report))
    assert AvailabilityCheckReport(False, (True, False)).failing_columns == (2,)


def test_greedy_trace_record():
    trace = greedy_cover(AvailabilityCode(H=BitMatrix.from_supports(K4_EDGES, 4)))
    assert trace == GreedyTrace(sigma=(1, 2, 3), g=(3, 2, 1), final_bound=1)
    assert trace.flags == () == GreedyTrace((1,), (1,), 0).flags
    assert trace != GreedyTrace((1, 2, 3), (3, 2, 1), 1, ((2, "stall"),))
    assert repr(trace) == "GreedyTrace(sigma=(1, 2, 3), g=(3, 2, 1), final_bound=1, flags=())"


def test_availability_code_record(monkeypatch):
    eliminations = []
    real = availcodes.codes.row_space_basis
    monkeypatch.setattr(
        availcodes.codes, "row_space_basis", lambda h: eliminations.append(h) or real(h)
    )
    family = build_partition_family(1, 2)
    code, same = partition_code(family, 3), partition_code(family, 3)
    assert code == same
    assert code != partition_code(family, 2)
    assert code != AvailabilityCode(H=code.H, r=1, t=3)
    with pytest.raises(TypeError):
        hash(code)
    fresh = pickle.dumps(code)
    assert (code.k, code.k) == (1, 1)
    assert code.dual_basis.rows == 3 and code.basis == BitMatrix(1, 4, (15,))
    assert code.dual_basis is code.dual_basis and code.basis is code.basis
    assert eliminations == [code.H]
    assert code == same  # the cached echelon is not compared
    for twin in (copy.copy(code), copy.deepcopy(code), pickle.loads(fresh), pickle.loads(pickle.dumps(code))):
        assert twin == code
    assert repr(code) == (
        "AvailabilityCode(H=BitMatrix(rows=6, cols=4, bits=(3, 12, 9, 6, 5, 10)), r=1, t=3, "
        "kind='strict', construction='partition', parameters={'g': 2, 'choice': [1, 2, 3]})"
    )


def test_availability_code_defaults_and_kind():
    h = BitMatrix.from_supports(K4_EDGES, 4)
    a, b = AvailabilityCode(H=h), AvailabilityCode(h)
    assert a == b
    assert (a.r, a.t, a.kind, a.construction, a.parameters) == (None, None, "general", "", {})
    assert a.parameters is not b.parameters
    assert (a.n, a.m, a.k) == (4, 6, 1)
    with pytest.raises(ValueError, match="kind must be strict or general"):
        AvailabilityCode(H=h, kind="regular")
