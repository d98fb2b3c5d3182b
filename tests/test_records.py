"""Contract of the layers' value records: immutable NamedTuples that
compare, hash, pickle and print by value."""

import pickle
from fractions import Fraction

import pytest

from fuchsian.curves import HyperellipticCurve
from fuchsian.disk_geometry import GeodesicArc, HyperbolicPolygon
from fuchsian.group_builder import VerifyEntry, VerifyReport
from fuchsian.tessellation import CycleCount, GenusRange, TessellationSpec
from fuchsian.whittaker import HdeParams

ARC = GeodesicArc((1j, 1 + 0j), 1 + 1j, 1.0)
ENTRY = VerifyEntry("surface[1]", 2e-16, 3.5 + 1e-17j, "hyperbolic", None, True)

# (record type, keyword arguments, one field changed, expected repr)
RECORDS = [
    (HyperellipticCurve, {"genus": 2, "sign": -1}, {"sign": 1},
     "HyperellipticCurve(genus=2, sign=-1)"),
    (GeodesicArc, {"endpoints": (1j, 1 + 0j), "center": 1 + 1j, "radius": 1.0},
     {"radius": 2.0},
     "GeodesicArc(endpoints=(1j, (1+0j)), center=(1+1j), radius=1.0)"),
    (HyperbolicPolygon, {"vertices": (1j, 1 + 0j), "sides": (ARC,),
                         "ideal": (True, True)}, {"ideal": (True, False)},
     "HyperbolicPolygon(vertices=(1j, (1+0j)), sides=(GeodesicArc("
     "endpoints=(1j, (1+0j)), center=(1+1j), radius=1.0),), "
     "ideal=(True, True))"),
    (GenusRange, {"g_min": 4, "g_max": 12}, {"g_max": 11},
     "GenusRange(g_min=4, g_max=12)"),
    (TessellationSpec, {"p": 8, "q": 8, "genus": 2, "hyperbolic": True}, {"q": 9},
     "TessellationSpec(p=8, q=8, genus=2, hyperbolic=True)"),
    (CycleCount, {"ratio": Fraction(2, 1), "divisible": True},
     {"ratio": Fraction(3, 2), "divisible": False},
     "CycleCount(ratio=Fraction(2, 1), divisible=True)"),
    (HdeParams, {"alpha": 0.2, "beta": 0.4, "gamma": 0.8, "a": 0.2, "g": 2},
     {"g": 3}, "HdeParams(alpha=0.2, beta=0.4, gamma=0.8, a=0.2, g=2)"),
    # repr strings as the frozen dataclasses printed them
    (VerifyEntry, {"label": "boundary[2]", "det_residual": 0.0, "trace": 1e-16j,
                   "map_class": "elliptic", "involution_residual": 4e-16,
                   "passed": True}, {"passed": False},
     "VerifyEntry(label='boundary[2]', det_residual=0.0, trace=1e-16j, "
     "map_class='elliptic', involution_residual=4e-16, passed=True)"),
    (VerifyReport, {"entries": (ENTRY,), "passed": True}, {"entries": ()},
     "VerifyReport(entries=(VerifyEntry(label='surface[1]', det_residual=2e-16, "
     "trace=(3.5+1e-17j), map_class='hyperbolic', involution_residual=None, "
     "passed=True),), passed=True)"),
]


@pytest.mark.parametrize(
    "cls, fields, changed, text", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_value_record_contract(cls, fields, changed, text):
    record = cls(**fields)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1
    twin = cls(*record)
    assert twin == record and hash(twin) == hash(record)
    assert len({record, twin}) == 1
    # a NamedTuple is a tuple: it equals the plain tuple of its values
    assert record == tuple(record)
    assert record._replace(**changed) != record
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(record, protocol=protocol))
        assert type(restored) is cls and restored == record
    assert repr(record) == text


@pytest.mark.parametrize("genus, sign", [
    (0, 1), (-3, -1), (2, 2), (2, 0),
    # equal to valid ints, but not ints: rejected before roots() sees them
    (2.0, 1), (2.5, 1), (True, 1), (2, 1.0), (2, -1.0), (2, True),
])
def test_invalid_curve_raises_value_error_on_every_path(genus, sign):
    with pytest.raises(ValueError):
        HyperellipticCurve(genus, sign)
    with pytest.raises(ValueError):
        HyperellipticCurve(genus=genus, sign=sign)
    with pytest.raises(ValueError):
        HyperellipticCurve._make((genus, sign))
    with pytest.raises(ValueError):
        HyperellipticCurve(2, 1)._replace(genus=genus, sign=sign)
    # a record forged past __new__ is validated again when unpickled
    forged = tuple.__new__(HyperellipticCurve, (genus, sign))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(forged, protocol=protocol)
        with pytest.raises(ValueError):
            pickle.loads(data)



def test_an_integer_like_genus_and_sign_are_stored_as_ints():
    class Index:
        def __init__(self, value):
            self.value = value

        def __index__(self):
            return self.value

    curve = HyperellipticCurve(Index(3), Index(-1))
    assert curve == (3, -1)
    assert type(curve.genus) is int and type(curve.sign) is int
