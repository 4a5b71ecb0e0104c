"""Per-element records: positional named tuples with the dataclass contract.

Blocks, excursions, baselines, arrival processes and influence regions are
built once per element, so they are named tuples built positionally.  Each
keeps its field order, a ``Name(field=value, ...)`` repr, immutability and
hashing; edits go through ``_replace``.  ``len()`` of a block or an
ornamented excursion is its rank count, not its field count.
"""
import copy
import pickle
import sys

import pytest

from mcmosaic.dynamics import ComponentBlock
from mcmosaic.mosaic import Baseline, OrnamentedExcursion
from mcmosaic.surplus import InfluenceRegion, ZetaProcess
from mcmosaic.walk import Excursion

_BASELINES = (
    Baseline(0, "active", None, None, (1, 2, 3)),
    Baseline(1, "gray", None, None, (2,)),
    Baseline(2, "gray", None, None, ()),
    Baseline(3, "gray", None, None, ()),
)

# record type, field order, positional values, one edit, len()
RECORDS = [
    (ComponentBlock, ("lo", "hi", "mass"), (2, 6, 1.5), {"hi": 3}, 5),
    (
        Excursion,
        ("start", "end", "rank_lo", "rank_hi", "vertices", "mass"),
        (0.5, 2.0, 1, 2, (4, 0), 1.5),
        {"mass": 2.0},
        6,
    ),
    (
        Baseline,
        ("owner_rank", "status", "level", "pieces", "covers"),
        (1, "gray", -0.25, ((0.5, 1.0),), range(2, 3)),
        {"covers": (2,)},
        5,
    ),
    (
        OrnamentedExcursion,
        ("q", "rank_lo", "rank_hi", "vertices", "masses", "positions", "baselines"),
        (1.0, 0, 3, (0, 1, 2, 3), (1.0, 2.0, 0.5, 1.5), None, _BASELINES),
        {"q": 2.0},
        4,
    ),
    (
        ZetaProcess,
        ("l", "j", "k", "activation", "rate", "target_mass"),
        (3, 0, 2, 0.5, 1.5, 3.0),
        {"rate": 2.0},
        6,
    ),
    (InfluenceRegion, ("target_rank", "end"), (1, 4), {"end": 2}, 2),
]


@pytest.mark.parametrize(
    "cls,fields,values,edit,length", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_contract(cls, fields, values, edit, length):
    rec = cls(*values)
    assert cls._fields == fields
    assert rec == cls(**dict(zip(fields, values)))
    assert repr(rec) == "%s(%s)" % (
        cls.__name__, ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    )
    assert len(rec) == length
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], values[0])
    twin = cls(*values)
    assert twin == rec and hash(twin) == hash(rec)

    want = cls(*(edit.get(f, v) for f, v in zip(fields, values)))
    edited = [rec._replace(**edit), copy.copy(rec)._replace(**edit)]
    if sys.version_info >= (3, 13):
        edited.append(copy.replace(rec, **edit))
    for got in edited:
        assert type(got) is cls and got == want and got != rec
    assert pickle.loads(pickle.dumps(rec)) == rec
    assert cls._make(values) == rec


def test_record_helpers():
    assert ComponentBlock(2, 6, 1.5).ranks() == range(2, 7)
    assert InfluenceRegion(1, 4).ranks() == range(2, 4)
    assert InfluenceRegion(3, 4).ranks() == range(4, 4)  # a root's region
    fx = OrnamentedExcursion.from_covers((1.0, 2.0, 0.5, 1.5), {1: (2,)})
    assert fx == RECORDS[3][0](*RECORDS[3][2])
    assert fx.floor is None
    assert fx._replace(baselines=(Baseline(0, "active", -0.5, None, ()),)).floor == -0.5
