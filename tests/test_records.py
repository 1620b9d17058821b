"""Record types: immutable tuples that survive pickling, validated where they check."""

import pickle

import numpy as np
import pytest

from casimir_rect import (
    ExpansionResult,
    QuadratureSpec,
    ScalingPoint,
    SigmaResult,
    SubsetTerm,
    WeightRecord,
    ZeroRecord,
)
from casimir_rect.effspin import build_model

RECORDS = [
    ZeroRecord(mu=2, sigma=-1, phi_sq=20.5, gamma=4.5),
    WeightRecord(mu=1, v=6.39, method="special_x_neg1"),
    SubsetTerm(a=0.25, gamma_sum=7.5),
    SigmaResult(value=1.0001, error_bound=1e-17),
    QuadratureSpec(rel_tol=1e-13, abs_tol=1e-14),
    ScalingPoint(x=-1.5, rho=0.75),
    build_model(0.5, 4),
    ExpansionResult(value=0.5, terms={"log": 0.25, "constant": 0.25}),
]


def same(a, b) -> bool:
    """Equal type and fields; the model's array fields compare element by element."""
    return type(a) is type(b) and all(
        np.array_equal(u, v) if isinstance(u, np.ndarray) else u == v for u, v in zip(a, b))


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_immutable_and_pickled_equal(record):
    assert isinstance(record, tuple)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    assert same(pickle.loads(pickle.dumps(record)), record)


@pytest.mark.parametrize("cls, fields", [(QuadratureSpec, (0.0, 1e-12)),
                                         (ScalingPoint, (float("nan"), 1.0))])
def test_checks_hold_on_unpickling_and_replace(cls, fields):
    # a record built around the check pickles, but is checked on the way back
    data = pickle.dumps(tuple.__new__(cls, fields))
    with pytest.raises(ValueError):
        pickle.loads(data)
    valid = cls(*(1.0 for _ in fields))
    with pytest.raises(ValueError):
        valid._replace(**dict(zip(cls._fields, fields)))
    with pytest.raises(ValueError):
        cls._make(fields)


def test_defaults_and_phi():
    assert QuadratureSpec() == (1e-12, 1e-12)
    assert ZeroRecord(mu=1, sigma=1, phi_sq=2.25, gamma=1.5).phi == 1.5
    with pytest.raises(ValueError):
        ZeroRecord(mu=1, sigma=1, phi_sq=-1.0, gamma=0.5).phi
