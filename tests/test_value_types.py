"""The result and parameter types are immutable named tuples."""

import numpy as np
import pytest

from zrs import resolvent
from zrs.classifier import PoleReport, Region, Sheet, Similarity, SpectralClassification
from zrs.interaction import Interaction
from zrs.metric import Applicability, MetricSpec
from zrs.pauli import PauliVector
from zrs.resolvent import FTransform
from zrs.smatrix import build

POLE = PoleReport(location=0.5j, order=1, sheet=Sheet.PHYSICAL, z=-0.25)

# (type, keyword arguments in field order) of each value type
VALUES = [
    (PauliVector, dict(x0=0.5 + 0j, x1=0.25j, x2=0j, x3=-1 + 0j)),
    (PoleReport, dict(location=0.5j, order=1, sheet=Sheet.PHYSICAL, z=-0.25)),
    (
        SpectralClassification,
        dict(
            poles=(POLE,),
            eigenvalues=(-0.25 + 0j,),
            spectral_singularities=(),
            singularity_at_infinity=False,
            exceptional_points=(),
            similarity=Similarity.SELF_ADJOINT,
            region=Region.III,
            has_negative_eigenvalues=True,
        ),
    ),
    (
        MetricSpec,
        dict(
            alpha=np.array([0.0, 0.0, 1.0]),
            chi=0.5,
            kappa=0.46,
            applicability=Applicability.TWO_IMAGINARY_POLES,
            s=build(Interaction.from_abcd(-1, 0, 0, 0)),
        ),
    ),
    (resolvent.TestFunction, dict(kind=resolvent.TestFunctionKind.PLUS_EXPONENTIAL, k=1j, func=None)),
    (FTransform, dict(plus=0.5j, minus=0j)),
]


@pytest.mark.parametrize("cls, kwargs", VALUES, ids=[cls.__name__ for cls, _ in VALUES])
def test_value_type_contract(cls, kwargs):
    value = cls(**kwargs)
    assert cls._fields == tuple(kwargs)
    for name in (*kwargs, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    if cls is MetricSpec:  # an ndarray field compares elementwise
        assert all(getattr(value, name) is kwargs[name] for name in kwargs)
        return
    positional = cls(*kwargs.values())
    assert positional == value and hash(positional) == hash(value)
    assert value._asdict() == kwargs
    assert value._replace(**{cls._fields[-1]: None}) == (*value[:-1], None)


def test_repr_names_every_field():
    assert repr(POLE) == "PoleReport(location=0.5j, order=1, sheet=<Sheet.PHYSICAL: 'Physical'>, z=-0.25)"


def test_gamma_unpacks_and_test_function_defaults():
    x0, x1, x2, x3 = Interaction.from_abcd(-1, 0, 0, 0).gamma
    assert (x0, x1, x2, x3) == (0.5, 0.5, 0, 0)
    custom = resolvent.TestFunctionKind.CUSTOM
    assert resolvent.TestFunction(custom) == (custom, None, None)
