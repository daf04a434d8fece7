import numpy as np
import pytest

from nonholib import SleighParams, ode
from nonholib.systems import (
    sleigh_friction_form,
    sleigh_ortho_frame,
    sleigh_system,
    sleigh_uvw_frame,
)


@pytest.fixture(scope="session")
def sleigh():
    return SleighParams(m=1.0, I=1.0, a=0.2)


@pytest.fixture(scope="session")
def sleigh_setup(sleigh):
    """(system, orthogonal frame, friction form) triple for the sleigh."""
    return sleigh_system(sleigh), sleigh_ortho_frame(sleigh), sleigh_friction_form(sleigh)


@pytest.fixture(scope="session")
def sleigh_uvw(sleigh):
    return sleigh_uvw_frame(sleigh)


def random_sleigh_q(rng, size=None):
    """Chart points with the blade angle spread over the circle."""
    if size is None:
        q = rng.uniform(-1.0, 1.0, 3)
        q[2] = rng.uniform(-np.pi, np.pi)
        return q
    out = rng.uniform(-1.0, 1.0, (size, 3))
    out[:, 2] = rng.uniform(-np.pi, np.pi, size)
    return out


def text_of(field):
    """The text the steppers write into their stages for field, or None: the
    lookup integrate makes."""
    return ode._TEXTS.get(getattr(field, "__code__", None))
