import pytest

from vanish import config
from vanish.fields import GF, QQ
from vanish.poly import PolyRing


@pytest.fixture
def r2():
    return PolyRing(QQ, ("x", "y"))


@pytest.fixture
def r3():
    return PolyRing(QQ, ("x", "y", "z"))


@pytest.fixture
def gf7():
    return PolyRing(GF(7), ("x", "y"))


@pytest.fixture
def low_term_cap():
    """Temporarily shrink the term cap; the cap found beforehand, such as
    one from VANISH_TERM_CAP, is always restored."""
    saved = config.term_cap()
    yield config.set_term_cap
    config.set_term_cap(saved)
