import pytest

from maxdet import bounds
from maxdet.constructions import build_recipe
from maxdet.sieve import build_order_set

# limit with headroom above 2^16 so gamma(65536) has a successor
SIEVE_LIMIT = 66560


@pytest.fixture(scope="session")
def order_set():
    return build_order_set(SIEVE_LIMIT)


@pytest.fixture(scope="session")
def h4():
    return build_recipe("unit;double;double")


@pytest.fixture(scope="session")
def h8():
    return build_recipe("unit;double;double;double")


@pytest.fixture(scope="session")
def h12():
    return build_recipe("paley1(11)")


@pytest.fixture
def exact_floor_calls(monkeypatch):
    """Arguments of every floor decision that the logarithms leave to the
    exact integer comparison."""
    calls = []
    real = bounds._dbar_sq_above_exact
    monkeypatch.setattr(bounds, "_dbar_sq_above_exact",
                        lambda *args: calls.append(args) or real(*args))
    return calls
