import pytest

from lawsonarea.omega import build_signed_table, build_table
from lawsonarea.precision import PrecisionConfig


def pytest_addoption(parser):
    parser.addoption("--skip-stretch", action="store_true", default=False,
                     help="skip the stretch checks (acceptance criteria 7 and 10)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--skip-stretch"):
        marker = pytest.mark.skip(reason="stretch checks disabled (--skip-stretch)")
        for item in items:
            if "stretch" in item.keywords:
                item.add_marker(marker)


@pytest.fixture(scope="session")
def pi_over_4_80():
    """pi/4 as an 80-digit decimal: a spelling of pi/4 by value only."""
    return ("0.78539816339744830961566084581987572104929234984377"
            "645524373614807695410157155225")


@pytest.fixture(scope="session")
def cfg40():
    return PrecisionConfig(40)


@pytest.fixture(scope="session")
def cfg45():
    return PrecisionConfig(45)


class TablePool:
    """Build each (endpoint, phi, depth, digits) word or signed table once per session."""

    def __init__(self):
        self._tables = {}

    def _get(self, build, endpoint, phi, depth, cfg):
        key = (build, endpoint, phi, depth, cfg.target_digits, cfg.guard_digits)
        if key not in self._tables:
            self._tables[key] = build(endpoint, phi, depth, cfg)
        return self._tables[key]

    def get(self, endpoint, phi, depth, cfg):
        return self._get(build_table, endpoint, phi, depth, cfg)

    def signed(self, endpoint, phi, depth, cfg):
        return self._get(build_signed_table, endpoint, phi, depth, cfg)


@pytest.fixture(scope="session")
def tables():
    return TablePool()


@pytest.fixture(scope="session")
def table40_pi4_L4(tables, cfg40):
    return tables.get("1", "pi/4", 4, cfg40)


@pytest.fixture(scope="session")
def table40_pi4_L7(tables, cfg40):
    return tables.get("1", "pi/4", 7, cfg40)


@pytest.fixture(scope="session")
def signed40_pi4_L4(tables, cfg40):
    return tables.signed("1", "pi/4", 4, cfg40)


@pytest.fixture(scope="session")
def signed40_pi4_L7(tables, cfg40):
    return tables.signed("1", "pi/4", 7, cfg40)


@pytest.fixture(scope="session")
def state40_o6(cfg40, signed40_pi4_L7):
    from lawsonarea.engine import run
    return run(6, cfg40, table=signed40_pi4_L7)
