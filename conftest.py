"""Options shared by the test suite (``tests/``) and the figure benchmarks
(``benchmarks/``): both keep golden snapshots that ``--regen`` refreshes."""

from __future__ import annotations

import pytest


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--regen",
        action="store_true",
        default=False,
        help="rewrite golden snapshot files (the generated-loop sources under "
        "tests/goldens/, the quick-mode figure outputs under "
        "benchmarks/goldens/) instead of comparing against them",
    )


@pytest.fixture(scope="session")
def regen(request: pytest.FixtureRequest) -> bool:
    """True when the run should refresh golden snapshots (``--regen``)."""
    return bool(request.config.getoption("--regen"))
