import os
import time
from pathlib import Path

import pytest

from hypervec import SUITE_NAMES, SampleConfig, run_suites
from hypervec.catalog import catalog_models
from hypervec.inner import DotProduct

# pyproject.toml's pytest `pythonpath` puts src on this process's path
# only; the tests that start `python -m hypervec` need it there too.
_SRC = str(Path(__file__).parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture(scope="session")
def default_catalog():
    """Every suite on every catalog model at the default config.

    Computed once per session; records wall time per model so the
    acceptance budget can be asserted against real numbers.
    """
    cfg = SampleConfig()
    ip = DotProduct()
    runs = {}
    timings = {}
    for name, model in catalog_models():
        start = time.monotonic()
        reports = run_suites(model, ip, cfg, list(SUITE_NAMES))
        timings[name] = time.monotonic() - start
        runs[name] = {report.suite: report for report in reports}
    return {"runs": runs, "timings": timings}


@pytest.fixture()
def fast_cfg():
    # covers the full forced prefix over Q for up to 4 slots (81 tuples)
    return SampleConfig(samples=120)
