"""The traced benchmark still finds every function it wraps.

bench/tracing.py wraps hypervec functions by module and name; a rename
or a new signature would otherwise surface only in a traced benchmark
run. This runs a small check file under the tracer, in process.
"""

import importlib
from pathlib import Path

from hypervec import cli

BENCH = Path(__file__).parent.parent / "bench"

SMALL_FILE = """\
model "t" { field Q dim 2 product trivial inner dot }
check hip samples=5
check strong_normal samples=5
"""


def test_traced_check_run(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    path = tmp_path / "small.hvs"
    path.write_text(SMALL_FILE, encoding="utf-8")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        code = cli.main(["check", str(path)])
    finally:
        tracer.restore()  # raises if a wrapper is left installed
    capsys.readouterr()
    assert code == 0
    assert tracer.restored > 0
    assert tracer.counts()["checker.sample_stream.tuples"] == 10
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "checker.suite.hip", "checker.suite.strong_normal"} <= names
    assert tracer.stats["essential.essential_points"].calls > 0
    assert tracer.stats["inner.pairing"].calls > 0
