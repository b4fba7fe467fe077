"""Command-line behavior: exit codes, output shapes, determinism."""

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from hypervec import checker, inner
from hypervec.checker import SUITE_NAMES, SampleConfig, render_json, report_document
from hypervec.cli import _effective_config, build_parser, main
from hypervec.dsl import parse_model_file
from hypervec.scalars import FieldTag

CORPUS = Path(__file__).parent / "corpus"
GOLDEN = Path(__file__).parent / "golden"
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

CLEAN_FILE = """\
model "ok" { field Q dim 2 product trivial inner dot }
check wvs_axioms samples=40
check hip samples=60
"""

FAILING_FILE = """\
model "za" { field Q dim 2 product zero_augmented inner dot }
check real_ip samples=60
"""

UNBOUNDED_FILE = """\
model "g2" { field Q dim 2 product geometric(2) inner dot }
check real_ip samples=40
"""


@pytest.fixture()
def hvs(tmp_path):
    def write(text, name="model.hvs"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


class TestCheckCommand:
    def test_clean_run_exits_zero(self, hvs, capsys):
        assert main(["check", hvs(CLEAN_FILE)]) == 0
        out = capsys.readouterr().out
        assert "[pass]" in out
        assert "wvs_axioms" in out and "hip" in out

    def test_failing_run_exits_one_with_witness(self, hvs, capsys):
        assert main(["check", hvs(FAILING_FILE)]) == 1
        out = capsys.readouterr().out
        assert "[fail] sup_scaling" in out
        assert "a = 1" in out and "x = (1, 0)" in out and "y = (-1, 0)" in out
        assert "->" in out

    def test_unbounded_exits_one(self, hvs, capsys):
        assert main(["check", hvs(UNBOUNDED_FILE)]) == 1
        assert "[unbounded]" in capsys.readouterr().out

    def test_json_determinism(self, hvs, tmp_path, capsys):
        path = hvs(FAILING_FILE)
        j1, j2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["check", path, "--json", str(j1)])
        main(["check", path, "--json", str(j2)])
        capsys.readouterr()
        assert j1.read_bytes() == j2.read_bytes()
        doc = json.loads(j1.read_text())
        assert doc["model"] == "zero_augmented Q dim=2"
        assert doc["seed"] == 42
        assert doc["suites"][0]["name"] == "real_ip"

    def test_cli_seed_beats_file_directive(self, hvs, tmp_path, capsys):
        path = hvs('model "m" { field Q dim 2 product trivial }\n'
                   "check wvs_axioms samples=30 seed=5\n")
        j = tmp_path / "r.json"
        main(["check", path, "--json", str(j), "--seed", "9"])
        capsys.readouterr()
        assert json.loads(j.read_text())["seed"] == 9

    def test_flag_overrides_samples(self, hvs, capsys):
        path = hvs('model "m" { field Q dim 2 product trivial }\n'
                   "check wvs_axioms samples=400\n")
        assert main(["check", path, "--samples", "25"]) == 0
        assert "(25 samples)" in capsys.readouterr().out

    def test_no_directives(self, hvs, capsys):
        assert main(["check", hvs('model "m" { field Q dim 1 product trivial }')]) == 0
        assert "no check directives" in capsys.readouterr().out

    def test_parse_error_exits_two(self, hvs, capsys):
        bad = (CORPUS / "invalid" / "i01_missing_dim.hvs").read_text()
        assert main(["check", hvs(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 3, column 3" in err

    def test_lone_carriage_return_gives_the_parsers_position(self, tmp_path, capsys):
        # the lexer breaks lines at \n only; the CLI reads the file as it is
        text = 'model "m" {\r field R dim 1 product trivial }\n'
        path = tmp_path / "cr.hvs"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(ValueError) as parsed:
            parse_model_file(text)
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {parsed.value}\n"
        assert err.startswith("error: line 1, column 20: unknown field 'R'")

    @pytest.mark.parametrize(
        "data, message",
        [
            (
                b'model "m\xff" { field Q dim 1 product trivial }\n',
                "line 1, column 9: invalid UTF-8 byte 0xff",
            ),
            # columns count characters, not bytes; lines end at \n only
            (
                '# \u00e9\r\nmodel "\u00e9'.encode("utf-8") + b"\xe2\x82",
                "line 2, column 9: invalid UTF-8 byte 0xe2",
            ),
        ],
    )
    def test_invalid_utf8_exits_two_with_its_position(self, data, message, tmp_path, capsys):
        path = tmp_path / "bad.hvs"
        path.write_bytes(data)
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_huge_literal_exits_two_without_traceback(self):
        path = CORPUS / "invalid" / "i16_huge_literal.hvs"
        proc = subprocess.run(
            [sys.executable, "-m", "hypervec", "check", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: line 1, column 45: integer literal")
        assert "Traceback" not in proc.stderr

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "absent.hvs")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_flag_value_exits_two(self, hvs, capsys):
        assert main(["check", hvs(CLEAN_FILE), "--samples", "0"]) == 2
        assert "samples" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [CLEAN_FILE, 'model "m" { field Q dim 1 product trivial }'])
    def test_samples_flag_over_cap_exits_two(self, text, hvs, capsys):
        assert main(["check", hvs(text), "--samples", "100001"]) == 2
        assert "samples must be between 1 and 100000" in capsys.readouterr().err

    def test_dim_over_cap_exits_two(self, capsys):
        assert main(["check", str(CORPUS / "invalid" / "i18_dim_over_cap.hvs")]) == 2
        assert "line 1, column 25: dimension must be at most 64" in capsys.readouterr().err

    def test_depth_changes_no_report(self, hvs, tmp_path, capsys):
        path = hvs(CLEAN_FILE.replace("samples=40", "samples=40 depth=3"))
        texts = []
        for depth in ("1", "30"):
            out = tmp_path / f"r{depth}.json"
            assert main(["check", path, "--json", str(out), "--depth", depth]) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        capsys.readouterr()

    def test_depth_zero_exits_two(self, hvs, capsys):
        # depth is read by nothing, but a value that was never valid stays an error
        assert main(["check", hvs(CLEAN_FILE), "--depth", "0"]) == 2
        assert capsys.readouterr().err == "error: depth must be positive\n"
        assert main(["check", hvs(CLEAN_FILE.replace("samples=40", "depth=0"))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2, column 24: depth must be at least 1")


def effective_config(params, *flags):
    return _effective_config(params, build_parser().parse_args(["check", "m.hvs", *flags]))


class TestEffectiveConfig:
    # a flag beats the same directive parameter, which beats the default
    PARAMS = {"seed": 5, "samples": 30, "height": 7}

    def test_directive_parameters_reach_the_config_without_flags(self):
        assert effective_config(self.PARAMS) == SampleConfig(seed=5, samples=30, height=7)
        assert effective_config({"height": 3}) == SampleConfig(height=3)
        assert effective_config({}) == SampleConfig()

    @pytest.mark.parametrize(
        "flags, over_params, over_defaults",
        [
            (["--seed", "9"], SampleConfig(seed=9, samples=30, height=7), SampleConfig(seed=9)),
            (
                ["--samples", "11"],
                SampleConfig(seed=5, samples=11, height=7),
                SampleConfig(samples=11),
            ),
            (
                ["--samples", "11", "--seed", "9"],
                SampleConfig(seed=9, samples=11, height=7),
                SampleConfig(seed=9, samples=11),
            ),
        ],
    )
    def test_each_flag_beats_only_its_own_parameter(self, flags, over_params, over_defaults):
        assert effective_config(self.PARAMS, *flags) == over_params
        assert effective_config({}, *flags) == over_defaults

    def test_depth_never_reaches_the_config(self):
        assert effective_config({**self.PARAMS, "depth": 4}) == effective_config(self.PARAMS)
        assert effective_config({"depth": 4}, "--depth", "3") == SampleConfig()

    def test_depth_zero_is_checked_once_the_config_is_built(self):
        with pytest.raises(ValueError, match="^depth must be positive$"):
            effective_config(self.PARAMS, "--depth", "0")
        # a bad config value is reported before the depth flag
        with pytest.raises(ValueError, match="^samples must be"):
            effective_config({}, "--samples", "0", "--depth", "0")


def all_suites_file(family, samples=None):
    """A catalog model over Q^2 with one directive per suite, in order."""
    params = f" samples={samples}" if samples else ""
    directives = "".join(f"check {suite}{params}\n" for suite in SUITE_NAMES)
    return f'model "m" {{ field Q dim 2 product {family} inner dot }}\n' + directives


def count_passes(monkeypatch):
    """Count each checker.run_pass call by its config, its arity and the
    suites it evaluates."""
    passes = Counter()
    run_pass = checker.run_pass

    def counted(model, cfg, arity, rows, body):
        passes[cfg, arity, tuple(sorted(rows))] += 1
        return run_pass(model, cfg, arity, rows, body)

    monkeypatch.setattr(checker, "run_pass", counted)
    return passes


class TestCheckSharesReports:
    def test_each_report_computed_once_per_run(self, hvs, monkeypatch, capsys):
        # every suite of a stream is evaluated in its one pass, and
        # normal_equiv, which samples nothing, runs none
        passes = count_passes(monkeypatch)
        path = hvs(all_suites_file("trivial", samples=30))
        cfg = SampleConfig(samples=30)
        once = {
            (cfg, (2, 2), ("strong_normal", "weak_normal", "wvs_axioms")): 1,
            (cfg, (2, 1), ("lemma_basic",)): 1,
            (cfg, (1, 3), ("hip", "real_ip")): 1,
            (cfg, (1, 2), ("lemma_34", "norm_props")): 1,
            (cfg, (1, 1), ("theorem_normal",)): 1,
        }
        assert main(["check", path]) == 0
        assert passes == once
        # the reports are not kept from one run to the next
        assert main(["check", path]) == 0
        assert passes == {key: 2 for key in once}
        capsys.readouterr()

    def test_reports_are_shared_only_at_equal_config(self, hvs, tmp_path, capsys):
        path = hvs('model "t" { field Q dim 2 product trivial inner dot }\n'
                   "check hip samples=30\ncheck theorem_normal samples=60\n")
        out = tmp_path / "r.json"
        assert main(["check", path, "--json", str(out)]) == 0
        capsys.readouterr()
        hip, theorem = json.loads(out.read_text())["suites"]
        assert max(item["samples"] for item in hip["items"]) == 30
        consistent = [i for i in theorem["items"] if i["id"] == "implication_consistent"]
        assert consistent[0]["samples"] == 60

    def test_configs_differing_only_in_depth_share_one_report(
        self, hvs, tmp_path, monkeypatch, capsys
    ):
        text = ('model "za" { field Q dim 2 product zero_augmented inner dot }\n'
                "check hip samples=50 depth=3\ncheck real_ip samples=50 depth=5\n"
                "check hip samples=50 depth=4\n")
        mf = parse_model_file(text)
        # the report each directive gets when computed on its own
        cfg = SampleConfig(samples=50)
        hip = inner.check_hip_axioms(mf.model, mf.inner, cfg)
        alone = [hip, inner.check_real_ip_axioms(mf.model, mf.inner, cfg), hip]
        passes = count_passes(monkeypatch)
        out = tmp_path / "r.json"
        assert main(["check", hvs(text), "--json", str(out)]) == 1  # real_ip fails here
        capsys.readouterr()
        # one report per suite, both from one pass over their stream
        assert passes == {(cfg, (1, 3), ("hip", "real_ip")): 1}
        assert out.read_text() == render_json(report_document(mf.model.describe(), 42, alone))

    @pytest.mark.parametrize(
        "text, stream, draws",
        [
            pytest.param(
                None,
                (SampleConfig(samples=30), FieldTag.Q, 2),
                {(2, 2): 1, (2, 1): 1, (1, 3): 1, (1, 2): 1, (1, 1): 1},
                id="None-draws0",
            ),
            # 1400 * (1 + 3*16) = 68,600 values in the (1, 3) stream: more
            # than a run could once keep (2^16), so each suite drew it again
            pytest.param(
                'model "m" { field Q dim 16 product trivial inner dot }\n'
                "check real_ip samples=1400\ncheck hip samples=1400\n",
                (SampleConfig(samples=1400), FieldTag.Q, 16),
                {(1, 3): 1},
                id="dim16-draws1",
            ),
        ],
    )
    def test_each_stream_drawn_once_within_budget(
        self, text, stream, draws, hvs, tmp_path, monkeypatch, capsys
    ):
        path = hvs(text or all_suites_file("trivial", samples=30))

        def run():
            out = tmp_path / "r.json"
            code = main(["check", path, "--json", str(out)])
            return code, capsys.readouterr(), out.read_bytes()

        expected = run()
        streams = Counter()
        draw = checker.sample_stream

        def counted(cfg, field, dim, n_scalars, n_vectors):
            streams[cfg, field, dim, n_scalars, n_vectors] += 1
            return draw(cfg, field, dim, n_scalars, n_vectors)

        monkeypatch.setattr(checker, "sample_stream", counted)
        assert run() == expected
        assert {key[:3] for key in streams} == {stream}
        assert {key[3:]: n for key, n in streams.items()} == draws
        # nothing lasts beyond one run: the next run draws as many again
        assert run() == expected
        assert {key[3:]: n for key, n in streams.items()} == {
            arity: 2 * n for arity, n in draws.items()
        }

    def test_memory_does_not_grow_with_samples(self, hvs, capsys):
        # no sample tuple is kept: a stream ten times as long takes about
        # as much memory (a kept (1, 3) stream of 2000 tuples takes MBs)
        def peak(samples):
            path = hvs(
                'model "m" { field Q dim 2 product zero_augmented inner dot }\n'
                f"check real_ip samples={samples}\ncheck hip samples={samples}\n"
            )
            tracemalloc.start()
            try:
                assert main(["check", path]) == 1
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                capsys.readouterr()

        peak(200)  # the first run also allocates what every run reuses
        assert peak(2000) - peak(200) < 200_000

    def test_memory_stays_flat_at_dim_64(self, hvs, capsys):
        # a (1, 3) tuple at dim 64 over Q[i] takes 772 outputs: the draw
        # bounds each block by outputs, not by tuples, so a block holds a
        # few tuples' ints (a block of 64 whole tuples peaks above 10 MB)
        path = hvs('model "m" { field Qi dim 64 product zero_augmented inner dot }\ncheck hip\n')
        tracemalloc.start()
        try:
            code = main(["check", path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()
        assert code == 0
        assert peak < 4_000_000

    @pytest.mark.parametrize("family", ["trivial", "sign"])
    def test_full_run_matches_golden_report(self, family, hvs, tmp_path, capsys):
        out = tmp_path / "r.json"
        main(["check", hvs(all_suites_file(family)), "--json", str(out)])
        capsys.readouterr()
        assert out.read_bytes() == (GOLDEN / f"{family}.json").read_bytes()


CHECKED_CORPUS = sorted(
    path for path in (CORPUS / "valid").glob("*.hvs")
    if parse_model_file(path.read_text(encoding="utf-8")).checks
)


class TestCorpusGolden:
    """The JSON report of every valid corpus file with a check directive.

    These files reach what the catalog golden files do not: Q[i],
    weighted_dot, dims 1 and 3, unbounded witnesses and directive
    parameters. Regenerate with REGEN_GOLDEN=1 in the environment.
    """

    def test_corpus_has_checked_files(self):
        assert len(CHECKED_CORPUS) == 10

    @pytest.mark.parametrize("path", CHECKED_CORPUS, ids=lambda p: p.stem)
    def test_report_matches_golden(self, path, tmp_path, capsys):
        out = tmp_path / "r.json"
        main(["check", str(path), "--json", str(out)])
        capsys.readouterr()
        golden = GOLDEN / "corpus" / f"{path.stem}.json"
        if os.environ.get("REGEN_GOLDEN"):
            golden.parent.mkdir(exist_ok=True)
            golden.write_bytes(out.read_bytes())
        assert out.read_bytes() == golden.read_bytes()


class TestEssentialCommand:
    def test_documented_example(self, hvs, capsys):
        path = hvs('model "za" { field Q dim 2 product zero_augmented }')
        assert main(["essential", path, "--a", "3", "--x", "(1,2)"]) == 0
        assert capsys.readouterr().out == "E = {(3, 6)} (complete)\n"

    def test_sign_pair(self, hvs, capsys):
        path = hvs('model "s" { field Q dim 2 product sign }')
        assert main(["essential", path, "--a", "1", "--x", "(1,0)"]) == 0
        assert capsys.readouterr().out == "E = {(-1, 0), (1, 0)} (complete)\n"

    @pytest.mark.parametrize(
        "model,a,x,line",
        [
            ("field Qi dim 2 product geometric(1/2)", "1+i", "(1/2,i)",
             "E = {(1/2+1/2*i, -1+i)} (complete)"),
            ("field Qi dim 2 product geometric(1/2)", "2-1/3*i", "(0,0)",
             "E = {(0, 0)} (complete)"),
            ("field Q dim 3 product sign", "-2", "(0,0,0)", "E = {(0, 0, 0)} (complete)"),
            ("field Q dim 2 product zero_augmented", "3", "(0,0)", "E = {(0, 0)} (complete)"),
        ],
        ids=["gaussian_ray", "gaussian_ray_zero_x", "sign_zero_x", "zero_augmented_zero_x"],
    )
    def test_pinned_line(self, hvs, capsys, model, a, x, line):
        path = hvs(f'model "m" {{ {model} }}')
        assert main(["essential", path, "--a", a, "--x", x]) == 0
        assert capsys.readouterr().out == line + "\n"

    def test_bad_scalar_exits_two(self, hvs, capsys):
        path = hvs('model "s" { field Q dim 2 product sign }')
        assert main(["essential", path, "--a", "3/0", "--x", "(1,0)"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_hostile_gaussian_scalar_exits_two(self, capsys):
        path = str(CORPUS / "valid" / "v11_qi_inner.hvs")
        assert main(["essential", path, "--a", "2i", "--x", "(1, i)"]) == 2
        assert capsys.readouterr().err == "error: not a Gaussian rational: '2i'\n"

    def test_wrong_dim_exits_two(self, hvs, capsys):
        path = hvs('model "s" { field Q dim 2 product sign }')
        assert main(["essential", path, "--a", "1", "--x", "(1,0,0)"]) == 2

    def test_depth_flag_is_gone(self, hvs, capsys):
        path = hvs('model "g" { field Q dim 2 product geometric(1/2) }')
        with pytest.raises(SystemExit) as exc_info:
            main(["essential", path, "--a", "1", "--x", "(1,0)", "--depth", "3"])
        assert exc_info.value.code == 2
        assert "--depth" in capsys.readouterr().err


class TestSupCommand:
    def test_attained(self, hvs, capsys):
        path = hvs('model "za" { field Q dim 2 product zero_augmented inner dot }')
        assert main(["sup", path, "--a", "1", "--x", "(1,0)", "--y", "(-1,0)"]) == 0
        assert capsys.readouterr().out == "sup = 0 (attained at (0, 0))\n"

    def test_not_attained(self, hvs, capsys):
        path = hvs('model "g" { field Q dim 2 product geometric(1/2) inner dot }')
        assert main(["sup", path, "--a", "1", "--x", "(1,0)", "--y", "(-1,0)"]) == 0
        assert capsys.readouterr().out == "sup = 0 (not attained)\n"

    def test_unbounded(self, hvs, capsys):
        path = hvs('model "g" { field Q dim 2 product geometric(2) inner dot }')
        assert main(["sup", path, "--a", "1", "--x", "(1,0)", "--y", "(1,0)"]) == 0
        assert capsys.readouterr().out == "sup is unbounded\n"

    def test_defaults_to_dot_without_inner(self, hvs, capsys):
        path = hvs('model "t" { field Q dim 2 product trivial }')
        assert main(["sup", path, "--a", "2", "--x", "(1,2)", "--y", "(1,0)"]) == 0
        assert capsys.readouterr().out == "sup = 2 (attained at (2, 4))\n"

    @pytest.mark.parametrize("flag", ["--x", "--y"])
    def test_wrong_dim_exits_two(self, flag, hvs, capsys):
        path = hvs('model "t" { field Q dim 2 product trivial inner dot }')
        values = {"--a": "1", "--x": "(1,0)", "--y": "(1,0)", flag: "(1,0,0)"}
        assert main(["sup", path, *(t for kv in values.items() for t in kv)]) == 2
        # the message of ModelSpec.admit_vector: the CLI admits the vector
        assert "dimension mismatch: model dim=2, got 3" in capsys.readouterr().err

    def test_complex_field_exits_two(self, hvs, capsys):
        path = hvs('model "t" { field Qi dim 1 product trivial inner dot }')
        assert main(["sup", path, "--a", "1", "--x", "(1)", "--y", "(1)"]) == 2
        assert "real field" in capsys.readouterr().err


class TestCatalogCommand:
    def test_table(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        for name in ("trivial", "zero_augmented", "geometric(1/2)",
                     "geometric(2)", "sign"):
            assert name in out
        for suite in ("wvs_axioms", "real_ip", "norm_props"):
            assert suite in out
        assert "unbounded" in out
        assert "readings disagree" in out


class TestEntryPoints:
    def test_console_script_installed(self, capsys):
        """The `hypervec` script in pyproject.toml resolves to a working CLI.

        The entry point is loaded the way the installed script loads it, so
        this holds from a source checkout; an installed distribution must
        record the same target, so a stale install fails too.
        """
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        with open(PYPROJECT, "rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        declared = scripts.get("hypervec")
        assert declared == "hypervec.cli:main"
        script = importlib.metadata.EntryPoint(
            name="hypervec", value=declared, group="console_scripts"
        ).load()
        assert script is main

        with pytest.raises(SystemExit) as exc:
            script(["bogus"])
        assert exc.value.code == 2
        assert "usage: hypervec" in capsys.readouterr().err
        assert script(["catalog"]) == 0
        assert "trivial" in capsys.readouterr().out

        try:
            dist = importlib.metadata.distribution("hypervec")
        except importlib.metadata.PackageNotFoundError:
            return
        installed = {
            ep.name: ep.value
            for ep in dist.entry_points
            if ep.group == "console_scripts"
        }
        assert installed.get("hypervec") == declared

    @pytest.mark.skipif(
        shutil.which("hypervec") is None,
        reason="hypervec console script not on PATH",
    )
    def test_console_script_on_path(self):
        bogus = subprocess.run(
            ["hypervec", "bogus"], capture_output=True, text=True
        )
        assert bogus.returncode == 2
        assert "usage: hypervec" in bogus.stderr
        catalog = subprocess.run(
            ["hypervec", "catalog"], capture_output=True, text=True
        )
        assert catalog.returncode == 0
        assert "trivial" in catalog.stdout

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hypervec", "catalog"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "trivial" in proc.stdout

    def test_usage_error_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hypervec", "bogus"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2


class TestColdStart:
    # Each report is a fresh `hypervec check` process, so every module the
    # check path imports is paid for on every run. dataclasses pulls in
    # inspect, ast, dis and tokenize, and nothing on the check path needs
    # them; this pins the import graph without timing anything.
    NOT_LOADED = ("dataclasses", "inspect", "ast", "dis", "tokenize")

    def test_check_loads_no_dataclass_machinery(self, hvs):
        code = (
            "import sys, hypervec.cli\n"
            "code = hypervec.cli.main(['check', sys.argv[1]])\n"
            "print(code, sorted(set(sys.argv[2:]) & set(sys.modules)))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code, hvs(CLEAN_FILE), *self.NOT_LOADED],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"
