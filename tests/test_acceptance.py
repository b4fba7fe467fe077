"""Acceptance gate: one test per shipping criterion, default config.

Every test here runs at the stated scale (seed 42, 500 samples, height
10, exact arithmetic, zero tolerance) against the full model catalog.
The session fixture computes each model's ten suites once and records
wall time, so the budget criterion is checked against real numbers.
Golden reports are regenerated by running with REGEN_GOLDEN=1 in the
environment.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypervec.catalog import EXPECTED_VERDICTS
from hypervec.checker import SampleConfig, render_json, report_document, roll_up
from hypervec.dsl import format_model_file, parse_model_file
from hypervec.essential import essential_points
from hypervec.inner import DotProduct, check_hip_axioms, check_lemma_34, pairing
from hypervec.models import ModelSpec, ZeroAugmented
from hypervec.scalars import FieldTag, GaussianRational, abs2, conjugate, parse_scalar
from hypervec.vectors import make_vector, parse_vector, zero_vector

F = Fraction
G = GaussianRational
HERE = Path(__file__).parent
GOLDEN = HERE / "golden"

MODELS = ["trivial", "zero_augmented", "geometric(1/2)", "geometric(2)", "sign"]


def qv(*coords):
    return make_vector(FieldTag.Q, list(coords))


def test_criterion_01_axioms_pass_on_all_models(default_catalog):
    for name in MODELS:
        report = default_catalog["runs"][name]["wvs_axioms"]
        assert report.all_passed, (
            name,
            [(i.id, i.status, [w.bindings for w in i.witnesses]) for i in report.items],
        )


def test_criterion_02_essential_point_values():
    from hypervec.catalog import catalog_models

    specs = dict(catalog_models())
    ess = essential_points(specs["zero_augmented"], 3, qv(1, 2))
    assert list(ess.elements) == [qv(3, 6)]
    for name, spec in specs.items():
        zess = essential_points(spec, 0, qv(1, 2))
        assert list(zess.elements) == [zero_vector(FieldTag.Q, 2)], name
    sess = essential_points(specs["sign"], 1, qv(1, 0))
    assert list(sess.elements) == [qv(-1, 0), qv(1, 0)]


def test_criterion_03_normality_separation(default_catalog):
    runs = default_catalog["runs"]
    assert runs["sign"]["weak_normal"].all_passed
    strong = runs["sign"]["strong_normal"]
    assert not strong.all_passed
    # replay the witness: choices x and -x sum to 0, outside E of (a1+a2) o x
    from hypervec.catalog import catalog_models

    spec = dict(catalog_models())["sign"]
    w = strong.item("scalar_condition").witnesses[0]
    a1 = parse_scalar(w.bindings["a1"], FieldTag.Q)
    a2 = parse_scalar(w.bindings["a2"], FieldTag.Q)
    x = parse_vector(w.bindings["x"], FieldTag.Q)
    e1 = parse_vector(w.bindings["choice1"], FieldTag.Q)
    e2 = parse_vector(w.bindings["choice2"], FieldTag.Q)
    assert e1 in essential_points(spec, a1, x).elements
    assert e2 in essential_points(spec, a2, x).elements
    assert e1 + e2 not in essential_points(spec, a1 + a2, x).elements
    assert e1 + e2 == zero_vector(FieldTag.Q, 2) and e1 == -e2
    for name in ("trivial", "zero_augmented", "geometric(1/2)"):
        assert runs[name]["weak_normal"].all_passed, name
        assert runs[name]["strong_normal"].all_passed, name
    agree = runs["sign"]["normal_equiv"].item("readings_agree")
    assert agree.status == "fail"
    assert "readings disagree" in agree.witnesses[0].relation


def test_criterion_04_hyperinner_axioms(default_catalog):
    runs = default_catalog["runs"]
    for name in ("trivial", "zero_augmented"):
        assert runs[name]["hip"].all_passed, name
        assert len(runs[name]["hip"].items) == 6
    ball = runs["geometric(2)"]["hip"].item("unit_ball_bound")
    assert ball.status == "fail"
    w = ball.witnesses[0].bindings
    x = parse_vector(w["x"], FieldTag.Q)
    u = parse_vector(w["u"], FieldTag.Q)
    assert u == x.scaled(F(2))
    scaling = runs["sign"]["hip"].item("essential_scaling")
    assert scaling.status == "fail"
    assert scaling.witnesses[0].bindings["a*(x,y)"] != "0"


def test_criterion_05_sup_based_axioms_and_attainment(default_catalog):
    runs = default_catalog["runs"]
    assert runs["trivial"]["real_ip"].all_passed
    item = runs["zero_augmented"]["real_ip"].item("sup_scaling")
    assert item.status == "fail"
    w = item.witnesses[0].bindings
    assert w["a"] == "1" and w["x"] == "(1, 0)" and w["y"] == "(-1, 0)"
    assert w["sup"].startswith("0") and w["a*(x,y)"] == "-1"
    # wherever the sup law held, an essential point attained the sup
    for name in MODELS:
        attained = runs[name]["real_ip"].item("sup_attained_at_essential")
        assert attained.status in ("pass", "vacuous"), (name, attained.status)
    assert runs["trivial"]["real_ip"].item("sup_attained_at_essential").status == "pass"


def test_criterion_06_identities_over_both_fields():
    cfg = SampleConfig()
    dot = DotProduct()
    for field in (FieldTag.Q, FieldTag.QI):
        spec = ModelSpec(field, 2, ZeroAugmented())
        report = check_lemma_34(spec, dot, cfg, check_hip_axioms(spec, dot, cfg))
        assert report.all_passed, (field, [(i.id, i.status) for i in report.items])
    # the complex conjugate-scaling case, directly: a = 1+i
    spec = ModelSpec(FieldTag.QI, 2, ZeroAugmented())
    a = G(1, 1)
    x = make_vector(FieldTag.QI, [1, G(0, 1)])
    y = make_vector(FieldTag.QI, [G(2, -1), 3])
    (e,) = essential_points(spec, a, y).elements
    assert pairing(dot, x, e) == conjugate(a) * pairing(dot, x, y)
    # item 4 is stated with abs2, never a square root
    assert abs2(a) == F(2)
    report = check_lemma_34(spec, dot, cfg, check_hip_axioms(spec, dot, cfg))
    assert report.item("scaled_ball_bound").status == "pass"


def test_criterion_07_theorem_consistency(default_catalog):
    runs = default_catalog["runs"]
    for name in MODELS:
        theorem = runs[name]["theorem_normal"]
        assert theorem.item("implication_consistent").status == "pass", name
        hip_passed = runs[name]["hip"].all_passed
        if hip_passed:
            assert theorem.item("essential_singletons").status == "pass", name
            assert theorem.item("strong_normality").status == "pass", name


def test_criterion_08_norm_laws_and_unbounded(default_catalog):
    runs = default_catalog["runs"]
    for name in ("trivial", "zero_augmented"):
        report = runs[name]["norm_props"]
        assert report.all_passed, name
        assert report.item("cauchy_schwarz").samples == 500
        assert report.item("triangle").samples == 500
        assert report.item("sup_scaling").status == "pass"
    geo = runs["geometric(2)"]["norm_props"]
    assert geo.item("sup_scaling").status == "unbounded"
    assert geo.item("norm_axioms").status == "unbounded"


def test_criterion_09_determinism_and_golden_reports(default_catalog, tmp_path):
    source = (
        'model "za" { field Q dim 2 product zero_augmented inner dot }\n'
        "check real_ip samples=120\ncheck hip samples=120\n"
    )
    path = tmp_path / "za.hvs"
    path.write_text(source, encoding="utf-8")
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        proc = subprocess.run(
            [sys.executable, "-m", "hypervec", "check", str(path), "--json", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
    assert out1.read_bytes() == out2.read_bytes()

    slugs = {
        "trivial": "trivial",
        "zero_augmented": "zero_augmented",
        "geometric(1/2)": "geometric_half",
        "geometric(2)": "geometric_two",
        "sign": "sign",
    }
    regen = bool(os.environ.get("REGEN_GOLDEN"))
    GOLDEN.mkdir(exist_ok=True)
    from hypervec.checker import SUITE_NAMES

    for name in MODELS:
        reports = [default_catalog["runs"][name][s] for s in SUITE_NAMES]
        doc = report_document(reports[0].model, SampleConfig().seed, reports)
        text = render_json(doc)
        golden_path = GOLDEN / f"{slugs[name]}.json"
        if regen:
            golden_path.write_text(text, encoding="utf-8")
        assert golden_path.read_text(encoding="utf-8") == text, name
        json.loads(text)  # stays well-formed


def test_criterion_10_parser_corpus_and_exit_codes(tmp_path):
    valid = sorted((HERE / "corpus" / "valid").glob("*.hvs"))
    invalid = sorted((HERE / "corpus" / "invalid").glob("*.hvs"))
    assert len(valid) >= 10 and len(invalid) >= 10
    for path in valid:
        mf = parse_model_file(path.read_text(encoding="utf-8"))
        assert parse_model_file(format_model_file(mf)) == mf, path.name
    for path in invalid:
        try:
            parse_model_file(path.read_text(encoding="utf-8"))
        except Exception as exc:  # noqa: BLE001
            assert exc.line >= 1 and exc.column >= 1, path.name
        else:
            raise AssertionError(f"{path.name} parsed but should not")
    # exit code contract end to end
    from hypervec.cli import main

    clean = tmp_path / "clean.hvs"
    clean.write_text(
        'model "t" { field Q dim 2 product trivial inner dot }\n'
        "check wvs_axioms samples=30\n"
    )
    failing = tmp_path / "failing.hvs"
    failing.write_text(
        'model "za" { field Q dim 2 product zero_augmented inner dot }\n'
        "check real_ip samples=60\n"
    )
    broken = tmp_path / "broken.hvs"
    broken.write_text('model "m" { field Q product trivial }\n')
    assert main(["check", str(clean)]) == 0
    assert main(["check", str(failing)]) == 1
    assert main(["check", str(broken)]) == 2


def test_catalog_verdicts_match_documented_table(default_catalog):
    for name in MODELS:
        got = {
            suite: roll_up(report.items)
            for suite, report in default_catalog["runs"][name].items()
        }
        assert got == EXPECTED_VERDICTS[name], name


def test_catalog_names_are_the_family_words():
    from hypervec.catalog import catalog_models

    models = catalog_models()
    names = [name for name, _ in models]
    assert names == [str(model.family) for _, model in models] == list(EXPECTED_VERDICTS)
    for name, model in models:
        text = f'model "m" {{ field Q dim 2 product {name} }}'
        assert parse_model_file(text).model == model


def test_runtime_budget(default_catalog):
    # the stated budget is 60s per suite; a whole model's ten suites
    # finishing inside one budget is comfortably stronger
    for name, elapsed in default_catalog["timings"].items():
        assert elapsed < 60, (name, elapsed)
