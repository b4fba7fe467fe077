"""The comparison of tools/samebytes.py on two small corpus files."""

import importlib.util
import os
import shutil

_ROOT = os.path.join(os.path.dirname(__file__), "..")
_PATH = os.path.join(_ROOT, "tools", "samebytes.py")
_SPEC = importlib.util.spec_from_file_location("samebytes", _PATH)
samebytes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(samebytes)

VALID = os.path.join(_ROOT, "tests", "corpus", "valid")
CASES = [
    (os.path.join(VALID, "v01_minimal.hvs"), ("--seed", "42")),
    (os.path.join(VALID, "v08_compact.hvs"), ("--samples", "7")),
]


def tree_copy(dest, edit=None):
    """A tree holding a copy of the package, cli.py passed through edit."""
    src = os.path.join(dest, "src")
    shutil.copytree(
        os.path.join(_ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__")
    )
    if edit is not None:
        cli = os.path.join(src, "hypervec", "cli.py")
        with open(cli, encoding="utf-8") as fh:
            text = fh.read()
        with open(cli, "w", encoding="utf-8") as fh:
            fh.write(edit(text))
    return str(dest)


def test_a_copy_of_the_package_gives_the_same_bytes(tmp_path):
    assert samebytes.compare(_ROOT, tree_copy(tmp_path), CASES) == []


def test_a_changed_message_is_a_difference(tmp_path):
    def reword(text):
        assert "nothing to run" in text
        return text.replace("nothing to run", "nothing to check")

    changed = tree_copy(tmp_path, reword)
    assert samebytes.compare(_ROOT, changed, CASES) == [("v01_minimal.hvs --seed 42", ["stdout"])]


def test_the_other_subcommands_give_the_same_bytes(tmp_path):
    cases = samebytes.command_cases(_ROOT)
    assert {command for _, _, command in cases} == {"catalog", "essential", "sup"}
    assert samebytes.compare(_ROOT, tree_copy(tmp_path), cases) == []


def test_a_changed_catalog_note_is_a_difference(tmp_path):
    changed = tree_copy(tmp_path)
    catalog = os.path.join(changed, "src", "hypervec", "catalog.py")
    with open(catalog, encoding="utf-8") as fh:
        text = fh.read()
    assert "every suite passes" in text
    with open(catalog, "w", encoding="utf-8") as fh:
        fh.write(text.replace("every suite passes", "all suites pass"))
    cases = [(None, (), "catalog")]
    assert samebytes.compare(_ROOT, changed, cases) == [("catalog", ["stdout"])]


def test_a_path_without_the_package_is_a_usage_error(tmp_path, capsys):
    for argv in ([str(tmp_path), _ROOT], [_ROOT, str(tmp_path)], [_ROOT], []):
        assert samebytes.main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", (samebytes.USAGE + "\n") * 4)
