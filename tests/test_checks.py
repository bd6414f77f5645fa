"""The CI checks (checks.py): each is one tests.yml step by name, and run
reports a clean check, a mismatch and an exception.  No check runs here;
each helper behind one runs at a small size in its own test module."""

import re

import checks
from checks import CHECKS, ROOT, run


def test_every_check_is_one_workflow_step_and_no_step_is_inline_python():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert sorted(re.findall(r"tests/checks\.py (\w+)", workflow)) == sorted(CHECKS)
    assert " -c " not in workflow


def test_run_exits_1_on_a_mismatch_or_an_exception(monkeypatch, capsys):
    monkeypatch.setattr(checks, "CHECKS", {"clean": list, "mismatch": lambda: ["n = 3"], "raises": lambda: {}["key"]})
    assert [run(name) for name in ("clean", "mismatch", "raises")] == [0, 1, 1]
    out, err = capsys.readouterr()
    assert err.startswith("Traceback (most recent call last):") and err.endswith("KeyError: 'key'\n")
    assert [line.rsplit(", ", 1)[0] for line in out.splitlines()] == [
        "clean: 0 mismatches", "'n = 3'", "mismatch: 1 mismatches",
        "KeyError('key')", "raises: 1 mismatches"]
