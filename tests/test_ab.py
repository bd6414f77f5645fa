"""The A/B harness (ab.py) at one round on a tiny call: against a copy of
the working tree, and against a copy whose output differs."""

import shutil

from ab import ROOT, main

CALL = "qpoly.families:gegenbauer_classical(3)"


def _copy(tmp_path, old="", new=""):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    module = tmp_path / "src" / "qpoly" / "families.py"
    module.write_text(module.read_text().replace(old, new))
    return str(tmp_path)


def test_ab_one_round_against_a_copy_of_the_working_tree(tmp_path, capsys):
    assert main([_copy(tmp_path), "--rounds", "1", CALL]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == CALL and " ratio " in out[2] and out[2].endswith("/1  outputs equal")


def test_ab_exits_1_when_outputs_differ(tmp_path, capsys):
    base = _copy(tmp_path, "coeffs[m] = coeffs.get(m, 0) + 1", "coeffs[m] = coeffs.get(m, 0) + 2")
    assert main([base, "--rounds", "1", CALL]) == 1
    assert capsys.readouterr().out.rstrip().endswith("outputs DIFFER")
