"""The mutant catalogue (mutants.py) still applies: each snippet occurs once
in its module and each named test exists.  Running the mutants is a CI
step: python tests/mutants.py."""

from mutants import MUTANTS, ROOT, Mutant, main, run, stale_reason


def test_every_mutant_applies_to_the_source():
    assert [(m.name, stale_reason(m)) for m in MUTANTS if stale_reason(m)] == []
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    assert all(m.tests and m.snippet != m.replacement for m in MUTANTS)


def test_a_missing_snippet_or_test_is_reported_stale(capsys):
    entry = MUTANTS[0]
    gone = entry._replace(name="gone", snippet="no such line in the module")
    renamed = entry._replace(name="renamed", tests=("tests/test_connection.py::test_no_such_test",))
    assert stale_reason(gone) == f"snippet occurs 0 times in {entry.module}"
    assert stale_reason(renamed) == "no test tests/test_connection.py::test_no_such_test"
    assert run(gone) == ("stale", f"snippet occurs 0 times in {entry.module}")  # before any copy or subprocess
    count = (ROOT / "src" / "qpoly" / "connection.py").read_text().count("def ")
    assert count > 1 and stale_reason(Mutant("many", "connection.py", "def ", "", entry.tests)) == (
        f"snippet occurs {count} times in connection.py")
    assert main([gone, renamed]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("stale    gone (") and out[0].endswith(f"snippet occurs 0 times in {entry.module}")
    assert out[-1].startswith("0 of 2 killed, 0 survived, 2 stale, in ")
