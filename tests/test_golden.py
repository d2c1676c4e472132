"""Every job of the golden corpus writes the stored bytes, file for file.

A failure here means a CLI output moved.  If the move is intended, rerun
``PYTHONPATH=src python tests/golden_corpus.py``: it rewrites
``tests/golden/`` and lists every number that moved with its ulp distance.
"""

from golden_corpus import GOLDEN, JOBS, files, run_jobs


def test_golden_reports_are_byte_identical(tmp_path):
    codes = run_jobs(tmp_path)
    assert codes == {name: code for name, _, code in JOBS}
    got, want = files(tmp_path / "out"), files(GOLDEN)
    assert sorted(got) == sorted(want)
    assert [p for p in want if got[p] != want[p]] == []
