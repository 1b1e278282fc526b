"""Byte pins: `fuzzydom check` output on three fixed corpora never moves.

The digests were taken once, from the code that added this module. A change
that alters an optimum, a witness, a counterexample, a report key or its
order, or a printed line changes a digest. The instance counts beside each
digest say which claims moved when one does. wall_time_ms is dropped before
hashing, since timing is outside the determinism contract.
"""

import hashlib
import json

import pytest

from fuzzydom.cli import main

# (left params, right params, seeds, base seed) ->
#   (report digest, stdout digest, instances checked per claim)
CORPORA = {
    "4x4": (
        "vertices=4", "vertices=4", 400, 0,
        "704cec7b6b08fd7522ac1b14f43d14483d7e09924e181cf0055d464ac0a7e8e7",
        "6d4ff082637f14c2a39180a8c435552cf13fc4c8b55c5cabe71947e8e3c29205",
        {"T1": 400, "T2a": 11, "T2b": 26, "T3": 11, "T4a": 400, "T4b": 400,
         "T5": 0, "T6": 0, "T7": 0, "T8": 400, "T9": 11, "T10": 153,
         "T11": 26, "T12": 26}),
    "3-sparse-x4": (
        "vertices=3,edge-prob=0.75,effective-prob=0.25", "vertices=4",
        400, 500000,
        "991a7949bd4fc5a4706d717940b5e6afce66fa393f4451bbb0fb772fecb2bcd9",
        "3a5551283b062dcb5855a899d6eb0d91eed6debf93f3c9a67d5aaf63ff583999",
        {"T1": 400, "T2a": 8, "T2b": 18, "T3": 8, "T4a": 400, "T4b": 400,
         "T5": 0, "T6": 0, "T7": 0, "T8": 400, "T9": 8, "T10": 207,
         "T11": 18, "T12": 18}),
    "complete-x-grid1": (
        "vertices=4,edge-prob=1,effective-prob=1",
        "vertices=4,edge-prob=1,grid=1", 200, 77,
        "0d0a56cbc34f05a770d22b2960e48b26001cd62409e427e1e2741d78a321667d",
        "2df21301e2095a39d353f12f1deaa095a462b6bd4771d5336ceed9c5020baadc",
        {"T1": 200, "T2a": 200, "T2b": 200, "T3": 200, "T4a": 200, "T4b": 200,
         "T5": 0, "T6": 200, "T7": 200, "T8": 200, "T9": 200, "T10": 200,
         "T11": 200, "T12": 200}),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_check_report_and_stdout_bytes_are_pinned(corpus, tmp_path, capsys):
    left, right, seeds, base, report_sha, stdout_sha, counts = CORPORA[corpus]
    out = tmp_path / "report.json"
    assert main(["check", "--left-params", left, "--right-params", right,
                 "--seeds", str(seeds), "--base-seed", str(base),
                 "-o", str(out)]) == 0
    stdout = capsys.readouterr().out
    with open(out, encoding="utf-8") as fh:
        entries = json.load(fh)
    for entry in entries:
        del entry["wall_time_ms"]
    assert {e["theorem_id"]: e["instances_checked"] for e in entries} == counts
    assert _sha256(json.dumps(entries, indent=2)) == report_sha
    assert _sha256(stdout) == stdout_sha
