"""Every call of tests/golden.py against the digest of its exit code, stdout
and stderr pinned in tests/golden.json: verify, table and oracle-diff in
every format, range flags, error and edge calls.  The digests are only
read; tests/golden.py regenerates them."""

import json

import golden
from qcomb import structures


def test_every_output_matches_its_golden_digest(monkeypatch):
    monkeypatch.delenv(structures.CELL_CAP_ENV, raising=False)
    want = json.loads(golden.GOLDEN_PATH.read_text())
    got = golden.digests()
    assert {group: list(keys) for group, keys in got.items()} == {
        group: list(keys) for group, keys in want.items()}
    changed = [key for group, keys in got.items()
               for key, value in keys.items() if want[group][key] != value]
    assert changed == []
