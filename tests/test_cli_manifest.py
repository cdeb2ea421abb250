"""The CLI fingerprint: every case of ``cli_manifest.json`` still gives its
recorded exit code, stdout, stderr and ``--out`` files.

A failure lists the cases whose record changed.  When the change of
behaviour is intended, ``make_cli_manifest.py`` rewrites the manifest, and
its diff lists the same cases.
"""

import json

from make_cli_manifest import MANIFEST, build_corpus, run_case


def test_cli_matches_manifest(tmp_path, monkeypatch):
    manifest = json.loads(MANIFEST.read_text())
    monkeypatch.chdir(tmp_path)
    assert build_corpus(tmp_path) == manifest["inputs"]
    changed = [
        (want["argv"], got)
        for want in manifest["cases"]
        if (got := run_case(want)) != want
    ]
    assert changed == []
