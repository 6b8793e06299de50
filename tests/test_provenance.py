"""Tests for run provenance (repro.provenance)."""

import re

from repro.provenance import code_fingerprint


class TestCodeFingerprint:
    def test_is_hex_sha256(self):
        fp = code_fingerprint()
        assert re.fullmatch(r"[0-9a-f]{64}", fp)

    def test_memoised(self):
        assert code_fingerprint() is code_fingerprint()
