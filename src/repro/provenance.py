"""Run provenance: which code produced a result.

Cached trial results are only reusable when the code that wrote them
still matches the code reading them.  :func:`code_fingerprint` — a
sha256 over every ``repro`` source file, stable across machines and
independent of git (it also covers dirty working trees, which a commit
sha does not) — is the staleness stamp
:class:`repro.experiments.executor.ResultCache` writes and checks.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Optional

__all__ = ["code_fingerprint"]

_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """sha256 over every ``repro`` package source file (memoised).

    Covers relative path and content of each ``*.py`` under the package,
    in sorted order, so any code edit — committed or not — changes the
    digest.  This is what lets cached trial results detect that they
    predate the current code.
    """
    global _fingerprint
    if _fingerprint is None:
        pkg = Path(__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(pkg.rglob("*.py")):
            digest.update(path.relative_to(pkg).as_posix().encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _fingerprint = digest.hexdigest()
    return _fingerprint
