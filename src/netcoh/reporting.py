"""Canonical JSON emission: deterministic, 12 significant digits.

``hashlib`` is imported by ``digest``, its one user, so a report that is
only printed does not load it.
"""

from __future__ import annotations

import json
from typing import Any


def sig(x: float) -> float:
    """Round to 12 significant digits (stable across platforms)."""
    return float(f"{float(x):.12g}")


def complex_json(z: complex) -> dict:
    return {"re": sig(z.real), "im": sig(z.imag)}


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def digest(obj: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form."""
    import hashlib

    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()
