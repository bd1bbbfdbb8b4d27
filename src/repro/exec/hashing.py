"""Content hashes that key the sweep result cache.

A cached payload is valid only while *everything that could change it*
is unchanged: the netlist, the configuration, and the code that computes
the result.  :func:`point_key` therefore folds three fingerprints into
one SHA-256 hex digest:

* the point's canonical ``.bench`` text (netlist bytes),
* the full :class:`~repro.config.MercedConfig` field set
  (:func:`config_fingerprint`),
* :func:`code_version` — a digest over every ``*.py`` source file of
  the installed :mod:`repro` package, so *any* code change invalidates
  the whole cache.  Conservative by design: a stale hit is a silent
  wrong answer, a spurious miss is just a recomputation.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional

from ..config import MercedConfig
from .task import SweepPoint

__all__ = [
    "code_version",
    "config_fingerprint",
    "point_key",
    "short_key",
]

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Digest of the :mod:`repro` package sources (cached per process).

    Hashes the relative path and contents of every ``*.py`` file under
    the package directory, in sorted order, so the digest is stable
    across machines and working directories but changes whenever any
    module changes.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(b"\x00")
            h.update(path.read_bytes())
            h.update(b"\x00")
        _CODE_VERSION = h.hexdigest()
    return _CODE_VERSION


def config_fingerprint(config: MercedConfig) -> Dict[str, object]:
    """Stable, JSON-ready view of every configuration field."""
    return config.canonical_dict()


def point_key(point: SweepPoint, code: str) -> str:
    """SHA-256 cache key of a sweep point.

    Pure CPU — no filesystem access — and therefore safe to call on an
    event loop: ``code`` is a :func:`code_version` digest the caller
    computed once (the service hashes the tree off-loop at start-up), or
    a test override that simulates a code change without editing sources.
    """
    material = {
        "kind": point.kind,
        "circuit": point.circuit,
        "bench": point.bench,
        "config": config_fingerprint(point.config),
        "params": [[k, v] for k, v in point.params],
        "code": code,
    }
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def short_key(key: str) -> str:
    """Truncated display form of a :func:`point_key` digest.

    Used in service logs and response payloads where the full 64-char
    hex digest is noise; 12 hex chars (48 bits) is far beyond any
    realistic in-flight collision risk.

    >>> short_key("ab" * 32)
    'abababababab'
    """
    return key[:12]
