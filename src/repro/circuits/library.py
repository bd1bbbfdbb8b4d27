"""Circuit registry: exact s27 plus the synthetic Table 9 stand-ins.

``load_circuit("s27")`` returns the embedded ISCAS89 original;
``load_circuit("s5378")`` (etc.) returns the deterministic synthetic
equivalent built by :mod:`repro.circuits.generator`.  Real ``.bench``
files can be loaded through :func:`repro.netlist.parse_bench_file` and
used everywhere a generated circuit is.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List

from ..netlist.netlist import Netlist
from .generator import generate_circuit
from .profiles import TABLE9_PROFILES, profile_by_name
from .s27 import s27_netlist

__all__ = ["available_circuits", "load_circuit"]


def available_circuits() -> List[str]:
    """Names accepted by :func:`load_circuit` (s27 + Table 9 profiles)."""
    return ["s27"] + list(TABLE9_PROFILES)


@lru_cache(maxsize=None)
def _cached(name: str) -> Netlist:
    if name == "s27":
        return s27_netlist()
    return generate_circuit(profile_by_name(name))


def load_circuit(name: str) -> Netlist:
    """Load a benchmark circuit by name.

    Results are cached per name; a defensive copy is returned so callers
    may mutate freely.
    """
    return _cached(name).copy()
