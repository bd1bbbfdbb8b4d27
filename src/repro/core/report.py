"""Plain-text table rendering in the shape of the paper's tables."""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from .result import PartitionRow

__all__ = [
    "format_table",
    "render_table10_11",
    "render_sweep_lk",
    "render_sweep_beta",
    "render_seed_stability",
]


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Monospace table with right-aligned columns at least 6 wide."""
    rows = [[_fmt(v) for v in row] for row in rows]
    widths = [max(6, len(h)) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells, pad=" "):
        return " | ".join(c.rjust(w, pad) for c, w in zip(cells, widths))
    out = [line(headers), line(["-" * w for w in widths], pad="-")]
    out.extend(line(r) for r in rows)
    return "\n".join(out)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.1f}" if abs(v) >= 0.05 or v == 0 else f"{v:.3f}"
    return str(v)


def render_table10_11(rows: Iterable[PartitionRow], lk: int) -> str:
    """Partition results table (paper Tables 10/11)."""
    headers = [
        "Circuit",
        "DFFs",
        "DFFs on SCC",
        "cuts on SCC",
        "nets cut",
        "CPU (s)",
    ]
    body = [r.as_tuple() for r in rows]
    return f"Partition results for l_k = {lk}\n" + format_table(headers, body)


def render_sweep_lk(pairs: Iterable[Tuple[str, object]]) -> str:
    """The ``l_k`` frontier across circuits (``merced sweep`` output).

    ``pairs`` are ``(circuit, row)`` where ``row`` is an
    :class:`~repro.core.sweep.LkSweepRow` or a degraded
    :class:`~repro.core.sweep.SweepErrorRow`; error rows render with
    dashes and their error type in the status column.
    """
    headers = [
        "Circuit",
        "l_k",
        "parts",
        "nets cut",
        "cuts on SCC",
        "cost DFF",
        "w/ ret (%)",
        "w/o ret (%)",
        "status",
    ]
    body = []
    for circuit, r in pairs:
        if r.ok:
            body.append(
                (
                    circuit,
                    r.lk,
                    r.n_partitions,
                    r.n_cut_nets,
                    r.n_cut_nets_on_scc,
                    r.cost_dff,
                    r.pct_with_retiming,
                    r.pct_without_retiming,
                    "ok",
                )
            )
        else:
            body.append(
                (circuit, r.lk, "-", "-", "-", "-", "-", "-", r.error_type)
            )
    return format_table(headers, body)


def render_sweep_beta(pairs: Iterable[Tuple[str, object]]) -> str:
    """The β budget trade-off across circuits (``merced sweep --beta``)."""
    headers = [
        "Circuit",
        "beta",
        "nets cut",
        "cuts on SCC",
        "max iota",
        "oversized",
        "status",
    ]
    body = []
    for circuit, r in pairs:
        if r.ok:
            body.append(
                (
                    circuit,
                    r.beta,
                    r.n_cut_nets,
                    r.n_cut_nets_on_scc,
                    r.max_input_count,
                    r.n_oversized,
                    "ok",
                )
            )
        else:
            body.append((circuit, r.beta, "-", "-", "-", "-", r.error_type))
    return format_table(headers, body)


def render_seed_stability(pairs: Iterable[Tuple[str, object]]) -> str:
    """Seed-spread summary across circuits (``merced sweep --seeds``)."""
    headers = [
        "Circuit",
        "seeds",
        "cut mean",
        "cut stdev",
        "spread",
        "failed",
    ]
    body = []
    for circuit, st in pairs:
        if st.cut_counts:
            body.append(
                (
                    circuit,
                    len(st.seeds),
                    st.cut_mean,
                    st.cut_stdev,
                    round(st.cut_spread, 3),
                    len(st.failures),
                )
            )
        else:
            body.append((circuit, 0, "-", "-", "-", len(st.failures)))
    return format_table(headers, body)
