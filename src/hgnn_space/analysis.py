"""Post-hoc analysis of trial records: per-dimension rank aggregation
(bar / violin data), empirical distribution functions and report files.

Higher score is better throughout. Within one setup (configs identical
except in the analyzed dimension, same split) choices are ranked by
validation score, rank 1 best; failed trials rank last; ties share the
mean of their positions. The EDF uses a strict `<`, so F sits at 0 on the
minimum score and is left-continuous.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .hgraph import GraphError


@dataclass
class RankingTable:
    dimension: str
    choices: tuple
    avg_rank: dict    # choice -> mean rank over setups
    ranks: dict       # choice -> list of per-setup ranks (violin data)
    n_setups: int


@dataclass
class EDFCurve:
    scores: np.ndarray  # sorted ascending

    @property
    def n(self):
        return int(self.scores.size)

    def __call__(self, s: float) -> float:
        return float(np.searchsorted(self.scores, s, side="left")) / self.n

    def breakpoints(self):
        """(score, fraction <= score) rows at the distinct scores."""
        uniq, counts = np.unique(self.scores, return_counts=True)
        cum = np.cumsum(counts) / self.n
        return list(zip(uniq.tolist(), cum.tolist()))


def edf(scores) -> EDFCurve:
    scores = np.asarray(list(scores), dtype=np.float64)
    if scores.size == 0:
        raise GraphError("EDF needs at least one score")
    return EDFCurve(np.sort(scores))


def midranks(values) -> np.ndarray:
    """Ascending 1-based ranks of a float vector; tied values share the
    midpoint of their positions, and NaNs (never equal) rank singly, last."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.append(True, ordered[1:] != ordered[:-1]))
    ends = np.append(starts[1:], values.size) - 1
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def _average_ranks(scores):
    """Descending ranks with mean-of-tied-positions; None ranks last."""
    keys = np.array([-np.inf if s is None else s for s in scores], dtype=np.float64)
    return midranks(-keys)


def rank_choices(records, dimension: str) -> RankingTable:
    """Aggregate per-setup rankings of one dimension's choices.

    A setup is the set of records whose configs agree everywhere except in
    `dimension` and that share a split; only setups covering every choice
    exactly once are ranked.
    """
    observed = []
    for r in records:
        v = r["config"].get(dimension, "__missing__")
        if v == "__missing__":
            raise GraphError(f"records carry no dimension '{dimension}'")
        if v not in observed:
            observed.append(v)
    choices = _domain_order(dimension, observed)
    if len(choices) < 2:
        raise GraphError(f"records carry a single choice for dimension "
                         f"'{dimension}'; nothing to rank")

    groups = {}
    for r in records:
        cfg = r["config"]
        key_items = tuple(sorted((k, str(v)) for k, v in cfg.items()
                                 if k != dimension))
        key = (key_items, r["split_id"])
        groups.setdefault(key, {})[cfg[dimension]] = r

    ranks = {c: [] for c in choices}
    complete = 0
    for key in sorted(groups, key=repr):
        group = groups[key]
        if set(group) != set(choices) or len(group) != len(choices):
            continue
        complete += 1
        scores = [group[c]["best_score"] if group[c]["status"] == "ok" else None
                  for c in choices]
        rs = _average_ranks(scores)
        for c, rank in zip(choices, rs):
            ranks[c].append(float(rank))
    if complete == 0:
        raise GraphError(f"no complete setup found for dimension '{dimension}'")
    avg = {c: float(np.mean(ranks[c])) for c in choices}
    return RankingTable(dimension, choices, avg, ranks, complete)


def _domain_order(dimension, observed):
    """Order choices by the full-space domain when the dimension is known."""
    from .designspace import full_space

    try:
        domain = list(full_space().dim(dimension).choices)
    except KeyError:
        return tuple(sorted(observed, key=str))
    def key(v):
        for i, c in enumerate(domain):
            if c == v or str(c) == str(v):
                return (0, i)
        return (1, str(v))
    return tuple(sorted(observed, key=key))


# ---------------------------------------------------------------------------
# report emission: CSV plus standalone SVG with deterministic bytes
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return np.format_float_positional(float(x), precision=6, trim="-")


def ranking_csv(table: RankingTable) -> str:
    lines = ["choice,avg_rank,n_setups,rank_counts"]
    for c in table.choices:
        hist = {}
        for r in table.ranks[c]:
            hist[r] = hist.get(r, 0) + 1
        packed = ";".join(f"{_fmt(r)}:{hist[r]}" for r in sorted(hist))
        lines.append(f"{c},{_fmt(table.avg_rank[c])},{table.n_setups},{packed}")
    return "\n".join(lines) + "\n"


def edf_csv(curve: EDFCurve) -> str:
    lines = ["score,fraction_at_or_below"]
    for s, f in curve.breakpoints():
        lines.append(f"{_fmt(s)},{_fmt(f)}")
    return "\n".join(lines) + "\n"


def _svg_document(width, height, body) -> str:
    return ("<svg xmlns=\"http://www.w3.org/2000/svg\" "
            f"width=\"{width}\" height=\"{height}\" "
            f"viewBox=\"0 0 {width} {height}\">\n"
            "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n"
            + body + "</svg>\n")


def ranking_svg(table: RankingTable) -> str:
    """Bar chart of average ranks, one bar per choice."""
    w, h, pad = 480, 280, 40
    n = len(table.choices)
    max_rank = max(float(len(table.choices)), 1.0)
    bar_w = (w - 2 * pad) / max(n, 1)
    parts = [f"<text x=\"{pad}\" y=\"20\" font-size=\"13\">"
             f"average rank by {table.dimension} (lower is better)</text>\n"]
    for i, c in enumerate(table.choices):
        val = table.avg_rank[c]
        bh = (h - 2 * pad) * val / max_rank
        x = pad + i * bar_w
        y = h - pad - bh
        parts.append(f"<rect x=\"{_fmt(x + 4)}\" y=\"{_fmt(y)}\" "
                     f"width=\"{_fmt(bar_w - 8)}\" height=\"{_fmt(bh)}\" "
                     "fill=\"steelblue\"/>\n")
        parts.append(f"<text x=\"{_fmt(x + bar_w / 2)}\" y=\"{h - pad + 14}\" "
                     "font-size=\"11\" text-anchor=\"middle\">"
                     f"{c}</text>\n")
        parts.append(f"<text x=\"{_fmt(x + bar_w / 2)}\" y=\"{_fmt(y - 4)}\" "
                     "font-size=\"10\" text-anchor=\"middle\">"
                     f"{_fmt(val)}</text>\n")
    return _svg_document(w, h, "".join(parts))


def edf_svg(curves: dict) -> str:
    """Step curves of one or more named EDFs on a shared axis."""
    w, h, pad = 480, 280, 40
    lo = min(float(c.scores[0]) for c in curves.values())
    hi = max(float(c.scores[-1]) for c in curves.values())
    span = (hi - lo) or 1.0
    lo -= 0.05 * span
    hi += 0.05 * span
    colors = ("steelblue", "darkorange", "seagreen", "crimson", "slategray")
    parts = [f"<text x=\"{pad}\" y=\"20\" font-size=\"13\">"
             "empirical distribution of scores</text>\n"]

    def sx(s):
        return pad + (w - 2 * pad) * (s - lo) / (hi - lo)

    def sy(f):
        return h - pad - (h - 2 * pad) * f

    for k, (name, curve) in enumerate(sorted(curves.items())):
        pts = [f"{_fmt(sx(lo))},{_fmt(sy(0.0))}"]
        frac_below = 0.0
        for s, frac in curve.breakpoints():
            pts.append(f"{_fmt(sx(s))},{_fmt(sy(frac_below))}")
            pts.append(f"{_fmt(sx(s))},{_fmt(sy(frac))}")
            frac_below = frac
        pts.append(f"{_fmt(sx(hi))},{_fmt(sy(1.0))}")
        color = colors[k % len(colors)]
        parts.append(f"<polyline fill=\"none\" stroke=\"{color}\" "
                     f"stroke-width=\"1.5\" points=\"{' '.join(pts)}\"/>\n")
        parts.append(f"<text x=\"{pad + 4}\" y=\"{40 + 14 * k}\" font-size=\"11\" "
                     f"fill=\"{color}\">{name}</text>\n")
    parts.append(f"<line x1=\"{pad}\" y1=\"{h - pad}\" x2=\"{w - pad}\" "
                 f"y2=\"{h - pad}\" stroke=\"black\"/>\n")
    parts.append(f"<line x1=\"{pad}\" y1=\"{pad}\" x2=\"{pad}\" "
                 f"y2=\"{h - pad}\" stroke=\"black\"/>\n")
    return _svg_document(w, h, "".join(parts))


def emit_report(tables, curves, out_dir) -> list:
    """Write ranking CSV/SVG per dimension and EDF CSV/SVG; returns paths."""
    if not tables and not curves:
        raise GraphError("emit_report needs at least one table or curve")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for table in tables:
        base = os.path.join(out_dir, f"rank_{table.dimension}")
        for suffix, text in ((".csv", ranking_csv(table)),
                             (".svg", ranking_svg(table))):
            with open(base + suffix, "w") as fh:
                fh.write(text)
            paths.append(base + suffix)
    if curves:
        for name, curve in sorted(curves.items()):
            path = os.path.join(out_dir, f"edf_{name}.csv")
            with open(path, "w") as fh:
                fh.write(edf_csv(curve))
            paths.append(path)
        path = os.path.join(out_dir, "edf.svg")
        with open(path, "w") as fh:
            fh.write(edf_svg(curves))
        paths.append(path)
    return paths
