"""Deterministic report files: JSON, CSV, and hand-rolled SVG plots.

Identical inputs must produce byte-identical files, so everything is
emitted through canonical JSON (sorted keys), fixed CSV column orders,
and an SVG writer with no timestamps, random ids, or library version
strings in the output.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, is_dataclass
from pathlib import Path

import numpy as np

SCHEMA = "magweyl/report-v1"


def _plain(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return _plain(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):  # real arrays convert to plain numbers directly
        return obj.tolist() if obj.dtype.kind in "biuf" else _plain(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_plain(obj), sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def write_json(path, obj):
    Path(path).write_text(canonical_json(obj), encoding="ascii")


def write_csv(path, rows: list[dict], columns: list[str]):
    """Flat table; missing cells are empty, extras are dropped."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt_cell(row.get(k, "")) for k in columns})
    Path(path).write_text(buf.getvalue(), encoding="ascii")


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    if isinstance(v, (np.floating, np.integer)):
        return _fmt_cell(v.item())
    return str(v)


# ---------------------------------------------------------------------------
# minimal SVG writer

_W, _H = 640, 480
_MARGIN = 56
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    raw = np.linspace(lo, hi, n)
    return [float(t) for t in raw]


def svg_plot(series: list[dict], title: str, xlabel: str, ylabel: str,
             reference_y: float | None = None) -> str:
    """Line plot with markers; each series is {label, x, y}.

    Output is a deterministic function of the inputs.
    """
    xs = np.concatenate([np.asarray(s["x"], dtype=float) for s in series]) if series else np.array([0.0, 1.0])
    ys = np.concatenate([np.asarray(s["y"], dtype=float) for s in series]) if series else np.array([0.0, 1.0])
    if reference_y is not None:
        ys = np.append(ys, reference_y)
    x0, x1 = float(np.min(xs)), float(np.max(xs))
    y0, y1 = float(np.min(ys)), float(np.max(ys))
    if x1 <= x0:
        x1 = x0 + 1.0
    pad = 0.05 * (y1 - y0) or 0.5
    y0, y1 = y0 - pad, y1 + pad

    def px(x):
        return _MARGIN + (x - x0) / (x1 - x0) * (_W - 2 * _MARGIN)

    def py(y):
        return _H - _MARGIN - (y - y0) / (y1 - y0) * (_H - 2 * _MARGIN)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
           f'viewBox="0 0 {_W} {_H}">',
           f'<rect width="{_W}" height="{_H}" fill="white"/>',
           f'<text x="{_W // 2}" y="24" text-anchor="middle" font-size="16" '
           f'font-family="sans-serif">{title}</text>']
    # axes
    out.append(f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" '
               f'y2="{_H - _MARGIN}" stroke="black"/>')
    out.append(f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
               f'y2="{_H - _MARGIN}" stroke="black"/>')
    for t in _ticks(x0, x1):
        out.append(f'<text x="{_fmt(px(t))}" y="{_H - _MARGIN + 18}" text-anchor="middle" '
                   f'font-size="11" font-family="sans-serif">{_fmt(t)}</text>')
    for t in _ticks(y0, y1):
        out.append(f'<text x="{_MARGIN - 6}" y="{_fmt(py(t) + 4)}" text-anchor="end" '
                   f'font-size="11" font-family="sans-serif">{_fmt(t)}</text>')
    out.append(f'<text x="{_W // 2}" y="{_H - 12}" text-anchor="middle" font-size="13" '
               f'font-family="sans-serif">{xlabel}</text>')
    out.append(f'<text x="16" y="{_H // 2}" text-anchor="middle" font-size="13" '
               f'font-family="sans-serif" transform="rotate(-90 16 {_H // 2})">{ylabel}</text>')
    if reference_y is not None:
        out.append(f'<line x1="{_MARGIN}" y1="{_fmt(py(reference_y))}" x2="{_W - _MARGIN}" '
                   f'y2="{_fmt(py(reference_y))}" stroke="#888888" stroke-dasharray="6 4"/>')
    for idx, s in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        X = np.asarray(s["x"], dtype=float)
        Y = np.asarray(s["y"], dtype=float)
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(X, Y))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        for x, y in zip(X, Y):
            out.append(f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="2.5" '
                       f'fill="{color}"/>')
        out.append(f'<text x="{_W - _MARGIN - 4}" y="{_MARGIN + 16 * (idx + 1)}" '
                   f'text-anchor="end" font-size="12" font-family="sans-serif" '
                   f'fill="{color}">{s.get("label", f"series {idx}")}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(path, svg_text: str):
    Path(path).write_text(svg_text, encoding="ascii")


def emit_report(records: dict, out_dir, rows: list[dict], columns: list[str],
                svg: str | None = None):
    """Write report.json and report.csv, and report.svg if `svg` is given,
    under out_dir.

    The JSON carries full fidelity; the CSV is the flat row table; the
    SVG is whatever plot the caller rendered.  Deterministic byte
    output for identical inputs.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "report.json", {"schema": SCHEMA, **records})
    write_csv(out_dir / "report.csv", rows, columns)
    if svg is not None:
        write_svg(out_dir / "report.svg", svg)
