"""Per-layer metrics from the spans of one traced CLI run.

A span's self time is its duration minus the time its child spans
cover.  Inclusive times (`<function>.s`) count only the outermost span of
a name, so a function that reaches itself again is not counted twice.
RSS growth is the rise of the process high-water mark across a span.
"""

from __future__ import annotations

from collections import defaultdict


def _layer(span: dict) -> str:
    return span["name"].split(".", 1)[0]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every aggregate the spans support, keyed by metric name.

    - `<layer>.self_s`; `<layer>.calls` / `<layer>.s` for calls entering
      the layer from another one;
    - `<layer>.<function>.{calls,s,self_s,rss_growth_mb}`;
    - `quantize.weyl_quantize.<kind>.{calls,s,first_s}` by symbol kind;
    - `torus.solve.<method>.{calls,s}` keyed by the returned
      `EigenResult.method`, with the solver counts next to them;
    - `trace.coverage`: share of `cli.main` spent inside library layers.
    """
    by_id = {s["id"]: s for s in spans}
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += dur[s["id"]]

    def ancestors(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield s

    m = defaultdict(float)
    for s in spans:
        sid, name, layer = s["id"], s["name"], _layer(s)
        self_s = dur[sid] - covered[sid]
        growth = s["rss1_mb"] - s["rss0_mb"]
        up = list(ancestors(s))
        m[f"{layer}.self_s"] += self_s
        m[f"{name}.calls"] += 1
        m[f"{name}.self_s"] += self_s
        if all(a["name"] != name for a in up):
            m[f"{name}.s"] += dur[sid]
            m[f"{name}.rss_growth_mb"] += growth
        if not up or _layer(up[0]) != layer:
            m[f"{layer}.calls"] += 1
            m[f"{layer}.s"] += dur[sid]
            if layer == "torus" and s.get("error") == "SolverError":
                m["torus.solver_errors"] += 1
        if "kind" in s:
            key = f"{name}.{s['kind']}"
            if not m[f"{key}.calls"]:
                m[f"{key}.first_s"] = dur[sid]
            m[f"{key}.calls"] += 1
            m[f"{key}.s"] += dur[sid]
        if "method" in s and all("method" not in a for a in up):
            key = f"torus.solve.{s['method']}"
            m[f"{key}.calls"] += 1
            m[f"{key}.s"] += dur[sid]
            m["torus.solve.calls"] += 1
            m["torus.solve.rss_growth_mb"] += growth
            m["torus.eigs_returned"] += s["eigs"]
            m["torus.residuals_checked"] += len(s["residuals"])
            m["torus.max_residual"] = max([m["torus.max_residual"], *s["residuals"]])
        m["torus.lattice_nnz"] += s.get("nnz", 0)
    if m["cli.main.s"]:
        m["trace.coverage"] = 1.0 - m["cli.self_s"] / m["cli.main.s"]
    return dict(m)
