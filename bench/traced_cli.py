"""Run the magweyl CLI with the public functions of its layers traced.

usage: python traced_cli.py SPANS.json RUN_ID CLI-ARGS...

Every public module-level function (`inspect.isfunction`, no leading
underscore) of the layer modules is wrapped, and the wrapper is rebound
wherever a magweyl module holds the original (`from .torus import
solve_all` makes `magweyl.cli` hold its own reference).  The wrapping is
generic, so a renamed or merged function stays traced.  `symbols` and
`forms` are left out: their arithmetic runs millions of times and shows
inside the star, quantize and models spans.

Spans stay in memory and are written to SPANS.json when the run ends,
with the exit code, the process CPU time and the BLAS thread count.
"""

import functools
import importlib
import inspect
import json
import resource
import sys
import time

from probe import blas_threads

LAYERS = ("cli", "star", "quantize", "models", "torus", "verify", "reports")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _facts(name: str, fn, args, kwargs, result) -> dict:
    """Counts taken at the layer boundary from a call's arguments and result."""
    facts = {}
    if name == "quantize.weyl_quantize":
        symbol, spec = list(inspect.signature(fn).bind(*args, **kwargs).arguments.values())[:2]
        facts["kind"] = ("poly" if type(symbol).__name__ == "PolySymbol"
                         else f"grid_d{spec.d}")
    if hasattr(result, "method") and hasattr(result, "residual_norms"):  # an EigenResult
        facts["method"] = result.method
        facts["eigs"] = len(result.raw)
        facts["residuals"] = [float(r) for r in result.residual_norms]
    nnz = getattr(getattr(result, "matrix", None), "nnz", None)
    if nnz is not None:
        facts["nnz"] = int(nnz)
    return facts


class Tracer:
    """Nested spans of one process: name, start, end, parent, run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name, "run": self.run_id,
                    "parent": stack[-1] if stack else None,
                    "rss0_mb": _maxrss_mb(), "start": time.perf_counter()}
            spans.append(span)
            stack.append(span["id"])
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                span["rss1_mb"] = _maxrss_mb()
                stack.pop()
                span.update(_facts(name, fn, args, kwargs, result))
        return traced

    def instrument(self):
        """Wrap the layers' public functions and rebind every reference."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"magweyl.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self.wrap(layer, obj)
        for modname, module in list(sys.modules.items()):
            if modname == "magweyl" or modname.startswith("magweyl."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(module, attr, wrappers[obj])


def main(argv: list[str]) -> int:
    spans_path, run_id, *cli_args = argv
    tracer = Tracer(run_id)
    tracer.instrument()
    cli = importlib.import_module("magweyl.cli")
    code = cli.main(cli_args)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    with open(spans_path, "w") as fh:
        json.dump({"run": run_id, "exit_code": code,
                   "cpu_s": usage.ru_utime + usage.ru_stime,
                   "blas_threads": blas_threads(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
