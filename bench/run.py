#!/usr/bin/env python3
"""magweyl benchmark: cold CLI verification runs, end to end and per layer.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
the checkout's `src/`.  Closed loop, one client: each measured run is one
cold `magweyl` CLI process (empty `--out`, so the spectra cache misses,
`--jobs 1`, the seed passed as `--seed`), started after the previous one
exited, at least twice, and then while the next run would end within half
a run of `--seconds`, so a run of the benchmark lasts `--seconds` on average.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: median wall
time and peak RSS of the cold runs, and the median set-up time of the
probe processes, two run before each cold run.  --trace 1 prints its
per-layer metrics from pairs of one untraced and one traced cold run (plus
one cache-hit rerun).  Every CLI run passes
through the correctness gate; the last line of stdout is the JSON result.
Exits 2 without a result when the checkout holds no `src/magweyl`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import layers
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
JOBS = 1
MIN_RUNS = 2
SETUP_PROBES = 2  # per cold run, spread over the run's window
CHILD_TIMEOUT_S = 120.0
BUDGET_S = 140.0  # no new run starts when it would end past this
CLI_MAIN = "import sys; from magweyl.cli import main; sys.exit(main())"


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a verdict on the program)."""


@dataclass
class Child:
    code: int
    wall_s: float
    maxrss_mb: float
    cpu_s: float


def spawn(argv: list[str], env: dict, cwd: Path, log: Path) -> Child:
    """Run one child to completion; wall time from spawn to exit, and its rusage."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 usage.ru_utime + usage.ru_stime)


class Bench:
    def __init__(self, workload, seed: int, seconds: float, work: Path):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.config = work / "config.json"
        self.config.write_text(json.dumps(workload.override))
        threads = max(1, len(os.sched_getaffinity(0)) // JOBS)  # BLAS threads x jobs <= nproc
        self.env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=str(threads))
        self.items: list[tuple[str, bool]] = []
        self.n_runs = 0

    def cli_args(self, out: Path) -> list[str]:
        return ["--config", str(self.config), "--out", str(out), "--jobs", str(JOBS),
                "--seed", str(self.seed), self.wl.command]

    def gate(self, label: str, items: list[tuple[str, bool]]):
        self.items += [(f"{label}:{name}", ok) for name, ok in items]

    def probe(self) -> tuple[float, dict]:
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, str(BENCH / "probe.py"), str(self.config)],
                              env=self.env, cwd=self.work, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{done.stderr}")
        record = json.loads(done.stdout.splitlines()[-1])
        if not Path(record["module"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"magweyl imported from {record['module']}, not from {SRC}")
        return record["ready"] - t0, record

    def setup(self) -> dict:
        _, record = self.probe()  # untimed: fills the page cache and bytecode
        if record["blas_threads"] * JOBS > record["nproc"]:
            raise BenchError(f"{record['blas_threads']} BLAS threads x {JOBS} jobs "
                             f"exceed {record['nproc']} CPUs")
        env = {k: record[k] for k in ("nproc", "python", "numpy", "scipy", "blas",
                                      "blas_threads")}
        return {**env, "jobs": JOBS, "seed": self.seed, "workload": self.wl.name}

    def cold_run(self, label: str) -> tuple[Child, Path]:
        out = self.work / label
        child = spawn([sys.executable, "-c", CLI_MAIN, *self.cli_args(out)],
                      self.env, self.work, self.work / f"{label}.log")
        self.gate(label, gate.check_run(self.wl, child.code, out))
        self.n_runs += 1
        return child, out

    def traced_run(self, label: str, out: Path) -> tuple[Child, dict]:
        spans = self.work / f"{label}.spans.json"
        child = spawn([sys.executable, str(BENCH / "traced_cli.py"), str(spans), label,
                       *self.cli_args(out)], self.env, self.work, self.work / f"{label}.log")
        self.gate(label, gate.check_run(self.wl, child.code, out))
        self.n_runs += 1
        trace = json.loads(spans.read_text()) if spans.exists() else {"spans": []}
        return child, trace

    def rounds(self, minimum: int):
        """Yield 0, 1, ... for `minimum` rounds, then while another round would
        end within half a round of --seconds, so a run lasts --seconds on average."""
        start, took = time.monotonic(), []
        while True:
            t0 = time.monotonic()
            yield len(took)
            took.append(time.monotonic() - t0)
            elapsed, step = time.monotonic() - start, statistics.median(took)
            if elapsed + step > BUDGET_S or (len(took) >= minimum
                                             and elapsed + step / 2 > self.seconds):
                return

    def end_to_end(self) -> dict:
        walls, rss, setups, first = [], [], [], None
        for i in self.rounds(MIN_RUNS):
            label = f"cold{i}"
            setups += [self.probe()[0] for _ in range(SETUP_PROBES)]
            child, out = self.cold_run(label)
            digest = gate.report_digest(out)
            if i:
                self.gate(label, [gate.same_reports(first, digest)])
            else:
                first = digest
            walls.append(child.wall_s)
            rss.append(child.maxrss_mb)
            shutil.rmtree(out, ignore_errors=True)
        return {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}

    def per_layer(self) -> dict:
        samples: dict[str, list[float]] = {}
        for p in self.rounds(1):
            plain, plain_out = self.cold_run(f"plain{p}")
            traced_out = self.work / f"traced{p}"
            traced, trace = self.traced_run(f"traced{p}", traced_out)
            digest = gate.report_digest(traced_out)
            self.gate(f"traced{p}", [gate.same_reports(gate.report_digest(plain_out), digest)])
            m = layers.layer_metrics(trace["spans"])
            rdir = gate.report_dir(traced_out)
            sizes = {f.name: f.stat().st_size for f in rdir.iterdir()} if rdir else {}
            m["reports.bytes"] = sum(sizes.get(name, 0) for name in gate.REPORT_FILES)
            m["cli.spectra_cache.bytes"] = sizes.get("spectra.json", 0)
            _, rerun = self.traced_run(f"rerun{p}", traced_out)
            self.gate(f"rerun{p}", [gate.same_reports(digest, gate.report_digest(traced_out))])
            rm = layers.layer_metrics(rerun["spans"])
            m["cli.rerun.s"] = rm.get("cli.main.s", 0.0)
            m["cli.rerun.solve_calls"] = rm.get("torus.solve.calls", 0.0)
            self.gate(f"rerun{p}", [("no_solves_on_cache_hit",
                                     m["cli.rerun.solve_calls"] == 0)])
            m["proc.cpu_s"] = plain.cpu_s
            m["proc.blas_threads"] = trace.get("blas_threads", 0)
            m["trace.overhead_s"] = traced.wall_s - plain.wall_s
            for key, val in m.items():
                samples.setdefault(key, []).append(val)
            for out in (plain_out, traced_out):
                shutil.rmtree(out, ignore_errors=True)
        return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "magweyl" / "cli.py").is_file():
        print(f"bench: no magweyl sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    scratch = ROOT / ".bench_build" / "bench"
    scratch.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, work)
        env = bench.setup()
        samples = bench.per_layer() if args.trace else bench.end_to_end()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [name for name, ok in bench.items if not ok]
    attempted = len(bench.items)
    print("env " + json.dumps(env, sort_keys=True))
    metrics = {}
    for metric in declared:
        values = samples.get(metric["name"], [])
        value = statistics.median(values) if values else 0.0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:<44} {value:>14.6g} {metric['unit']:<6} "
              + (f"median of {len(values)}" if values else "none recorded"))
    print(f"{'failed_frac':<44} {len(failed) / attempted:>14.6g} {'1':<6}"
          f" {len(failed)} of {attempted} gate items over {bench.n_runs} CLI runs")
    for name in failed:
        print(f"gate failed: {name}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
