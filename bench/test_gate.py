"""The correctness gate flags each way a run can be wrong.

Run with `python3 -m pytest bench/test_gate.py`.
"""

import json

import pytest

import gate
import layers
from workloads import CHERN, CLUSTER_LEVELS, WORKLOADS

WL = WORKLOADS["torus-sectors"]


def good_report() -> dict:
    return {
        "checks": [{"name": n, "passed": True} for n in WL.checks],
        "details": {
            "clusters": [{"power": k, "npoints": n, "level": m, "measured_count": k * CHERN}
                         for k, n in WL.cluster_pairs for m in CLUSTER_LEVELS],
            "weyl": [{"power": k, "measured": c} for k, c in WL.weyl_counts.items()],
        },
    }


def write(out_root, report):
    rdir = out_root / "0123456789abcdef"
    rdir.mkdir(parents=True)
    (rdir / "report.json").write_text(json.dumps(report))
    (rdir / "report.csv").write_text("name\n")
    (rdir / "report.svg").write_text("<svg/>")
    return out_root


def failed(items):
    return [name for name, ok in items if not ok]


def test_correct_run_passes(tmp_path):
    assert failed(gate.check_run(WL, 0, write(tmp_path, good_report()))) == []


def test_flipped_verdict_is_flagged(tmp_path):
    report = good_report()
    report["checks"][3]["passed"] = False
    assert failed(gate.check_run(WL, 0, write(tmp_path, report))) == [f"check:{WL.checks[3]}"]


def test_missing_check_is_flagged(tmp_path):
    report = good_report()
    del report["checks"][0]
    assert failed(gate.check_run(WL, 0, write(tmp_path, report))) == [f"check:{WL.checks[0]}"]


def test_unexpected_check_is_flagged(tmp_path):
    report = good_report()
    report["checks"].append({"name": "torus.extra", "passed": True})
    assert failed(gate.check_run(WL, 0, write(tmp_path, report))) == ["unexpected:torus.extra"]


@pytest.mark.parametrize("delta", [-1, 1])
def test_cluster_count_off_by_one_is_flagged(tmp_path, delta):
    report = good_report()
    row = report["details"]["clusters"][4]
    row["measured_count"] += delta
    expected = f"cluster_count:k{row['power']}_N{row['npoints']}_m{row['level']}"
    assert failed(gate.check_run(WL, 0, write(tmp_path, report))) == [expected]


def test_weyl_count_off_by_one_is_flagged(tmp_path):
    report = good_report()
    report["details"]["weyl"][2]["measured"] += 1
    assert failed(gate.check_run(WL, 0, write(tmp_path, report))) == ["weyl_count:k12"]


def test_nonzero_exit_code_is_flagged(tmp_path):
    assert failed(gate.check_run(WL, 1, write(tmp_path, good_report()))) == ["exit_code"]


def test_aborted_run_fails_every_item(tmp_path):
    items = gate.check_run(WL, 3, tmp_path)
    assert failed(items) == [name for name, _ in items]


def test_differing_report_bytes_are_flagged(tmp_path):
    first = gate.report_digest(write(tmp_path / "a", good_report()))
    changed = good_report()
    changed["checks"][0]["value"] = 1e-16
    second = gate.report_digest(write(tmp_path / "b", changed))
    assert gate.same_reports(first, first) == ("identical_reports", True)
    assert gate.same_reports(first, second) == ("identical_reports", False)
    assert gate.same_reports(None, None) == ("identical_reports", False)


def test_layer_self_time_and_coverage():
    def span(i, name, parent, start, end, **facts):
        return {"id": i, "name": name, "parent": parent, "start": start, "end": end,
                "rss0_mb": 0.0, "rss1_mb": 0.0, **facts}
    spans = [span(0, "cli.main", None, 0.0, 10.0),
             span(1, "torus.solve_all", 0, 1.0, 7.0, method="sectors", eigs=4,
                  residuals=[1e-12]),
             span(2, "torus.build_magnetic_laplacian", 1, 1.0, 2.0, nnz=20),
             span(3, "verify.check_weyl_law", 0, 8.0, 9.0)]
    m = layers.layer_metrics(spans)
    assert m["torus.solve.sectors.calls"] == 1 and m["torus.solve.sectors.s"] == 6.0
    assert m["torus.self_s"] == 6.0 and m["cli.self_s"] == 3.0
    assert m["torus.calls"] == 1 and m["torus.lattice_nnz"] == 20
    assert m["trace.coverage"] == pytest.approx(0.7)
