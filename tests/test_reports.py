import numpy as np

from magweyl import reports


def test_canonical_json_deterministic(tmp_path):
    obj = {"b": np.array([1.0, 2.0]), "a": {"z": 1 + 2j, "y": np.float64(0.25)},
           "c": (1, 2)}
    s1 = reports.canonical_json(obj)
    s2 = reports.canonical_json(obj)
    assert s1 == s2
    assert '"a"' in s1 and s1.index('"a"') < s1.index('"b"')
    assert '"re": 1.0' in s1
    reports.write_json(tmp_path / "r.json", obj)
    assert (tmp_path / "r.json").read_text() == s1


def test_csv_stable(tmp_path):
    rows = [{"name": "x", "value": 0.1234567890123, "passed": True},
            {"name": "y", "value": 2, "extra": "dropped"}]
    reports.write_csv(tmp_path / "t.csv", rows, ["name", "value", "passed"])
    text = (tmp_path / "t.csv").read_text()
    assert text.splitlines()[0] == "name,value,passed"
    assert "0.123456789012" in text  # .12g cell format
    assert "dropped" not in text
    reports.write_csv(tmp_path / "t2.csv", rows, ["name", "value", "passed"])
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()


def test_svg_plot_deterministic():
    series = [{"label": "ratio", "x": [8, 16, 24], "y": [1.02, 1.01, 1.0]}]
    s1 = reports.svg_plot(series, "ratio", "k", "ratio", reference_y=1.0)
    s2 = reports.svg_plot(series, "ratio", "k", "ratio", reference_y=1.0)
    assert s1 == s2
    assert "<polyline" in s1 and "stroke-dasharray" in s1
    assert "<svg" in s1 and s1.endswith("</svg>\n")


def test_emit_report_files(tmp_path):
    rows = [{"name": "check", "value": 0.5, "tolerance": 1.0, "passed": True}]
    svg = reports.svg_plot([{"label": "s", "x": [0, 1], "y": [0, 1]}],
                           "t", "x", "y")
    names = ("report.json", "report.csv", "report.svg")
    reports.emit_report({"command": "test", "checks": rows}, tmp_path,
                        rows=rows, columns=["name", "value"], svg=svg)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    first = {name: (tmp_path / name).read_bytes() for name in names}
    reports.emit_report({"command": "test", "checks": rows}, tmp_path,
                        rows=rows, columns=["name", "value"], svg=svg)
    assert first == {name: (tmp_path / name).read_bytes() for name in names}
    assert b'"schema"' in first["report.json"]
