"""scripts/diff_reports.py on hand-built reports."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "diff_reports.py"


def _entry(prop_id, dim, status="pass", trials=4, max_residual=1e-12, hyp_residual=None,
           direction="identity"):
    return {"id": prop_id, "dim": dim, "direction": direction, "trials": trials,
            "max_residual": max_residual, "tolerance": 1e-8, "status": status,
            "pass": status != "fail", "hyp_residual": hyp_residual, "notes": ""}


def _write(path, entries):
    path.write_text(json.dumps({"suite": {"entries": entries, "tolerances": {"hypothesis": 1e-7}},
                                "exit_status": 0}))
    return str(path)


def _run(a, b):
    proc = subprocess.run([sys.executable, str(SCRIPT), a, b], capture_output=True, text=True)
    return proc.returncode, proc.stdout


BASE = [_entry("GAD1.i", 2), _entry("teo5", 4, max_residual=2e-10, hyp_residual=1e-15)]


def test_identical_reports_print_nothing(tmp_path):
    a = _write(tmp_path / "a.json", BASE)
    b = _write(tmp_path / "b.json", list(reversed(BASE)))
    assert _run(a, b) == (0, "")


def test_residual_moves_are_listed_with_their_size(tmp_path):
    moved = [BASE[0], _entry("teo5", 4, max_residual=3e-10, hyp_residual=1e-15)]
    code, out = _run(_write(tmp_path / "a.json", BASE), _write(tmp_path / "b.json", moved))
    assert code == 0
    assert out.splitlines() == [
        "teo5 dim 4: max_residual 2e-10 -> 3e-10 (abs +1.000e-10, rel +5.000e-01)",
        "smallest margins: A conclusion 1.70 (teo5, 4), hypothesis 8.00 (teo5, 4); "
        "B conclusion 1.52 (teo5, 4), hypothesis 8.00 (teo5, 4)"]


def test_status_changes_exit_1(tmp_path):
    changed = [_entry("GAD1.i", 2, status="fail", max_residual=1.0), BASE[1],
               _entry("lem2", 2)]
    code, out = _run(_write(tmp_path / "a.json", BASE), _write(tmp_path / "b.json", changed))
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("GAD1.i dim 2: status 'pass' -> 'fail'; max_residual 1e-12 -> 1.0")
    # an entry present in only one report is a status change too
    assert lines[1].startswith("lem2 dim 2: status None -> 'pass'")
    # the failed GAD1.i has no margin
    assert lines[2] == ("smallest margins: A conclusion 1.70 (teo5, 4), hypothesis 8.00 (teo5, 4); "
                        "B conclusion 1.70 (teo5, 4), hypothesis 8.00 (teo5, 4)")
    assert len(lines) == 3


def test_margins_skip_negative_controls_and_zero_residuals(tmp_path):
    a = [_entry("neg.pro2", 4, max_residual=0.09, direction="negative-control"),
         _entry("lem3", 4, max_residual=0.0),
         _entry("sec2.cor3", 2, max_residual=1e-10, hyp_residual=1e-9),
         _entry("teo2", 4, max_residual=1e-11, hyp_residual=1e-12)]
    b = [*a[:2], _entry("sec2.cor3", 2, max_residual=1e-14, hyp_residual=None), a[3]]
    code, out = _run(_write(tmp_path / "a.json", a), _write(tmp_path / "b.json", b))
    assert code == 0
    assert out.splitlines()[-1] == (
        "smallest margins: A conclusion 2.00 (sec2.cor3, 2), hypothesis 2.00 (sec2.cor3, 2); "
        "B conclusion 3.00 (teo2, 4), hypothesis 5.00 (teo2, 4)")


def test_margins_of_a_report_without_hypotheses(tmp_path):
    moved = [_entry("GAD1.i", 2, max_residual=1e-10)]
    code, out = _run(_write(tmp_path / "a.json", BASE[:1]), _write(tmp_path / "b.json", moved))
    assert code == 0
    assert out.splitlines()[-1] == ("smallest margins: A conclusion 4.00 (GAD1.i, 2), "
                                    "hypothesis none; B conclusion 2.00 (GAD1.i, 2), "
                                    "hypothesis none")
