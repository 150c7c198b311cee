"""scripts/bench_ab.py: its table on canned result lines, and its runs on
two stand-in checkouts."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", SCRIPT)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

END_TO_END = [{"name": "request_s_p50", "better": "lower"},
              {"name": "min_margin", "better": "higher"}]


def _result(p50, margin, failed=0, attempted=4):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"request_s_p50": {"value": p50, "unit": "s"},
                        "min_margin": {"value": margin, "unit": "log10"}}}


def test_quartiles_interpolate_between_sorted_values():
    assert bench_ab.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert bench_ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_ab.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)


def test_table_on_canned_result_lines():
    pairs = [
        (_result(5.0, 2.0), _result(4.0, 2.5)),
        (_result(6.0, 2.0), _result(4.5, 2.0)),  # a tie in margin counts for neither
        (_result(4.0, 3.0), _result(4.2, 1.0)),
        (_result(7.0, 2.0, failed=1), _result(5.0, 3.0)),
        (_result(5.5, 2.0), _result(4.1, 2.2, failed=2, attempted=5)),
    ]
    lines = bench_ab.table(pairs, END_TO_END)
    assert lines[:2] == [
        "| metric | parent median [q1, q3] | change median [q1, q3] | ratio "
        "| change wins | gap > parent IQR |",
        "|---|---|---|---|---|---|"]
    # parent 4, 5, 5.5, 6, 7: median 5.5, quartiles 5 and 6; change 4, 4.1,
    # 4.2, 4.5, 5: median 4.2; 4.2 / 5.5 = 0.764, and |4.2 - 5.5| > 6 - 5
    assert lines[2] == "| request_s_p50 | 5.5 [5, 6] | 4.2 [4.1, 4.5] | 0.764 | 4/5 | yes |"
    # higher is better: the change wins pairs 0, 3 and 4, and the parent's
    # quartile spread is 0, so the 0.2 gap between the medians exceeds it
    assert lines[3] == "| min_margin | 2 [2, 2] | 2.2 [2, 2.5] | 1.100 | 3/5 | yes |"
    assert lines[4:] == ["", "parent: 1 of 20 requests failed",
                         "change: 2 of 21 requests failed"]


FAKE_RUN = '''import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
here = Path(__file__).resolve().parents[1]
with open(here.parent / "order.log", "a") as f:
    f.write(f"{here.name} {args['--seed']} {args['--seconds']} {args['--trace']}\\n")
p50 = float((here / "speed.txt").read_text()) + int(args["--seed"]) / 100
print(json.dumps({"detail": {}}))
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {
    "request_s_p50": {"value": p50, "unit": "s"}}}))
'''


def _checkout(root, name, speed, fake=FAKE_RUN):
    d = root / name
    (d / "perfbench").mkdir(parents=True)
    (d / "perfbench" / "run.py").write_text(fake)
    (d / "speed.txt").write_text(str(speed))
    (d / "BENCHMARK.json").write_text(json.dumps({
        "paths": ["perfbench"], "run_seconds": 7,
        "end_to_end": [{"name": "request_s_p50", "better": "lower"}]}))
    return str(d)


def _run(*args):
    proc = subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_pairs_alternate_and_share_seeds(tmp_path):
    parent, change = _checkout(tmp_path, "parent", 2.0), _checkout(tmp_path, "change", 1.0)
    code, out, _ = _run(parent, change, "--workload", "w", "--pairs", "3", "--seed0", "10")
    assert code == 0
    assert (tmp_path / "order.log").read_text().splitlines() == [
        "parent 10 7 0", "change 10 7 0", "change 11 7 0", "parent 11 7 0",
        "parent 12 7 0", "change 12 7 0"]
    assert "| request_s_p50 | 2.11 [2.105, 2.115] | 1.11 [1.105, 1.115] | 0.526 | 3/3 | yes |" in out
    assert "change: 0 of 9 requests failed" in out


def test_different_benchmarks_exit_2(tmp_path):
    parent = _checkout(tmp_path, "parent", 2.0)
    change = _checkout(tmp_path, "change", 1.0, fake=FAKE_RUN + "\n")
    code, out, err = _run(parent, change, "--workload", "w", "--pairs", "1", "--seed0", "0")
    assert (code, out) == (2, "")
    assert "different benchmarks: perfbench/run.py" in err
    assert not (tmp_path / "order.log").exists()
