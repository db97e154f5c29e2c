"""Fast self-test of the benchmark harness on tiny configurations.

    python3 perfbench/selftest.py

Runs order 2 at 20 digits (cold and warm) and a one-word, one-angle
triangle through the same code as the real workloads, and checks that:

* every metric named in BENCHMARK.json is printed, with its unit;
* span self times are non-negative and children never exceed their parent;
* the tracer's wrappers are gone after a traced run;
* a deliberately wrong reference fails every repetition.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))


def tiny_workloads(**wrong) -> list:
    refs = run.alpha_references()
    if wrong:
        refs[1] = (refs[1][0] + run.MP.mpf("1e-12"), refs[1][1])
    return [run.Alpha("tiny-cold", order=2, digits=20, warm=False, refs=refs),
            run.Alpha("tiny-warm", order=2, digits=20, warm=True, refs=refs),
            run.Triangle("tiny-triangle", digits=20, angles=[(1, 4)], words=[[1]],
                         closed_form_shift=1e-12 if wrong else 0.0)]


def measure(workload, trace: bool, work_root: Path) -> dict:
    work = Path(tempfile.mkdtemp(dir=work_root, prefix=f"{workload.name}-"))
    try:
        result, record = run.run_workload(workload, 0, 0, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    json.dumps([result, record])    # both lines must print as JSON
    return result


def check_metrics(result: dict, declared: list, label: str) -> None:
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in declared}
    assert printed == wanted, f"{label}: metrics {printed} != declared {wanted}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{label}: {name} = {m['value']!r}"


def check_spans(report: dict) -> None:
    assert report["spans"], "traced run recorded no spans"
    for name, rec in report["spans"].items():
        assert rec["child_s"] <= rec["total_s"] + 1e-9, f"{name}: children exceed parent"
        assert rec["total_s"] - rec["child_s"] >= -1e-9, f"{name}: negative self time"


def traced_in_process(cache: Path) -> None:
    from lawsonarea import cli, engine, laurent, omega
    before = (omega.build_table, engine.cached_table, engine.parse_phi, cli.main,
              laurent.LaurentPoly.__dict__["__init__"],
              laurent.LaurentMatrix2.__dict__["add_scaled_constant"])
    argv = ["expand", "--order", "2", "--precision", "20", "--format", "json",
            "--cache-dir", str(cache)]
    with contextlib.redirect_stdout(io.StringIO()):
        code, report = child.traced(child.cli, argv)
    assert code == 0, f"traced expand exited {code}"
    check_spans(report)
    assert report["leftover"] == [], report["leftover"]
    after = (omega.build_table, engine.cached_table, engine.parse_phi, cli.main,
             laurent.LaurentPoly.__dict__["__init__"],
             laurent.LaurentMatrix2.__dict__["add_scaled_constant"])
    assert all(a is b for a, b in zip(before, after)), "wrappers left in place"
    assert report["counts"]["laurent.polys_created"] > 0
    assert {"omega.build_table", "engine.frame_lower.o2", "cli.main"} <= set(report["spans"])


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    scratch = run.ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(dir=scratch, prefix="selftest-"))
    try:
        traced_in_process(work_root / "inproc-cache")
        for workload in tiny_workloads():
            result = measure(workload, False, work_root)
            assert result["correct"] and result["failed"] == 0, (workload.name, result)
            check_metrics(result, declared["end_to_end"], workload.name)
            result = measure(workload, True, work_root)
            assert result["correct"], (workload.name, result)
            check_metrics(result, declared["per_layer"], workload.name)
            values = {k: m["value"] for k, m in result["metrics"].items()}
            for name, value in values.items():
                if name.endswith("_s") or name.endswith(".s"):
                    assert value >= 0, f"{workload.name}: {name} = {value}"
            print(f"selftest: {workload.name} ok")
        for workload in tiny_workloads(wrong=True):
            result = measure(workload, False, work_root)
            assert result["failed"] == result["attempted"] >= 1, (workload.name, result)
            assert not result["correct"]
            print(f"selftest: {workload.name} with a wrong reference fails every repetition")
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
