"""Self-test of the benchmark harness; takes a few seconds.

    python3 perfbench/selftest.py

Runs every workload shrunk to toy size, untraced and traced, and asserts that
each named metric is emitted and that correct code fails no check. Then it
corrupts outputs (a boundary outside its window, a NaN loss) and asserts that
each is counted as a failure, and that the benchmark refuses to run where the
stampseg sources are missing.
"""

import json
import math
import shutil
import subprocess
import sys
import time

import run as bench

bench._import_stampseg()

from stampseg import change, net  # noqa: E402

import layers  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, shrunk  # noqa: E402

SCRATCH = bench.HERE / "out" / "selftest"


def check_benchmark_json():
    assert {w["name"] for w in bench.SPEC["workloads"]} == set(WORKLOADS)
    print("ok: BENCHMARK.json names the workloads the code defines")


def check_metrics_emitted():
    for name, full in WORKLOADS.items():
        wl = shrunk(full)
        for trace in (False, True):
            record = bench.run(wl, 3, 0.0, trace, SCRATCH / name, time.monotonic() + 120)
            assert record["failed"] == 0, record["failures"]
            e2e = record["end_to_end"]
            for metric in bench.E2E_UNITS:
                assert math.isfinite(e2e[metric]) and e2e[metric] > 0, (name, metric, e2e[metric])
            if trace:
                assert set(record["per_layer"]) == set(layers.UNITS), name
                calls = record["layer_table"]["layers"]
                for idle in ("change.fb_boundaries", "loss.total_loss_grad", "net.adam_step"):
                    assert calls[idle]["calls_by_phase"]["eval"] == 0, (name, idle)
        print(f"ok: {name} emits every metric and fails no check")


def check_evaluation_between_epochs():
    wl = shrunk(WORKLOADS["study"])
    corpus = SCRATCH / "between"
    bench.set_up(wl, 4, corpus)
    result = worker.measure(wl, 4, str(corpus), 1.0, True)
    rounds = result["rounds"]
    assert len(rounds) >= 2 and not result["failures"], (len(rounds), result["failures"])
    epochs = wl.schedule["epochs"]
    assert len(rounds[0]["eval"]) == wl.eval_passes, rounds[0]["eval"]
    for record in rounds[1:]:
        assert len(record["eval"]) == wl.eval_passes + epochs * wl.eval_passes_per_epoch
        for e in record["epochs"]:
            assert not any(e["start"] < p["end"] and p["start"] < e["end"] for p in record["eval"])
        train = record["train"]
        assert train["wall"] < train["end"] - train["start"], train
    print(f"ok: evaluation passes between epochs ({len(rounds)} rounds) are kept out of the epochs")


def measure_with_fault(target, attr, faulty):
    wl = shrunk(WORKLOADS["study"])
    corpus = SCRATCH / "fault"
    bench.set_up(wl, 5, corpus)
    original = getattr(target, attr)
    setattr(target, attr, faulty(original))
    try:
        return worker.measure(wl, 5, str(corpus), 0.0, False)
    finally:
        setattr(target, attr, original)


def check_faults_counted():
    def boundary_on_next_stamp(original):
        def fb(features, timestamps, num_frames):
            return timestamps.frames[1:].copy()
        return fb

    result = measure_with_fault(change, "fb_boundaries", boundary_on_next_stamp)
    assert any("outside stamps" in f for f in result["failures"]), result["failures"]
    print(f"ok: a boundary outside its window counts ({len(result['failures'])} failures)")

    def nan_loss(original):
        def loss_and_grad(*args, **kwargs):
            _value, grads = original(*args, **kwargs)
            return float("nan"), grads
        return loss_and_grad

    result = measure_with_fault(net, "loss_and_grad", nan_loss)
    assert any("non-finite loss" in f for f in result["failures"]), result["failures"]
    print(f"ok: a NaN loss counts ({len(result['failures'])} failures)")


def check_refuses_without_sources():
    bare = SCRATCH / "bare"
    shutil.copytree(bench.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0, done.stdout
    assert not any(line.startswith("{") for line in done.stdout.splitlines()), done.stdout
    print("ok: without the stampseg sources the run exits non-zero and prints no result")


def check_json_line():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study", "--seed", "2",
         "--seconds", "0", "--trace", "0", "--out", str(SCRATCH / "results.jsonl")],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result
    assert {k: v["unit"] for k, v in result["metrics"].items()} == bench.E2E_UNITS, result
    print("ok: the full study run prints its JSON result as the last line")


def main():
    if SCRATCH.exists():
        shutil.rmtree(SCRATCH)
    try:
        check_benchmark_json()
        check_metrics_emitted()
        check_evaluation_between_epochs()
        check_faults_counted()
        check_refuses_without_sources()
        if "--full" in sys.argv:  # adds one full-size study run, about 40 s
            check_json_line()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
