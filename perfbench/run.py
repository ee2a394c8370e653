"""stampseg benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload study --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The run generates the workload's corpus from
the seed and writes it as a corpus directory (set-up, timed several times),
then runs the measured phase in a fresh process: ``pipeline.train`` on the
train split, ``net.save_model``, and evaluation passes that load the test
split and the checkpoint and call ``pipeline.evaluate``. Rounds of training
and evaluation repeat while another fits in ``--seconds`` (at least one runs).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the measured
phase untraced and then traced, and reports the per-layer metrics plus the
tracing overhead between the two. Outputs are checked in every run; the last
line of standard output is the JSON result, and the full record (environment,
shapes, metrics, spans) is appended to ``--out``.
"""

import os

# Pinned before numpy is imported, here and in the worker it starts.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import reference_loop, slowdown  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170.0

# Throughputs divide by the measuring process's CPU time (user + system):
# training and evaluation are single-threaded with BLAS pinned to one thread,
# and CPU time leaves out the time other tenants hold the CPU. It does not
# leave out how fast the machine runs while we hold it, which on a shared host
# moves by a quarter or more over minutes. So the reported rates and set-up
# times are rescaled to reference speed (reference.py): each is multiplied or
# divided by its phase's median reference-loop time over the nominal one. The
# record keeps them as measured too ("cpu_samples", "wall_samples").
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
# Printed and recorded but not in BENCHMARK.json: test quality only means
# something on study, and fail_ratio is 0 on correct code.
REPORTED_UNITS = {"test_acc": "%", "test_f1_50": "%", "fail_ratio": "ratio"}
# Also printed: the figures as measured, and how much slower than reference
# speed the machine ran during set-up and the measured phase.
REPORTED_UNITS.update({
    "setup_wall_s": "s",
    **{f"{phase}_frames_per_cpu_s": "frames/cpu-s" for phase in ("train", "warmup", "pseudo", "eval")},
    "setup_slowdown": "ratio",
    "measured_slowdown": "ratio",
})


def _import_stampseg():
    if not (SRC / "stampseg" / "__init__.py").is_file():
        raise SystemExit(f"no stampseg sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import stampseg

    if Path(stampseg.__file__).resolve().parent != (SRC / "stampseg").resolve():
        raise SystemExit(f"imported stampseg from {stampseg.__file__}, not from {SRC}")


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: os.environ.get(k) for k in BLAS_THREADS},
        "machine": platform.machine(),
        "seed": seed,
        "feature_reads": "files written during set-up, read back from the page cache",
    }


def set_up(wl, seed, corpus):
    """Generate and write the corpus, initialise the model, make a first forward call."""
    from stampseg import net

    from workloads import write_inputs

    if corpus.exists():
        shutil.rmtree(corpus)
    corpus.mkdir(parents=True)
    shapes = write_inputs(wl, seed, corpus)
    model = net.init_model(wl.model_config(), seed)
    net.forward(model, [[0.0] * wl.corpus["dim"]] * 8)
    return shapes


def run_worker(wl, seed, corpus, seconds, trace, deadline):
    job = {
        "workload": wl.to_dict(), "seed": seed, "seconds": seconds, "trace": trace,
        "corpus": str(corpus), "src": str(SRC), "result": str(corpus / f"result{int(trace)}.json"),
    }
    job_path = corpus / f"job{int(trace)}.json"
    job_path.write_text(json.dumps(job))
    env = dict(os.environ, **BLAS_THREADS)
    timeout = max(1.0, deadline - time.monotonic())
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_path)],
        env=env, check=True, timeout=timeout, stdout=sys.stderr,
    )
    return json.loads(Path(job["result"]).read_text())


def samples(worker, setup, clock="ref"):
    """Every timed sample behind a median: {metric: [values]}.

    ``clock`` "ref" gives the reported figures, rescaled to reference speed;
    "cpu" and "wall" give rates by CPU and by wall time, and set-up times, as
    measured.
    """
    setup_times, setup_refs = setup
    rounds = [r for r in worker["rounds"] if "train" in r]
    epochs = [e for r in rounds for e in r["epochs"]]
    measured_slowdown = slowdown(worker["references"]) if clock == "ref" else 1.0
    setup_slowdown = slowdown(setup_refs) if clock == "ref" else 1.0
    seconds = "wall" if clock == "wall" else "cpu"

    def rates(items):
        return [measured_slowdown * i["frames"] / i[seconds] for i in items]

    return {
        "setup_s": [t / setup_slowdown for t in setup_times],
        f"train_frames_per_{clock}_s": rates([r["train"] for r in rounds]),
        f"warmup_frames_per_{clock}_s": rates([e for e in epochs if e["phase"] == "warmup"]),
        f"pseudo_frames_per_{clock}_s": rates([e for e in epochs if e["phase"] == "pseudo"]),
        f"eval_frames_per_{clock}_s": rates([e for r in rounds for e in r.get("eval", [])]),
    }


def _medians(values):
    return {k: statistics.median(v) if v else 0.0 for k, v in values.items()}


def end_to_end(worker, setup):
    measured = _medians(samples(worker, setup, "cpu"))
    quality = worker["quality"]
    return {
        **_medians(samples(worker, setup)),
        "peak_rss_mb": worker["peak_rss_mb"],
        "pseudo_acc": quality.get("pseudo_acc", 0.0),
        "test_acc": quality.get("test_acc", 0.0),
        "test_f1_50": quality.get("test_f1_50", 0.0),
        "fail_ratio": len(worker["failures"]) / max(1, worker["attempted"]),
        "setup_wall_s": measured.pop("setup_s"),
        **measured,
        "setup_slowdown": slowdown(setup[1]),
        "measured_slowdown": slowdown(worker["references"]),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out" / "results.jsonl",
                        help="JSON-lines file the full record is appended to")
    args = parser.parse_args(argv)
    started = time.monotonic()
    _import_stampseg()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                 HERE / "out" / f"{args.workload}-{args.seed}-{os.getpid()}",
                 started + RUN_LIMIT_S)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print_report(record)
    if args.trace:
        metrics = record["per_layer"]
    else:
        metrics = {n: {"value": record["end_to_end"][n], "unit": u} for n, u in E2E_UNITS.items()}
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


def run(wl, seed, seconds, trace, corpus, deadline):
    """Set up, run the measured phase, and assemble the run's record."""
    from layers import per_layer
    from probe import Probe

    setup_probe = Probe(trace)
    setup_times = []
    setup_refs = [reference_loop()]
    try:
        for _ in range(wl.setup_repeats):
            start = time.perf_counter()
            shapes = set_up(wl, seed, corpus)
            setup_times.append(time.perf_counter() - start)
            setup_refs.append(reference_loop())
    finally:
        setup_probe.close()
    try:
        untraced = run_worker(wl, seed, corpus, seconds, False, deadline)
        traced = run_worker(wl, seed, corpus, seconds, True, deadline) if trace else None
    finally:
        shutil.rmtree(corpus, ignore_errors=True)
    setup = (setup_times, setup_refs)
    workers = [w for w in (untraced, traced) if w is not None]
    failures = setup_probe.failures + [f for w in workers for f in w["failures"]]
    attempted = setup_probe.attempted + sum(w["attempted"] for w in workers)
    record = {
        "workload": wl.name,
        "spec": wl.to_dict(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed),
        "shapes": shapes,
        "setup_times": setup_times,
        "end_to_end": end_to_end(untraced, setup),
        "samples": samples(untraced, setup),
        "cpu_samples": samples(untraced, setup, "cpu"),
        "wall_samples": samples(untraced, setup, "wall"),
        "references": {"setup": setup_refs, "measured": untraced["references"]},
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
    }
    if trace:
        record["traced_end_to_end"] = end_to_end(traced, setup)
        record["per_layer"], record["layer_table"] = per_layer(
            traced, untraced, setup_probe, setup_times
        )
        record["spans"] = {"setup": setup_probe.spans, "measured": traced["spans"]}
    return record


def print_report(record):
    e2e = record["end_to_end"]
    print(f"# stampseg benchmark: workload {record['workload']}, seed {record['seed']}, "
          f"{record['environment']['nproc']} cpus, BLAS threads 1")
    print(f"# shapes: {json.dumps(record['shapes'])}")
    print(f"{'metric':<22} {'value':>14}  unit")
    for name, unit in {**E2E_UNITS, **REPORTED_UNITS}.items():
        print(f"{name:<22} {e2e[name]:>14.4f}  {unit}")
    print(f"attempted {record['attempted']}, failed {record['failed']}")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    if record["trace"]:
        from layers import print_layers

        print_layers(record)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as err:
        print(f"measured phase failed with exit status {err.returncode}", file=sys.stderr)
        sys.exit(1)
    except subprocess.TimeoutExpired:
        print("measured phase exceeded the run's time limit", file=sys.stderr)
        sys.exit(1)
