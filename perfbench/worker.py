"""The measured phase of one benchmark run, in a process of its own.

``python3 perfbench/worker.py JOB.json`` reads the job (workload, seed,
seconds, trace flag, corpus directory, result path), runs the measured phase
and writes its result as JSON. Its peak resident memory is read from
``VmHWM``, which starts afresh when the process image is replaced at exec, so
it is the peak of the measured phase alone. ``ru_maxrss`` would not do: a
child inherits its parent's high-water mark across fork and exec, and the
parent holds the generated corpus during set-up.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

from reference import reference_loop


def _train_round(wl, seed, corpus, probe, record, references, checkpoint=None):
    """Load the train split, train, save the checkpoint; fills ``record``.

    With ``checkpoint`` (an earlier round's, which a repeated round
    reproduces), ``wl.eval_passes_per_epoch`` evaluation passes run on it
    after every epoch, so that evaluation samples spread over the whole run
    rather than bunching at round ends. Their time is left out of the epoch
    and training figures.
    """
    from stampseg import data, net, pipeline

    _vocab, records = data.load_corpus(corpus, split="train")
    dataset = [(r.features, r.labels) for r in records]
    annotations = [r.timestamps for r in records]
    frames = sum(r.num_frames for r in records)
    config = wl.train_config(seed)
    marks = []  # per epoch: (perf, cpu) when it ends, (perf, cpu) when its evaluations end

    def on_epoch(epoch, _model, _entry):
        ended = (time.perf_counter(), time.process_time())
        references.append(reference_loop())
        if checkpoint is not None:
            for _ in range(wl.eval_passes_per_epoch):
                _eval_pass(corpus, checkpoint, probe, record, references)
        marks.append((ended, (time.perf_counter(), time.process_time())))

    probe.pseudo.clear()
    references.append(reference_loop())
    start = time.perf_counter()
    cpu_start = time.process_time()
    model, logs = pipeline.train(dataset, annotations, config, wl.model_config(), on_epoch=on_epoch)
    end = time.perf_counter()
    cpu = time.process_time() - cpu_start
    paused = [(resumed[0] - ended[0], resumed[1] - ended[1]) for ended, resumed in marks]
    record["train"] = {
        "start": start, "end": end,
        "wall": end - start - sum(w for w, _c in paused),
        "cpu": cpu - sum(c for _w, c in paused),
        "frames": frames * config.epochs,
    }
    begins = [(start, cpu_start)] + [resumed for _ended, resumed in marks]
    record["epochs"] = [
        {
            "phase": "warmup" if epoch <= config.warmup_epochs else "pseudo",
            "start": begins[epoch - 1][0],
            "end": marks[epoch - 1][0][0],
            "wall": marks[epoch - 1][0][0] - begins[epoch - 1][0],
            "cpu": marks[epoch - 1][0][1] - begins[epoch - 1][1],
            "frames": frames,
        }
        for epoch in range(1, config.epochs + 1)
    ]
    record["final_loss"] = logs[-1].mean_loss

    # The pseudo-labels the last post-warmup epoch trained on, against ground truth.
    pseudo = [probe.pseudo.get(id(ts)) for ts in annotations]
    if all(p is not None for p in pseudo):
        record["pseudo_acc"] = 100.0 * float(
            sum(int(np.sum(p == r.labels)) for p, r in zip(pseudo, records)) / frames
        )

    path = Path(corpus) / "model.tsm"
    net.save_model(model, path)
    record["checkpoint_bytes"] = path.stat().st_size
    return model, path


def _check_checkpoint(model, path, probe):
    from stampseg import net

    with probe.quiet():
        reloaded = net.load_model(path)
    same = reloaded.config == model.config and all(
        np.array_equal(reloaded.params[k], model.params[k].astype(np.float32).astype(np.float64))
        for k in model.params
    )
    probe.check(same, "checkpoint does not reload to the float32-rounded parameters")


def _eval_pass(corpus, path, probe, record, references):
    """The ``stampseg eval`` path: load the test split and checkpoint, evaluate."""
    from stampseg import data, metrics, net, pipeline

    before = dict(probe.calls)
    probe.preds.clear()
    start = time.perf_counter()
    cpu_start = time.process_time()
    _vocab, records = data.load_corpus(corpus, split="test")
    model = net.load_model(path)
    report = pipeline.evaluate(model, [(r.features, r.labels) for r in records])
    end = time.perf_counter()
    cpu = time.process_time() - cpu_start
    references.append(reference_loop())
    labels = [r.labels for r in records]
    with probe.quiet():
        same = len(probe.preds) == len(records) and metrics.report(probe.preds, labels) == report
    probe.check(same, "evaluate's report differs from metrics.report on its predictions")
    idle = ("change.fb_boundaries", "loss.total_loss_grad", "net.adam_step")
    moved = {name: probe.calls[name] - before[name] for name in idle}
    probe.check(not any(moved.values()), f"evaluation ran training layers: {moved}")
    segments = [len(np.flatnonzero(np.diff(p))) + 1 for p in probe.preds]
    record.setdefault("eval", []).append({
        "start": start, "end": end, "wall": end - start, "cpu": cpu, "frames": sum(len(x) for x in labels),
        "pred_segments": float(np.mean(segments)),
    })
    return report


def peak_rss_mb():
    """Peak resident memory of this process image, in MB (Linux only)."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def measure(wl, seed, corpus, seconds, trace):
    """Run rounds while the next one, as long as the last, ends within ``seconds``.

    At least one round runs.
    """
    from probe import Probe

    probe = Probe(trace)
    rounds = []
    reports = []
    references = []  # reference_loop() CPU seconds, one after each sample
    checkpoint = None
    began = time.perf_counter()
    try:
        while True:
            round_start = time.perf_counter()
            record = {}
            rounds.append(record)
            try:
                model, path = _train_round(wl, seed, corpus, probe, record, references, checkpoint)
                checkpoint = path
                _check_checkpoint(model, path, probe)
                for _ in range(wl.eval_passes):
                    report = _eval_pass(corpus, path, probe, record, references)
                reports.append((report, record["final_loss"]))
            except (FloatingPointError, MemoryError, ValueError) as err:
                probe.check(False, f"{type(err).__name__}: {err}")
            now = time.perf_counter()
            if now + (now - round_start) > began + seconds:
                break
    finally:
        probe.close()
    for later in reports[1:]:
        probe.check(later == reports[0], "a repeated round gave a different result")
    quality = {}
    if reports:
        quality = {"test_acc": reports[0][0].acc, "test_f1_50": reports[0][0].f1_50}
    if rounds and "pseudo_acc" in rounds[0]:
        quality["pseudo_acc"] = rounds[0]["pseudo_acc"]
    return {
        "rounds": rounds,
        "references": references,
        "quality": quality,
        "attempted": probe.attempted,
        "failures": probe.failures,
        "spans": probe.spans,
        "extra": {str(k): v for k, v in probe.extra.items()},
        "peak_rss_mb": peak_rss_mb(),
    }


def main(job_path):
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import Workload

    wl = Workload(**job["workload"])
    result = measure(wl, job["seed"], job["corpus"], job["seconds"], job["trace"])
    Path(job["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
