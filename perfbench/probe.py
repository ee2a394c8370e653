"""Wrappers around stampseg's public functions: output checks and trace spans.

A ``Probe`` replaces module attributes of ``stampseg`` (the names the package
itself calls through, such as ``stampseg.change.fb_boundaries`` or
``stampseg.net.total_loss_grad``) with wrappers, and puts the originals back
on ``close``. Every run checks outputs; only a traced run records spans, which
carry a name, start, end and parent id and stay in memory until the run ends.
"""

import math
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

from stampseg import change, data, loss, metrics, net, pipeline

MODULES = {
    "change": change, "data": data, "loss": loss, "metrics": metrics,
    "net": net, "pipeline": pipeline,
}

# (module, attribute, span name). Names follow the layer that owns the code;
# net and pipeline reach total_loss_grad and report through their own imports.
TRACED = [
    ("data", "generate_synthetic", "data.generate_synthetic"),
    ("data", "write_corpus", "data.write_corpus"),
    ("data", "load_corpus", "data.load_corpus"),
    ("data", "load_features", "data.load_features"),
    ("change", "fb_boundaries", "change.fb_boundaries"),
    ("change", "labels_from_boundaries", "change.labels_from_boundaries"),
    ("net", "forward", "net.forward"),
    ("net", "loss_and_grad", "net.loss_and_grad"),
    ("net", "total_loss_grad", "loss.total_loss_grad"),
    ("net", "adam_step", "net.adam_step"),
    ("net", "save_model", "net.save_model"),
    ("net", "load_model", "net.load_model"),
    ("loss", "cls_loss_grad", "loss.cls_loss_grad"),
    ("loss", "tmse_loss_grad", "loss.tmse_loss_grad"),
    ("loss", "conf_loss_grad", "loss.conf_loss_grad"),
    ("pipeline", "train", "pipeline.train"),
    ("pipeline", "pseudo_labels", "pipeline.pseudo_labels"),
    ("pipeline", "infer", "pipeline.infer"),
    ("pipeline", "evaluate", "pipeline.evaluate"),
    ("pipeline", "report", "metrics.report"),
    ("metrics", "edit_score", "metrics.edit_score"),
    ("metrics", "f1_counts", "metrics.f1_counts"),
]

# Wrapped in untraced runs too: the calls whose outputs are checked or
# counted. A wrapper costs about a microsecond against milliseconds of work.
CHECKED = {
    "change.fb_boundaries", "net.loss_and_grad", "net.adam_step", "loss.total_loss_grad",
    "pipeline.pseudo_labels", "pipeline.infer", "data.load_features", "net.load_model",
}


def _widest_split_span(args):
    """Upper bound on the frames one split of ``fb_boundaries`` can cover.

    A split between stamps t_i and t_{i+1} spans at most t_{i-1}..t_{i+1}
    (or from the first frame, or to the last one, at the ends).
    """
    _features, timestamps, num_frames = args
    ends = np.concatenate([[0], timestamps.frames, [num_frames]])
    return int((ends[2:] - ends[:-2]).max())


# Layers whose tracemalloc peak is recorded. Allocation tracing slows
# allocation-heavy code by half, so it runs only inside calls of these layers
# (which never nest) whose size exceeds that of every earlier call: the widest
# split span for fb_boundaries, the longest video for loss_and_grad. Both
# peaks grow with that size, so the maximum is kept while most calls, and
# their self times, run without allocation tracing.
PEAK_TRACKED = {
    "change.fb_boundaries": _widest_split_span,
    "net.loss_and_grad": lambda args: len(args[1]),
}

# Calls that count as operations in attempted / failed.
OPERATIONS = {
    "net.loss_and_grad", "change.fb_boundaries", "pipeline.infer",
    "data.load_features", "net.load_model",
}


class Probe:
    def __init__(self, trace: bool):
        self.trace = trace
        self.calls = {name: 0 for _m, _a, name in TRACED}
        self.attempted = 0
        self.failures: list[str] = []
        self.spans: list[tuple] = []  # (id, parent, name, start, end)
        self.extra: dict[int, dict] = {}  # span id -> measured quantities
        self.stack: list[int] = []
        self.pseudo: dict[int, np.ndarray] = {}  # id(timestamps) -> latest pseudo-labels
        self.preds: list[np.ndarray] = []  # predictions since the last reset
        self.paused = False
        self.largest = dict.fromkeys(PEAK_TRACKED, 0)  # layer -> largest call size so far
        self._saved = []
        for mod_name, attr, name in TRACED:
            if trace or name in CHECKED:
                module = MODULES[mod_name]
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))

    def close(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    @contextmanager
    def quiet(self):
        """Calls made by the benchmark's own checks are neither counted nor traced."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def fail(self, message: str):
        self.failures.append(message)

    def check(self, ok: bool, message: str):
        """Count one checked operation; record a failure when ``ok`` is false."""
        self.attempted += 1
        if not ok:
            self.fail(message)

    def _wrap(self, original, name):
        inspect = getattr(self, "_after_" + name.replace(".", "_"), None)
        is_op = name in OPERATIONS
        track_peak = name in PEAK_TRACKED

        def wrapper(*args, **kwargs):
            if self.paused:
                return original(*args, **kwargs)
            self.calls[name] += 1
            if is_op:
                self.attempted += 1
            if not self.trace:
                result = original(*args, **kwargs)
                if inspect is not None:
                    inspect(None, args, result)
                return result
            span = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(span)
            peak = track_peak and self._peak_wanted(name, args)
            if peak:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if peak:
                    self._note(span, peak=tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                self.stack.pop()
                self.spans[span] = (span, parent, name, start, end)
            if inspect is not None:
                inspect(span, args, result)
            return result

        return wrapper

    def _peak_wanted(self, name, args):
        size = PEAK_TRACKED[name](args)
        if size <= self.largest[name]:
            return False
        self.largest[name] = size
        return True

    def _note(self, span, **values):
        if span is not None:
            self.extra.setdefault(span, {}).update(values)

    # -- per-layer output checks and measured quantities -------------------

    def _after_change_fb_boundaries(self, span, args, result):
        frames = args[1].frames
        bounds = np.asarray(result)
        ok = len(bounds) == len(frames) - 1 and bool(
            np.all(frames[:-1] <= bounds) and np.all(bounds < frames[1:])
        )
        if not ok:
            self.fail(f"fb_boundaries {bounds.tolist()} outside stamps {frames.tolist()}")
        windows = np.diff(frames)
        self._note(span, cand=2 * int(windows.sum()), window=int(windows.max(initial=0)))

    def _after_net_loss_and_grad(self, span, args, result):
        if not math.isfinite(result[0]):
            self.fail(f"non-finite loss {result[0]}")
        self._note(span, frames=len(args[1]))

    def _after_net_forward(self, span, args, result):
        self._note(span, frames=len(args[1]))

    def _after_pipeline_pseudo_labels(self, span, args, result):
        self.pseudo[id(args[1])] = result

    def _after_pipeline_infer(self, span, args, result):
        num_classes = args[0].config.num_classes
        pred = np.asarray(result)
        ok = pred.shape == (len(args[1]),) and (
            len(pred) == 0 or (pred.min() >= 0 and pred.max() < num_classes)
        )
        if not ok:
            self.fail(f"predictions outside [0, {num_classes})")
        self.preds.append(pred)

    def _after_data_load_features(self, span, args, result):
        self._note(span, bytes=int(result.size) * 4)
