"""Per-layer metrics from the spans of a traced run.

A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap. Spans of the
measured phase are assigned to the phase (warmup epoch, post-warmup epoch,
evaluation pass, or other) that holds their start.
"""

import json
import statistics
from pathlib import Path

from reference import slowdown

MB = float(1 << 20)

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

PHASES = ("setup", "warmup", "pseudo", "eval", "other")


def _intervals(worker):
    out = []
    for record in worker["rounds"]:
        out += [(e["start"], e["end"], e["phase"]) for e in record.get("epochs", [])]
        out += [(e["start"], e["end"], "eval") for e in record.get("eval", [])]
    return out


def _measured_seconds(worker):
    """Mean CPU time per round of training plus evaluation passes, at reference speed."""
    totals = [
        r["train"]["cpu"] + sum(e["cpu"] for e in r.get("eval", []))
        for r in worker["rounds"] if "train" in r
    ]
    return statistics.mean(totals) / slowdown(worker["references"]) if totals else 0.0


class _Layer:
    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.by_phase = dict.fromkeys(PHASES, 0.0)
        self.calls_by_phase = dict.fromkeys(PHASES, 0)


def _aggregate(spans, phase_of):
    children = {}
    for _id, parent, _name, start, end in spans:
        children[parent] = children.get(parent, 0.0) + (end - start)
    layers = {}
    for span_id, _parent, name, start, end in spans:
        layer = layers.setdefault(name, _Layer())
        own = (end - start) - children.get(span_id, 0.0)
        phase = phase_of(start)
        layer.calls += 1
        layer.total += end - start
        layer.self_time += own
        layer.by_phase[phase] += own
        layer.calls_by_phase[phase] += 1
    return layers


def per_layer(traced, untraced, setup_probe, setup_times):
    """(metrics as {name: {value, unit}}, table rows) for one traced run."""
    intervals = _intervals(traced)

    def phase_of(t):
        for start, end, phase in intervals:
            if start <= t < end:
                return phase
        return "other"

    layers = _aggregate([tuple(s) for s in traced["spans"]], phase_of)
    layers_setup = _aggregate(setup_probe.spans, lambda _t: "setup")
    for name, layer in layers_setup.items():
        into = layers.setdefault(name, _Layer())
        into.calls += layer.calls
        into.total += layer.total
        into.self_time += layer.self_time
        into.by_phase["setup"] += layer.self_time
        into.calls_by_phase["setup"] += layer.calls

    extras = {}
    for span_id, _p, name, *_ in traced["spans"]:
        extras.setdefault(name, []).append(traced["extra"].get(str(span_id), {}))

    def layer(name):
        return layers.get(name, _Layer())

    def extra(name, key):
        return [e[key] for e in extras.get(name, []) if key in e]

    def per_call(name):
        return layer(name).total / max(1, layer(name).calls)

    fwd_frames = sum(extra("net.forward", "frames"))
    lag_frames = sum(extra("net.loss_and_grad", "frames"))
    lag = layer("net.loss_and_grad")
    train_forwards = sum(layer("net.forward").calls_by_phase[p] for p in ("warmup", "pseudo"))
    load_bytes = sum(extra("data.load_features", "bytes"))
    rounds = [r for r in traced["rounds"] if "train" in r]
    segments = [e["pred_segments"] for r in rounds for e in r.get("eval", [])]
    repeats = max(1, len(setup_times))
    untraced_s = _measured_seconds(untraced)
    values = {
        "change.fb_calls": layer("change.fb_boundaries").calls,
        "change.fb_s": layer("change.fb_boundaries").self_time,
        "change.cand_frames": sum(extra("change.fb_boundaries", "cand")),
        "change.window_frames_max": max(extra("change.fb_boundaries", "window"), default=0),
        "change.peak_mb": max(extra("change.fb_boundaries", "peak"), default=0) / MB,
        "change.labels_s": layer("change.labels_from_boundaries").self_time,
        "net.forward_calls": layer("net.forward").calls,
        "net.forward_s": layer("net.forward").self_time,
        "net.forward_us_per_frame": 1e6 * layer("net.forward").self_time / max(1, fwd_frames),
        "net.loss_and_grad_calls": lag.calls,
        "net.loss_and_grad_self_s": lag.self_time,
        "net.loss_and_grad_us_per_frame": 1e6 * lag.self_time / max(1, lag_frames),
        "net.forwards_per_step": (train_forwards + lag.calls) / max(1, lag.calls),
        "net.adam_step_ms": 1e3 * per_call("net.adam_step"),
        "net.peak_mb": max(extra("net.loss_and_grad", "peak"), default=0) / MB,
        "net.save_model_s": per_call("net.save_model"),
        "net.load_model_s": per_call("net.load_model"),
        "net.checkpoint_mb": (rounds[0]["checkpoint_bytes"] / MB) if rounds else 0.0,
        "loss.total_calls": layer("loss.total_loss_grad").calls,
        "loss.cls_s": layer("loss.cls_loss_grad").self_time,
        "loss.tmse_s": layer("loss.tmse_loss_grad").self_time,
        "loss.conf_s": layer("loss.conf_loss_grad").self_time,
        "loss.total_self_s": layer("loss.total_loss_grad").self_time,
        "pipeline.pseudo_labels_self_s": layer("pipeline.pseudo_labels").self_time,
        "pipeline.train_self_s": layer("pipeline.train").self_time,
        "pipeline.infer_self_s": layer("pipeline.infer").self_time,
        "pipeline.evaluate_self_s": layer("pipeline.evaluate").self_time,
        "metrics.report_s": layer("metrics.report").total,
        "metrics.edit_s": layer("metrics.edit_score").total,
        "metrics.f1_s": layer("metrics.f1_counts").total,
        "metrics.pred_segments": statistics.mean(segments) if segments else 0.0,
        "data.generate_s": layer("data.generate_synthetic").total / repeats,
        "data.write_corpus_s": layer("data.write_corpus").total / repeats,
        "data.load_corpus_s": layer("data.load_corpus").self_time,
        "data.load_features_mb_per_s": (load_bytes / MB) / max(1e-9, layer("data.load_features").total),
        "trace.overhead_pct": 100.0 * (_measured_seconds(traced) / untraced_s - 1.0)
        if untraced_s else 0.0,
    }
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in UNITS.items()}

    walls = dict.fromkeys(PHASES, 0.0)
    walls["setup"] = sum(setup_times)
    for start, end, phase in intervals:
        walls[phase] += end - start
    table = {
        "phase_wall_s": walls,
        "layers": {
            name: {
                "calls": lay.calls,
                "total_s": lay.total,
                "self_s": lay.self_time,
                "self_s_by_phase": lay.by_phase,
                "calls_by_phase": lay.calls_by_phase,
            }
            for name, lay in sorted(layers.items())
        },
    }
    return metrics, table


def print_layers(record):
    table = record["layer_table"]
    walls = table["phase_wall_s"]
    shown = [p for p in PHASES if walls[p] > 0]
    print()
    print("# per-layer self time; each phase column is the share of that phase's wall time")
    print("# phase wall s: " + ", ".join(f"{p} {walls[p]:.3f}" for p in shown))
    header = f"{'layer':<32} {'calls':>7} {'total_s':>9} {'self_s':>9}"
    print(header + "".join(f" {p:>8}" for p in shown))
    for name, lay in table["layers"].items():
        shares = "".join(
            f" {100.0 * lay['self_s_by_phase'][p] / walls[p]:>7.1f}%" for p in shown
        )
        print(f"{name:<32} {lay['calls']:>7} {lay['total_s']:>9.4f} {lay['self_s']:>9.4f}{shares}")
    for phase in shown:
        top = max(table["layers"].items(), key=lambda kv: kv[1]["self_s_by_phase"][phase])
        print(f"# largest self time in {phase}: {top[0]} ({top[1]['self_s_by_phase'][phase]:.3f} s)")
    idle = ("change.fb_boundaries", "loss.total_loss_grad", "net.adam_step")
    calls = {n: table["layers"].get(n, {}).get("calls_by_phase", {}).get("eval", 0) for n in idle}
    print(f"# calls during evaluation passes: {calls}")
    print()
    print(f"{'per-layer metric':<32} {'value':>14}  unit")
    for name, item in record["per_layer"].items():
        print(f"{name:<32} {item['value']:>14.4f}  {item['unit']}")
    print()
    print("# tracing overhead: traced minus untraced end-to-end values")
    traced = record["traced_end_to_end"]
    for name, plain in record["end_to_end"].items():
        diff = traced[name] - plain
        share = f"{100.0 * diff / plain:+.1f}%" if plain else "n/a"
        print(f"{name:<22} untraced {plain:>12.4f} traced {traced[name]:>12.4f} ({share})")
