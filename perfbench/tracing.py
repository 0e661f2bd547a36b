"""Spans and counts around calls into each ``risopt`` module.

Used only by the traced run.  ``Tracer.install`` replaces each public
function named in ``TARGETS`` at every module attribute through which the
program reaches it (``risopt.optimizer.duality_beamformer`` as well as
``risopt.beamforming.duality_beamformer``), and ``Tracer.uninstall`` puts the
originals back.  Every wrapped call records a span (name, start, end, parent
span) in memory; counts are taken at the same boundaries.
"""

import json
import sys
import time
from collections import Counter

# (module, attribute, span name); a dotted attribute names a method.
TARGETS = (
    ("risopt.scene", "synthesize_components", "scene.synth"),
    ("risopt.scene", "trace_paths", "scene.trace"),
    ("risopt.coupling", "synthesize_mutual_impedance", "coupling.zll"),
    ("risopt.ris", "load_impedances", "ris.load"),
    ("risopt.ris", "onebit_configuration", "ris.onebit"),
    ("risopt.channel", "assemble_effective_channel", "channel.assemble"),
    ("risopt.channel", "group_channel_derivative", "channel.group_deriv"),
    ("risopt.channel", "channel_derivative", "channel.deriv"),
    ("risopt.channel", "evaluate_gain_map", "channel.gain_map"),
    ("risopt.beamforming", "duality_beamformer", "beamforming.duality"),
    ("risopt.beamforming", "fixed_point_power_balance", "beamforming.balance"),
    ("risopt.beamforming", "downlink_power_recovery", "beamforming.recovery"),
    ("risopt.optimizer", "exhaustive_1bit_search", "optimizer.exhaustive"),
    ("risopt.optimizer", "perturbation_study", "optimizer.perturb"),
    ("risopt.optimizer", "alternating_optimize", "optimizer.alternating"),
    ("risopt.optimizer", "bcd_sweep", "optimizer.sweep"),
    ("risopt.optimizer", "min_sinr_gradient", "optimizer.grad"),
    ("risopt.optimizer", "armijo_coordinate_step", "optimizer.step"),
    ("risopt.optimizer", "OptimizerState.objective_at", "optimizer.trial"),
    ("risopt.optimizer", "rate_histogram", "optimizer.histogram"),
    ("risopt.fileio", "atomic_write_text", "fileio.write"),
    ("risopt.fileio", "write_csv", "fileio.csv"),
    ("risopt.fileio", "save_ris_config", "fileio.save_config"),
    ("risopt.fileio", "load_scene", "fileio.load_scene"),
    ("risopt.cli", "main", "cli.main"),
    ("risopt.cli", "Workspace.__init__", "cli.workspace"),
)

# layers whose self time is reported
SELF_LAYERS = ("scene", "coupling", "ris", "channel", "beamforming", "optimizer", "cli")


def _balance_counts(counts, args, kwargs, result):
    counts["beamforming.balance_iters"] += result.iterations
    counts["beamforming.balance_capped"] += not result.converged


def _write_counts(counts, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    counts["fileio.write_bytes"] += len(text.encode())


def _trace_counts(counts, args, kwargs, result):
    counts["scene.paths_found"] += len(result)


def _step_counts(counts, args, kwargs, result):
    counts["optimizer.steps_accepted"] += result is not None


ON_RESULT = {
    "beamforming.balance": _balance_counts,
    "fileio.write": _write_counts,
    "scene.trace": _trace_counts,
    "optimizer.step": _step_counts,
}


class Tracer:
    """In-memory span recorder; single-threaded, like the program it wraps."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        on_result = ON_RESULT.get(name)

        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.error.{type(exc).__name__}"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "risopt"]
        for module_name, attr, name in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                targets = [owner]
            else:
                targets = modules
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for target in targets:
                if target.__dict__.get(attr) is original:
                    setattr(target, attr, wrapper)
                    self._restore.append((target, attr, original))

    def uninstall(self):
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def write(self, path):
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)

    def metrics(self):
        """Per-layer metrics: calls, busy seconds, self seconds and counts."""
        calls = Counter()
        busy = Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent >= 0:
                child_time[parent] += end - start
        self_time = Counter()
        for (name, start, end, _), covered in zip(self.spans, child_time):
            self_time[name.split(".")[0]] += end - start - covered
        count = self.counts.__getitem__  # a Counter reads 0 for a missing key
        grads = calls["optimizer.grad"]
        m = {
            "scene.synth_calls": calls["scene.synth"],
            "scene.synth_s": busy["scene.synth"],
            "scene.trace_calls": calls["scene.trace"],
            "scene.trace_s": busy["scene.trace"],
            "scene.paths_found": count("scene.paths_found"),
            "coupling.zll_calls": calls["coupling.zll"],
            "coupling.zll_s": busy["coupling.zll"],
            "ris.load_calls": calls["ris.load"],
            "ris.load_s": busy["ris.load"],
            "channel.assemble_calls": calls["channel.assemble"],
            "channel.assemble_s": busy["channel.assemble"],
            "channel.deriv_calls": calls["channel.deriv"],
            "channel.deriv_s": busy["channel.deriv"],
            "beamforming.duality_calls": calls["beamforming.duality"],
            "beamforming.duality_s": busy["beamforming.duality"],
            "beamforming.balance_s": busy["beamforming.balance"],
            "beamforming.balance_iters": count("beamforming.balance_iters"),
            "beamforming.balance_capped": count("beamforming.balance_capped"),
            "beamforming.recovery_s": busy["beamforming.recovery"],
            "beamforming.recovery_errors": count("beamforming.recovery.error.DualityError"),
            "optimizer.exhaustive_s": busy["optimizer.exhaustive"],
            "optimizer.perturb_s": busy["optimizer.perturb"],
            "optimizer.sweep_calls": calls["optimizer.sweep"],
            "optimizer.sweep_s": busy["optimizer.sweep"],
            "optimizer.grad_calls": grads,
            "optimizer.grad_s": busy["optimizer.grad"],
            "optimizer.trial_calls": calls["optimizer.trial"],
            "optimizer.trial_s": busy["optimizer.trial"],
            "optimizer.steps_accepted": count("optimizer.steps_accepted"),
            "optimizer.accept_ratio": count("optimizer.steps_accepted") / grads if grads else 0.0,
            "fileio.write_calls": calls["fileio.write"],
            "fileio.write_bytes": count("fileio.write_bytes"),
            "fileio.write_s": busy["fileio.write"],
            "cli.workspace_s": busy["cli.workspace"],
        }
        for layer in SELF_LAYERS:
            m[f"{layer}.self_s"] = self_time[layer]
        return m
