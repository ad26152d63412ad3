"""Span tracing of roughpaths from outside the library.

``Tracer`` wraps every public function of the timed modules, on every
module-level binding that refers to it (``from .x import f`` copies the
name into the importing module), plus ``LipFunction.eval``.  Each call
records a span ``[name, start, end, parent, ok, points]`` in memory;
``points`` is the grid size of a ``seminorm``/``distance`` call and 0
otherwise.  Leaving the ``with`` block restores the original bindings.

``layer_metrics`` turns the spans of one op into the per-layer metrics.
``roughpaths.oracle`` is not timed: it supplies reference results only.

Run as a script, this file is the runner of a traced CLI op:

    python3 perfbench/spans.py SPANS_JSON SPAWN_TIME -- solve --config cfg.json

It installs the wrappers, calls ``roughpaths.cli.main`` with the arguments
after ``--``, writes the spans and the start-up time (``SPAWN_TIME`` is the
parent's ``time.perf_counter()`` at spawn) to ``SPANS_JSON`` and exits with
the CLI's exit code.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("tensor_algebra", "rough_path", "controlled_path", "lipschitz",
          "rough_integral", "rde_solver", "cli")

# Grid-pair scans: the span records P, and pairs_scanned sums P(P-1)/2.
_SCANS = {"controlled_path.seminorm", "controlled_path.distance"}


class Tracer:
    """Context manager that records a span per call into the timed layers."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        scan = name in _SCANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, False,
                    args[0].n_points if scan else 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[4] = True
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"roughpaths.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "roughpaths" and not mod_name.startswith("roughpaths."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        lip_cls = importlib.import_module("roughpaths.lipschitz").LipFunction
        self._saved.append((lip_cls, "eval", lip_cls.eval))
        lip_cls.eval = self._wrap("lipschitz.LipFunction.eval", lip_cls.eval)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    def dump(self, path: Path, **extra) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], *s[1:]] for s in self.spans]
        path.write_text(json.dumps({"names": names, "spans": rows, **extra}))


def load_spans(path: Path) -> tuple[list, dict]:
    """Spans and extra fields written by :meth:`Tracer.dump`."""
    payload = json.loads(path.read_text())
    names = payload.pop("names")
    spans = [[names[row[0]], *row[1:]] for row in payload.pop("spans")]
    return spans, payload


def layer_metrics(spans: list) -> dict:
    """Per-layer self times, shares and work counts of one op's spans.

    A span's self time is its duration minus the durations of its direct
    children; calls are single-threaded, so children nest inside parents.
    """
    covered: dict = defaultdict(float)
    for _name, start, end, parent, _ok, _points in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    returned: dict = defaultdict(int)
    pairs = 0
    for i, (name, start, end, _parent, ok, points) in enumerate(spans):
        self_s[name] += end - start - covered[i]
        calls[name] += 1
        returned[name] += bool(ok)
        pairs += points * (points - 1) // 2
    layer_self = {layer: sum(v for k, v in self_s.items() if k.startswith(layer + "."))
                  for layer in LAYERS}
    total = sum(layer_self.values())
    attempts = calls["rde_solver.solve_local"]
    patches = returned["rde_solver.solve_local"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
        metrics[f"{layer}.share"] = layer_self[layer] / total if total else 0.0
    metrics.update({
        "tensor_algebra.tensor_mul.calls": calls["tensor_algebra.tensor_mul"],
        "tensor_algebra.group_inverse.calls": calls["tensor_algebra.group_inverse"],
        "tensor_algebra.group_inverse.self_s": self_s["tensor_algebra.group_inverse"],
        "tensor_algebra.coproduct.self_s": self_s["tensor_algebra.coproduct"],
        "tensor_algebra.is_group_like.self_s": self_s["tensor_algebra.is_group_like"],
        "rough_path.increments_from.calls": calls["rough_path.increments_from"],
        "rough_path.increments_from.self_s": self_s["rough_path.increments_from"],
        "rough_path.increment.calls": calls["rough_path.increment"],
        "rough_path.restrict.calls": calls["rough_path.restrict"],
        "rough_path.lift_path.self_s": self_s["rough_path.lift_path"],
        "controlled_path.seminorm.calls": calls["controlled_path.seminorm"],
        "controlled_path.distance.calls": calls["controlled_path.distance"],
        "controlled_path.remainder_rows.calls": calls["controlled_path.remainder_rows"],
        "controlled_path.pairs_scanned": pairs,
        "lipschitz.compose.calls": calls["lipschitz.compose"],
        "lipschitz.compose.self_s": self_s["lipschitz.compose"],
        "lipschitz.field_evals": calls["lipschitz.LipFunction.eval"],
        "lipschitz.expansion_identity_check.self_s":
            self_s["lipschitz.expansion_identity_check"],
        "rough_integral.integral_controlled.calls": calls["rough_integral.integral_controlled"],
        "rough_integral.compensated_sum.calls": calls["rough_integral.compensated_sum"],
        "rde_solver.attempts": attempts,
        "rde_solver.patches": patches,
        # 0 when the op makes no local attempts (cli-verify).
        "rde_solver.accept_ratio": patches / attempts if attempts else 0.0,
        "rde_solver.picard_steps": calls["rde_solver.picard_step"],
    })
    return metrics


def _run_cli(argv: list) -> int:
    spans_path, spawn_time = Path(argv[0]), float(argv[1])
    cli_args = argv[argv.index("--") + 1:]
    from roughpaths import cli

    tracer = Tracer()
    rc, startup_s = 1, 0.0
    try:
        with tracer:
            startup_s = time.perf_counter() - spawn_time
            try:
                rc = cli.main(cli_args)
            except SystemExit as err:
                rc = err.code if isinstance(err.code, int) else 1
    finally:
        tracer.dump(spans_path, startup_s=startup_s)
    return rc


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(_run_cli(sys.argv[1:]))
