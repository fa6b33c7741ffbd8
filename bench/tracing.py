"""Span tracing of netcoh's public callables, installed from outside the package.

``Tracer.install`` wraps each target in ``TARGETS`` and rebinds the wrapper in
every loaded netcoh module whose namespace holds the original object, so a
callable imported by name elsewhere (``hermitian_eig`` into ``coherence``,
``classify`` and ``verify``) is traced at every call site that looks it up at
call time.  Classes are traced through their ``__post_init__``, which is
where construction validates.  A target that no longer exists is listed in
``absent`` and reported as zero; it does not stop the run.

Spans (name, start, end, parent span, op id) are kept in memory and written
out by ``write``.  A span's self time is its duration minus the durations of
its direct children: calls on one thread nest, so children never overlap.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# module -> (label, attribute) pairs; the metric name is "<module>.<label>".
TARGETS = {
    "linalg": [
        ("hermitian_eig", "hermitian_eig"),
        ("DensityMatrix", "DensityMatrix"),
        ("partial_trace", "partial_trace"),
        ("compile_gate_network", "compile_gate_network"),
        ("matrix_from_json", "matrix_from_json"),
    ],
    "coherence": [
        ("net_global_coherence", "net_global_coherence"),
        ("rec", "rec"),
        ("von_neumann_entropy", "von_neumann_entropy"),
        ("dephase", "dephase"),
        ("mutual_information", "mutual_information"),
        ("minimize_discord", "minimize_discord"),
        ("discord_objective", "_discord_fixed_entropies"),
        ("minimize_scalar", "minimize_scalar"),
    ],
    "classify": [
        ("classify", "classify"),
        ("is_cc", "is_cc"),
        ("ppt_separability", "ppt_separability"),
    ],
    "incoherent_ops": [
        ("is_incoherent", "is_incoherent"),
        ("is_strict_incoherent", "is_strict_incoherent"),
        ("embed_classical", "embed_classical"),
        ("extract_classical", "extract_classical"),
        ("apply_channel", "apply_channel"),
        ("KrausChannel", "KrausChannel"),
    ],
    "ndqc2": [
        ("run_protocol_detailed", "run_protocol_detailed"),
        ("simulate_measurements", "simulate_measurements"),
        ("estimate_from_record", "estimate_from_record"),
        ("control_coherence_figures", "control_coherence_figures"),
        ("resolve_unitary", "resolve_unitary"),
        ("dense_protocol_states", "dense_protocol_states"),
    ],
    "rng": [("substream", "substream"), ("haar_unitary", "haar_unitary")],
    "reporting": [("canonical_dumps", "canonical_dumps"), ("digest", "digest")],
    "cli": [("main", "main"), ("load_state", "load_state")],
    "verify": [("run_suite", "run_suite")],
}

# hermitian_eig is also reported per matrix dimension.
EIG_SPAN = "linalg.hermitian_eig"
EIG_DIMS = (1, 2, 4, 8, 16, 32)


def span_names() -> list[str]:
    return [f"{module}.{label}" for module, pairs in TARGETS.items() for label, _ in pairs]


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.absent: list[str] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, tag_of=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            tag = tag_of(args) if tag_of is not None else None
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id, tag)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "netcoh"]
        for module_name, pairs in TARGETS.items():
            home = sys.modules.get(f"netcoh.{module_name}")
            for label, attr in pairs:
                name = f"{module_name}.{label}"
                original = getattr(home, attr, None) if home is not None else None
                if original is None:
                    self.absent.append(name)
                    continue
                if isinstance(original, type):
                    init = getattr(original, "__post_init__", None)
                    if init is None:
                        self.absent.append(name)
                        continue
                    self._rebind(original, "__post_init__", init, self._wrap(name, init))
                    continue
                tag_of = _matrix_dim if name == EIG_SPAN else None
                wrapper = self._wrap(name, original, tag_of)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, key, original, wrapper)

    def _rebind(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- reporting ---------------------------------------------------------

    def totals(self) -> dict[str, list[float]]:
        """name -> [calls, self ns]; hermitian_eig also under "...d<dim>"."""
        child_ns = defaultdict(int)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0])
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _parent, _op, tag = span
            own = end - start - child_ns[index]
            keys = [name] if tag is None else [name, f"{name}.d{tag}"]
            for key in keys:
                out[key][0] += 1
                out[key][1] += own
        return out

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[1] for s in self.spans if s is not None), default=0)
        columns = ["name", "start_ns", "end_ns", "parent", "op", "dim"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "absent": self.absent, "columns": columns}) + "\n")
            for span in self.spans:
                if span is None:
                    continue
                name, start, end, parent, op, tag = span
                dim = "" if tag is None else tag
                fh.write(f"{name}\t{start - origin}\t{end - origin}\t{parent}\t{op}\t{dim}\n")


def _matrix_dim(args) -> int | None:
    shape = getattr(args[0], "shape", None) if args else None
    return int(shape[0]) if shape else None
