"""Span recording around the calls each ppsim layer makes into the next.

Nothing under src/ changes: a layer is traced by replacing the module
attribute its callers look up (for example ``ppsim.prep.expm_unitary``) with
a wrapper that records one span per call.  Spans are kept in memory and
written out once, at the end of a run.  Past SPAN_LIMIT only operation-level
spans are kept, so every kept span's parent is kept too; the per-layer totals
count every span, kept or not.  A span's self time is its duration
minus the time covered by its child spans; calls are single-threaded and
nested, so that is the duration minus the sum of the children's durations.
"""

import json
import time
from collections import Counter

# layer name -> the (module, attribute) pairs through which callers reach it
LAYERS = {
    "core.generator": [("prep", "generator"), ("dsl", "generator")],
    "core.expm_unitary": [("prep", "expm_unitary"), ("readout", "expm_unitary"), ("dsl", "expm_unitary")],
    "core.evolve": [("prep", "evolve"), ("readout", "evolve"), ("dsl", "evolve"), ("hogg", "evolve")],
    "core.pure_part": [("prep", "pure_part"), ("hogg", "pure_part"), ("cli", "pure_part")],
    "prep.solve_angles": [("prep", "solve_angles")],
    "prep.prepare_pseudo_pure": [("prep", "prepare_pseudo_pure")],
    "readout.reconstruct": [("readout", "reconstruct")],
    "readout.basis_operators": [("readout", "basis_operators")],
    "readout.setting_unitary": [("readout", "setting_unitary")],
    "readout.simulate_measurements": [("readout", "simulate_measurements")],
    "readout.readout_spectrum": [("readout", "readout_spectrum")],
    "readout.render_stick_svg": [("readout", "render_stick_svg")],
    "dsl.parse": [("dsl", "parse")],
    "dsl.compile": [("dsl", "compile")],
    "dsl.run": [("dsl", "run")],
    "hogg.hogg_run": [("hogg", "hogg_run")],
    "cli.main": [("cli", "main")],
    "cli.canonical_json": [("cli", "canonical_json")],
}

SPAN_LIMIT = 100_000  # a traced solve-3spin pass makes about 600k spans

# canonical_json recurses through its own module global; only the outermost
# call is a span, so the original is put back for the duration of that call
OUTERMOST_ONLY = {"cli.canonical_json"}


def _in_box(root) -> bool:
    return all(0.0 <= v < 360.0 for v in root)


def _count_solver_result(counters: Counter, result) -> None:
    counters["prep.starts_tried"] += result.starts_tried
    counters["prep.starts_converged"] += sum(result.converged)
    counters["prep.unique_roots"] += len(result.roots)
    counters["prep.roots_in_box"] += sum(_in_box(r) for r in result.roots)


def _count_records(counters: Counter, result) -> None:
    counters["readout.records"] += len(result.records)


# counters read from a layer's public return value
ON_RESULT = {
    "prep.solve_angles": _count_solver_result,
    "readout.simulate_measurements": _count_records,
}


class Tracer:
    """Records spans while ``active``; a no-op pass-through otherwise."""

    def __init__(self):
        self.active = False
        self.op = 0  # id shared by every span of one benchmark operation
        self.spans = []  # (span id, parent id, op id, name, start, end)
        self.dropped = 0
        self.calls = Counter()
        self.self_s = Counter()
        self.counters = Counter()
        self._stack = []  # open spans: [span id, start, child seconds, kept]
        self._reserved = 0
        self._open = Counter()
        self._next_id = 0
        self._patched = []

    def _wrap(self, name, fn, module, attr):
        on_result = ON_RESULT.get(name)
        outermost = name in OUTERMOST_ONLY

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if name == "core.expm_unitary" and self._open["prep.solve_angles"]:
                self.counters["prep.residual_evals"] += 1
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            keep = parent is None or (parent[3] and self._reserved < SPAN_LIMIT)
            self._reserved += keep
            frame = [self._next_id, 0.0, 0.0, keep]
            self._stack.append(frame)
            self._open[name] += 1
            if outermost:
                setattr(module, attr, fn)
            frame[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if outermost:
                    setattr(module, attr, traced)
                self._stack.pop()
                self._open[name] -= 1
                duration = end - frame[1]
                if parent is not None:
                    parent[2] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                if keep:
                    self.spans.append(
                        (frame[0], parent[0] if parent else None, self.op, name, frame[1], end)
                    )
                else:
                    self.dropped += 1
            if on_result is not None:
                on_result(self.counters, result)
            return result

        return traced

    def install(self, ppsim_modules: dict) -> None:
        for name, sites in LAYERS.items():
            for mod_name, attr in sites:
                module = ppsim_modules[mod_name]
                original = getattr(module, attr)
                self._patched.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, module, attr))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kept": len(self.spans), "dropped": self.dropped}) + "\n")
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                     "name": name, "start": start, "end": end}))
                fh.write("\n")
