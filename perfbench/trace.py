"""Span tracing of the ``hilden`` layers, installed from outside the package.

Every public function of every ``hilden`` module is replaced, at each name
it is bound to, by a wrapper that records one span: (name, start, end,
parent).  Binding sites matter because modules import functions by name
(``braids`` holds its own ``psi_of_braid_word``, ``spheremcg`` its own
``cyclically_reduce``); patching only the defining module would miss those
calls.  Spans stay in memory in flat arrays and are written out once, at the
end of the run.

A span's self time is its duration minus the durations of its direct
children; a layer's self time sums that over the layer's spans, so a layer
calling itself is counted once and a call into another layer is charged to
that layer.  Functions called through a reference captured at import time
(a value in a module-level dict, say) are not seen; their time is charged to
the caller.

Runs are traced at ``--jobs 1``: spans opened in forked pool workers would be
lost with the workers.
"""

from __future__ import annotations

import gzip
import inspect
import math
import time
from array import array
from collections import defaultdict

LAYERS = ("words", "perms", "braids", "spheremcg", "presentations", "homology", "cli")
_OBSERVE = "trace.observe"


def _distinct_nonzero_rows(mat) -> int:
    return len({tuple(row) for row in mat if any(row)})


def _observe_normal_form(c, args, result, exc):
    c["braids.normal_form.letters_in"] += len(args[0].letters)
    if result is not None:
        c["braids.normal_form.factors_out"] += len(result.factors)


def _observe_artin_action(c, args, result, exc):
    if result is not None:
        size = sum(len(w) for w in result.images)
    else:
        c["spheremcg.artin_action.budget_exceeded"] += 1
        size = getattr(exc, "size", 0)
    key = "spheremcg.artin_action.image_letters_max"
    c[key] = max(c[key], size)


def _observe_snf(c, args, result, exc):
    mat = args[0]
    c["homology.smith_normal_form.cells_in"] += len(mat) * (len(mat[0]) if mat else 0)
    c["homology.snf_rows_in"] += len(mat)
    c["homology.snf_useful_rows"] += _distinct_nonzero_rows(mat)


def _observe_image_letters(c, args, result, exc):
    if result is not None:
        c["presentations.image_letters"] += len(result)


def _observe_enumerate(c, args, result, exc):
    if result is not None:
        c["perms.enumerated_candidates"] += math.factorial(result.m)
        c["perms.enumerated_kept"] += result.order


# Counters read from a call's arguments and result, after its span closed.
OBSERVERS = {
    "braids.normal_form": _observe_normal_form,
    "spheremcg.artin_action": _observe_artin_action,
    "homology.smith_normal_form": _observe_snf,
    "presentations.image_letters": _observe_image_letters,
    "perms.enumerate_subgroup": _observe_enumerate,
}


class Tracer:
    """Wraps the public functions of the given modules; ``uninstall`` puts the
    originals back."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _name_index(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, name: str, fn):
        ix = self._name_index(name)
        obs_ix = self._name_index(_OBSERVE) if name in OBSERVERS else -1
        observe = OBSERVERS.get(name)
        stack, name_of, parent, start, end = (self._stack, self.name_of, self.parent,
                                              self.start, self.end)
        counters = self.counters
        now = time.perf_counter_ns

        def record(sid: int, args, result, exc) -> None:
            end[sid] = now()
            stack.pop()
            if observe is not None:
                oid = len(start)
                name_of.append(obs_ix)
                parent.append(parent[sid])
                start.append(now())
                end.append(0)
                observe(counters, args, result, exc)
                end[oid] = now()

        def traced(*args, **kwargs):
            sid = len(start)
            name_of.append(ix)
            parent.append(stack[-1] if stack else -1)
            stack.append(sid)
            end.append(0)
            start.append(now())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record(sid, args, None, exc)
                raise
            record(sid, args, result, None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self, modules) -> int:
        """Wrap every public function defined in ``modules`` wherever one of
        them binds it; returns the number of binding sites patched."""
        defined = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, val in vars(mod).items():
                if (inspect.isfunction(val) and not attr.startswith("_")
                        and val.__module__ == mod.__name__):
                    defined[id(val)] = (f"{layer}.{val.__name__}", val)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in defined.items()}
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and not attr.startswith("__"):
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])
        return len(self._undo)

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._undo):
            setattr(mod, attr, val)
        self._undo.clear()

    def write(self, path) -> None:
        """One span per line: name, start ns, end ns, parent span index."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\n")
            names = self.names
            for sid in range(len(self.start)):
                fh.write(f"{sid}\t{names[self.name_of[sid]]}\t{self.start[sid]}\t"
                         f"{self.end[sid]}\t{self.parent[sid]}\n")

    def summary(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counters."""
        n = len(self.start)
        names = self.names
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        layer_self: defaultdict[str, int] = defaultdict(int)
        fn_self: defaultdict[str, int] = defaultdict(int)
        busy: defaultdict[str, int] = defaultdict(int)  # outermost calls only
        layer_busy: defaultdict[str, int] = defaultdict(int)
        calls: defaultdict[str, int] = defaultdict(int)
        for i in range(n):
            name = names[self.name_of[i]]
            layer = name.split(".", 1)[0]
            own = dur[i] - child[i]
            layer_self[layer] += own
            fn_self[name] += own
            calls[name] += 1
            p, nested, in_layer = self.parent[i], False, False
            while p >= 0:
                pname = names[self.name_of[p]]
                nested = nested or pname == name
                in_layer = in_layer or pname.split(".", 1)[0] == layer
                p = self.parent[p]
            if not nested:
                busy[name] += dur[i]
            if not in_layer:
                layer_busy[layer] += dur[i]

        def s(ns: float) -> float:
            return ns / 1e9

        c = self.counters
        letters = c["braids.normal_form.letters_in"]
        out = {f"{layer}.self_s": s(layer_self[layer]) for layer in LAYERS}
        out.update({
            "presentations.build_s": s(busy["presentations.build_presentation"]),
            "presentations.verify.self_s": s(fn_self["presentations.verify"]
                                             + fn_self["presentations.verify_lemma_identities"]),
            "presentations.image_letters": c["presentations.image_letters"],
            "braids.normal_form.calls": calls["braids.normal_form"],
            "braids.normal_form.busy_s": s(busy["braids.normal_form"]),
            "braids.normal_form.letters_in": letters,
            "braids.normal_form.factors_out": c["braids.normal_form.factors_out"],
            "braids.normal_form.us_per_letter":
                busy["braids.normal_form"] / 1e3 / letters if letters else 0.0,
            "spheremcg.artin_action.calls": calls["spheremcg.artin_action"],
            "spheremcg.artin_action.busy_s": s(busy["spheremcg.artin_action"]),
            "spheremcg.artin_action.image_letters_max": c["spheremcg.artin_action.image_letters_max"],
            "spheremcg.artin_action.budget_exceeded": c["spheremcg.artin_action.budget_exceeded"],
            "spheremcg.is_inner.busy_s": s(busy["spheremcg.is_inner"]),
            "homology.smith_normal_form.calls": calls["homology.smith_normal_form"],
            "homology.smith_normal_form.busy_s": s(busy["homology.smith_normal_form"]),
            "homology.smith_normal_form.cells_in": c["homology.smith_normal_form.cells_in"],
            "homology.useful_row_ratio": (c["homology.snf_useful_rows"] / c["homology.snf_rows_in"]
                                          if c["homology.snf_rows_in"] else 0.0),
            "homology.relator_matrix.busy_s": s(busy["homology.relator_matrix"]),
            "perms.enumerate_subgroup.busy_s": s(busy["perms.enumerate_subgroup"]),
            "perms.enumerate_subgroup.kept_ratio": (
                c["perms.enumerated_kept"] / c["perms.enumerated_candidates"]
                if c["perms.enumerated_candidates"] else 0.0),
            "perms.psi.calls": calls["perms.psi_of_braid_word"],
            "perms.psi.busy_s": s(busy["perms.psi_of_braid_word"]),
            "perms.generated_subgroup.busy_s": s(busy["perms.generated_subgroup"]),
            "words.busy_s": s(layer_busy["words"]),
            "trace.observe_s": s(fn_self[_OBSERVE]),
            "trace.spans": n,
        })
        return out
