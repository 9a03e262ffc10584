"""Span tracing of the library's layers, installed from outside.

Every public function of the layer modules is replaced by a wrapper in
every torusfill namespace that binds it (the modules import each
other's functions by name), `HClass.dot` and `Ambient.gram` are wrapped
on their classes, and the generator `iter_blowup_paths` gets a span per
resume plus a count of chains yielded.  A span records its name, start,
end, parent span and op id; spans are kept in compact arrays and
reduced when the run ends.  A span's self time is its duration minus
the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("cli", "fillings", "divisor", "blowup", "lattice", "sl2z")
METHODS = (("divisor", "HClass", "dot"), ("divisor", "Ambient", "gram"))


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.op_id = -1
        self.chains = 0
        self.census_classes = 0
        self.snf_max_bits = 0
        self.snf_max_dim = 0
        self._patches = self._build_patches()

    # -- recording -----------------------------------------------------------

    def _open(self, sid):
        i = len(self.start)
        self.name_id.append(sid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i):
        self.end[i] = perf_counter()
        self.stack.pop()

    def _observe_snf(self, mat, result):
        _, u, v = result
        self.snf_max_dim = max(self.snf_max_dim, len(u), len(v))
        bits = max((abs(x).bit_length() for m in (u, v) for row in m for x in row), default=0)
        self.snf_max_bits = max(self.snf_max_bits, bits)

    def _observe_census(self, d, result):
        self.census_classes += len(result.configurations)

    def _wrap(self, name, fn):
        sid = len(self.names)
        self.names.append(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(sid, fn)
        open_, close = self._open, self._close
        observe = {
            "lattice.smith_normal_form": self._observe_snf,
            "fillings.hyperbolic_filling_census": self._observe_census,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = open_(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if observe is not None:
                observe(args[0], result)
            return result

        return wrapper

    def _wrap_generator(self, sid, fn):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                i = open_(sid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    close(i)
                self.chains += 1
                yield item

        return wrapper

    # -- installation --------------------------------------------------------

    def _build_patches(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "torusfill" or name.startswith("torusfill.")]
        patches = []
        for layer in LAYERS:
            mod = sys.modules["torusfill." + layer]
            for attr, fn in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap("%s.%s" % (layer, attr), fn)
                for owner in modules:
                    for bound, value in list(vars(owner).items()):
                        if value is fn:
                            patches.append((owner, bound, fn, wrapper))
        for layer, cls_name, attr in METHODS:
            cls = getattr(sys.modules["torusfill." + layer], cls_name)
            fn = cls.__dict__[attr]
            patches.append((cls, attr, fn, self._wrap("%s.%s.%s" % (layer, cls_name, attr), fn)))
        return patches

    def install(self, op_id):
        self.op_id = op_id
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, fn, _ in self._patches:
            setattr(owner, attr, fn)

    # -- reduction -----------------------------------------------------------

    def spans(self):
        return len(self.start)

    def table(self):
        """{span name: (calls, inclusive seconds, self seconds)}."""
        k = len(self.names)
        calls, total, own = [0] * k, [0.0] * k, [0.0] * k
        name_id, parent = self.name_id, self.parent
        for i, (s, e) in enumerate(zip(self.start, self.end)):
            dur = e - s
            sid = name_id[i]
            calls[sid] += 1
            total[sid] += dur
            own[sid] += dur
            p = parent[i]
            if p >= 0:
                own[name_id[p]] -= dur
        return {name: (calls[i], total[i], own[i]) for i, name in enumerate(self.names)}
