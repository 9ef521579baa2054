"""Outside-in tracer for the ``twoshift`` layers.

``Tracer.install`` replaces every public function of each layer module, and
every other ``twoshift.*`` module name bound to the same object, with a
wrapper that records a span (name, start, end, parent span, op id).  A few
hot methods are wrapped on their classes.  Aggregates (calls, self time,
escaped exceptions, nested-call counts) are kept for every call; raw spans
are kept in memory up to a cap and written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

LAYERS = ("words", "points", "topology", "spaces", "blockcodes",
          "higherblock", "bridge", "cli")

# (module, class, method, span name)
METHODS = (("points", "BiPoint", "window", "points.window"),
           ("points", "BiPoint", "tail_ray", "points.tail_ray"),
           ("points", "Finite", "tail_ray", "points.tail_ray"),
           ("points", "Infinite", "tail_ray", "points.tail_ray"),
           ("higherblock", "EdgeSpace", "blocks", "higherblock.edge_blocks"))

# Calls of the first name counted while any of the other names is active.
NESTED = {
    "witness": ("points.make_infinite",
                ("spaces.word_in_language", "spaces.ray_in_language",
                 "spaces.follower_infinite")),
    "blocks_queries": ("spaces.word_in_language", ("spaces.blocks",)),
    "rays_scanned": ("spaces.ray_in_language", ("spaces.equal_spaces",)),
}

SPAN_FIELDS = ("span", "name", "start_ns", "end_ns", "parent", "op")


class Tracer:
    def __init__(self, span_cap: int = 200_000) -> None:
        self.names = []
        self.layer = []
        self.ids = {}
        self.calls = []
        self.self_ns = []
        self.active = []
        self.errors = {name: 0 for name in LAYERS}
        self.stack = []
        self.spans = array("q")
        self.span_cap = span_cap
        self.seq = 0
        self.op = 0
        self.nested = {key: 0 for key in NESTED}
        self._watch = {}
        self.yielded = 0
        self.originals = {}

    def name_id(self, name: str, layer: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.layer.append(layer)
            self.calls.append(0)
            self.self_ns.append(0)
            self.active.append(0)
        return self.ids[name]

    # -- span bookkeeping -------------------------------------------------

    def enter(self, nid: int) -> None:
        self.seq += 1
        self.calls[nid] += 1
        for key, outers in self._watch.get(nid, ()):
            if any(self.active[o] for o in outers):
                self.nested[key] += 1
        self.active[nid] += 1
        self.stack.append([nid, self.seq, time.perf_counter_ns(), 0])

    def leave(self, nid: int, result, failed: bool) -> None:
        end = time.perf_counter_ns()
        _, sid, start, child = self.stack.pop()
        dur = end - start
        self.self_ns[nid] += dur - child
        self.active[nid] -= 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        if failed and (parent is None
                       or self.layer[parent[0]] != self.layer[nid]):
            layer = self.layer[nid]
            if layer in self.errors:
                self.errors[layer] += 1
        if nid == self._blocks and result is not None:
            self.yielded += len(result)
        if len(self.spans) < 6 * self.span_cap:
            self.spans.extend((sid, nid, start, end,
                               parent[1] if parent is not None else 0,
                               self.op))

    def wrap(self, nid: int, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.leave(nid, None, True)
                raise
            tracer.leave(nid, result, False)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        mods = {name: sys.modules["twoshift." + name] for name in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if not (inspect.isfunction(obj)
                        or isinstance(obj, functools._lru_cache_wrapper)):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = "%s.%s" % (layer, attr)
                self.originals[name] = obj
                wrapped[id(obj)] = (obj, self.wrap(self.name_id(name, layer),
                                                   obj))
        for layer, cls_name, meth, name in METHODS:
            cls = getattr(mods[layer], cls_name)
            setattr(cls, meth, self.wrap(self.name_id(name, layer),
                                         cls.__dict__[meth]))
        for modname, mod in list(sys.modules.items()):
            if modname != "twoshift" and not modname.startswith("twoshift."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        self._blocks = self.name_id("spaces.blocks", "spaces")
        for key, (inner, outers) in NESTED.items():
            rule = (key, tuple(self.name_id(o, o.split(".")[0])
                               for o in outers))
            self._watch.setdefault(self.name_id(inner, inner.split(".")[0]),
                                   []).append(rule)

    # -- results ----------------------------------------------------------

    def count(self, name: str) -> int:
        nid = self.ids.get(name)
        return self.calls[nid] if nid is not None else 0

    def self_s(self, prefix: str) -> float:
        """Self time of one span name, or of a whole layer given as 'layer'."""
        if "." in prefix:
            nid = self.ids.get(prefix)
            return self.self_ns[nid] / 1e9 if nid is not None else 0.0
        return sum(t for t, lay in zip(self.self_ns, self.layer)
                   if lay == prefix) / 1e9

    def dump(self, path: str) -> None:
        spans = self.spans.tolist()
        with open(path, "w") as fh:
            json.dump({"fields": SPAN_FIELDS, "names": self.names,
                       "layers": self.layer, "span_cap": self.span_cap,
                       "spans_total": self.seq,
                       "spans": [spans[i:i + 6]
                                 for i in range(0, len(spans), 6)]}, fh)
