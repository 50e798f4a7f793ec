"""Per-layer tracing of qir by wrapping the public functions of its modules.

Each public function defined in a qir module is replaced by a wrapper in
every qir namespace that holds it, because modules import each other's
functions by name (``dephase`` is looked up in ``qir.entropies`` and
``qir.relations`` as well as in ``qir.channels``). ``BipartiteState`` is
traced through its validating ``__post_init__``. A wrapper counts calls
and measures inclusive time and self time, i.e. inclusive time minus the
time of the traced calls it made. The rotation count of each
eigendecomposition is read from the ``(rotations, converged)`` value that
``backend.jacobi_eigh`` returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("backend", "linalg", "states", "channels", "entropies", "relations",
          "explore", "serialize", "cli")
RANDOM_CONSTRUCTORS = ("states.haar_random_pure", "states.random_mixed", "states.random_basis")


class Stat:
    __slots__ = ("calls", "incl", "self")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self = 0.0


class Tracer:
    """Installs wrappers on ``install()`` and restores the originals on ``remove()``."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.module_incl: dict[str, float] = defaultdict(float)
        self.rotations = 0
        self._stack: list[float] = []  # time of traced children, one slot per open call
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        layer = key.split(".", 1)[0]
        stat = self.stats[key]
        stack, depth, module_incl = self._stack, self._depth, self.module_incl
        counts_rotations = key == "backend.jacobi_eigh"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            depth[layer] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += dt
                depth[layer] -= 1
                if depth[layer] == 0:
                    module_incl[layer] += dt
                stat.calls += 1
                stat.incl += dt
                stat.self += dt - children
            if counts_rotations:
                self.rotations += result[0]
            return result

        return traced

    def install(self) -> None:
        namespaces = [m for name, m in sys.modules.items()
                      if m is not None and (name == "qir" or name.startswith("qir."))]
        for layer in LAYERS:
            module = importlib.import_module(f"qir.{layer}")
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                traced = self._wrap(f"{layer}.{name}", fn)
                for ns in namespaces:
                    if vars(ns).get(name) is fn:
                        self._undo.append((ns, name, fn))
                        setattr(ns, name, traced)
        state_cls = importlib.import_module("qir.states").BipartiteState
        post_init = state_cls.__post_init__
        self._undo.append((state_cls, "__post_init__", post_init))
        state_cls.__post_init__ = self._wrap("states.BipartiteState", post_init)

    def remove(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def module_self(self, layer: str) -> float:
        return sum(s.self for key, s in self.stats.items() if key.split(".", 1)[0] == layer)

    def metrics(self, rounds: int, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures per round; the two ``*_per_op`` ratios per operation."""
        s = self.stats
        eig = s["backend.jacobi_eigh"]
        per_round = {
            "backend.jacobi_eigh.calls": (eig.calls, "count"),
            "backend.jacobi_eigh.rotations": (self.rotations, "count"),
            "backend.jacobi_eigh.s": (eig.incl, "s"),
            "linalg.herm_eig.self_s": (s["linalg.herm_eig"].self, "s"),
            "states.BipartiteState.calls": (s["states.BipartiteState"].calls, "count"),
            "states.BipartiteState.self_s": (s["states.BipartiteState"].self, "s"),
            "states.random.s": (sum(s[k].incl for k in RANDOM_CONSTRUCTORS), "s"),
            "channels.dephase.calls": (s["channels.dephase"].calls, "count"),
            "channels.dephase.self_s": (s["channels.dephase"].self, "s"),
            "channels.monitor.calls": (s["channels.monitor"].calls, "count"),
            "channels.monitor.self_s": (s["channels.monitor"].self, "s"),
            "entropies.vn_entropy.calls": (s["entropies.vn_entropy"].calls, "count"),
            "entropies.self_s": (self.module_self("entropies"), "s"),
            "relations.entropy_bundle.calls": (s["relations.entropy_bundle"].calls, "count"),
            "relations.self_s": (self.module_self("relations"), "s"),
            "explore.self_s": (self.module_self("explore"), "s"),
            "serialize.s": (self.module_incl["serialize"], "s"),
        }
        out = {}
        for name, (value, unit) in per_round.items():
            if unit == "count":
                if value % rounds:
                    raise ValueError(f"{name} = {value} differs between identical rounds")
                out[name] = (value // rounds, unit)
            else:
                out[name] = (value / rounds, unit)
        out["eigs_per_op"] = (eig.calls / ops, "count")
        out["rotations_per_op"] = (self.rotations / ops, "count")
        return out
