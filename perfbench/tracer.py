"""Spans around the public functions of each powerlat module.

The tracer wraps functions and methods from the benchmark's side; the
library itself is not edited.  A wrapped name is rebound in every module
that imported it with ``from .x import y``, since those modules hold their
own reference and would otherwise bypass the wrapper.

Every call opens a frame on a stack.  When a frame closes its duration is
added to its parent's child time, and its self time is the duration minus
that child time.  Spans of ordinary groups are kept in memory with their
parent link and the item they belong to, and written out at the end.
Groups marked hot (join, meet, chain comparisons: millions of calls per
run) are aggregated only, so that tracing them does not fill memory.

A wrapper costs time of its own, and on a hot group that cost is as large
as the kernel it wraps.  `calibrate` measures it on an empty function:
the part that falls inside a call's own window (`inside`) and the whole
cost a caller sees (`whole`).  A tracer given those costs subtracts
`inside` from each call's duration and `whole` from its caller's, for
every wrapped call, so that `self_s` and `total_s` estimate the library's
own time.  Stored spans keep the raw clock readings.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Group:
    """One per-layer name and the callables that report into it."""

    name: str
    targets: list  # (owner, attribute): a module or a class
    hot: bool = False
    # optional tallies: counter name -> fn(args, result) -> number
    tallies: dict = field(default_factory=dict)


@dataclass
class Stat:
    hot: bool = False
    calls: int = 0
    raised: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass(frozen=True)
class Cost:
    """Per-call wrapper cost: inside the call's window, and in all."""

    inside: float = 0.0
    whole: float = 0.0


class _Frame:
    __slots__ = ("start", "child", "wrapping", "span", "anchor")

    def __init__(self, start, span, anchor):
        self.start = start
        self.child = 0.0  # time of the direct child calls, wrappers included
        self.wrapping = 0.0  # wrapper cost of every wrapped call beneath
        self.span = span  # the stored span, None for a hot group
        self.anchor = anchor  # nearest stored span, this one or an ancestor's


class Tracer:
    def __init__(self, clock=time.perf_counter, costs=None):
        """`costs` maps hot (True) and ordinary (False) groups to the Cost
        of their wrapper; without it nothing is subtracted."""
        self.clock = clock
        self.costs = costs or {True: Cost(), False: Cost()}
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = {}
        self.spans: list = []  # [id, group, parent id, item, start, end]
        self.item = None
        self._stack: list[_Frame] = []
        self._active: dict[str, int] = {}
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, group: Group, fn):
        stat = self.stats.setdefault(group.name, Stat(hot=group.hot))
        name = group.name
        hot = group.hot
        tallies = tuple(group.tallies.items())
        stack = self._stack
        active = self._active
        spans = self.spans
        clock = self.clock
        inside, whole = self.costs[hot].inside, self.costs[hot].whole

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            anchor = stack[-1].anchor if stack else None
            span = None
            if not hot:
                span = [len(spans), name, anchor[0] if anchor else None, self.item, 0.0, 0.0]
                spans.append(span)
                anchor = span
            depth = active.get(name, 0)
            active[name] = depth + 1
            frame = _Frame(clock(), span, anchor)
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                stat.raised += 1
                raise
            finally:
                end = clock()
                stack.pop()
                active[name] = depth
                dur = end - frame.start - inside
                stat.calls += 1
                stat.self_s += dur - frame.child
                if depth == 0:
                    stat.total_s += dur - frame.wrapping
                if stack:
                    parent = stack[-1]
                    parent.child += dur + whole
                    parent.wrapping += frame.wrapping + whole
                if span is not None:
                    span[4] = frame.start
                    span[5] = end
                for counter, tally in tallies:
                    self.counters[counter] = self.counters.get(counter, 0) + tally(args, result)

        traced.__wrapped_by_tracer__ = fn
        return traced

    def install(self, groups, modules):
        """Wrap every target and rebind it wherever `modules` hold it."""
        for group in groups:
            for owner, attr in group.targets:
                original = owner.__dict__[attr]
                wrapper = self._wrap(group, original)
                self._rebind(owner, attr, original, wrapper)
                if not isinstance(owner, type):
                    for mod in modules:
                        if mod is not owner and mod.__dict__.get(attr) is original:
                            self._rebind(mod, attr, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "group", "parent", "item", "start", "end"],
                    "spans": self.spans,
                    "stats": {k: vars(v) for k, v in self.stats.items()},
                    "counters": self.counters,
                },
                fh,
            )


def calibrate(clock, calls: int = 20000, rounds: int = 5) -> dict:
    """The Cost of the hot and of the ordinary wrapper, each the median of
    `rounds` measurements over `calls` calls of an empty function of three
    arguments, as a method call of two (join, meet, leq) passes.  The
    inside cost includes the empty function's own call."""

    def empty(a, b, c):
        return None

    costs = {}
    for hot in (True, False):
        inside, whole = [], []
        for _ in range(rounds):
            tr = Tracer(clock=clock)
            wrapped = tr._wrap(Group("empty", [], hot=hot), empty)
            loop = range(calls)
            t0 = clock()
            for _ in loop:
                empty(0, 1, 2)
            t1 = clock()
            for _ in loop:
                wrapped(0, 1, 2)
            t2 = clock()
            inside.append(tr.stats["empty"].self_s / calls)
            whole.append(((t2 - t1) - (t1 - t0)) / calls)
        costs[hot] = Cost(statistics.median(inside), max(statistics.median(whole), statistics.median(inside)))
    return costs


def wrapper_seconds(tr: Tracer) -> float:
    """Estimated wrapper cost of every call the tracer recorded."""
    return sum(st.calls * tr.costs[st.hot].whole for st in tr.stats.values())


def self_times(spans) -> dict:
    """Self time per group from stored spans: each span's duration minus
    the part of it that its direct children cover."""
    child: dict = {}
    for sid, _group, parent, _item, start, end in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (end - start)
    out: dict = {}
    for sid, group, _parent, _item, start, end in spans:
        out[group] = out.get(group, 0.0) + (end - start) - child.get(sid, 0.0)
    return out


# ---------------------------------------------------------------------------
# the powerlat layers


def powerlat_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "powerlat"]


def powerlat_groups() -> list:
    """The per-layer groups, by module.  Imported lazily: the package is
    on the path only inside a worker."""
    from powerlat import cli, instances, lattice, matroid, ordercomplex, pcomplex
    from powerlat import stanley_reisner as sr

    lattice_classes = [
        c
        for c in vars(instances).values()
        if isinstance(c, type) and issubclass(c, lattice.PowerLattice) and c.__module__ == instances.__name__
    ]

    def methods(classes, *names):
        return [(c, n) for c in classes for n in names if n in c.__dict__]

    def funcs(mod, *names):
        return [(mod, n) for n in names]

    return [
        Group("instances.join_meet", methods(lattice_classes, "join", "meet", "leq"), hot=True),
        Group(
            "instances.build",
            methods(lattice_classes, "__init__")
            + funcs(instances, "lattice_from_obj")
            + [(instances, n) for n in vars(instances) if n.startswith("build_")],
        ),
        Group(
            "lattice.verify_power_lattice",
            funcs(lattice, "verify_power_lattice"),
            tallies={"lattice.verify_ops": lambda a, r: r.ops if r is not None else 0},
        ),
        Group("pcomplex.PComplex", methods([pcomplex.PComplex], "__init__")),
        Group("pcomplex.faces", methods([pcomplex.PComplex], "faces")),
        Group("pcomplex.verify_shelling", funcs(pcomplex, "verify_shelling")),
        Group("pcomplex.find_shelling", funcs(pcomplex, "find_shelling")),
        Group("matroid.graphic_matroid", funcs(matroid, "graphic_matroid")),
        Group("matroid.axioms", funcs(matroid, "verify_independence_axioms", "verify_basis_axioms")),
        Group("matroid.bases", funcs(matroid, "bases")),
        Group("matroid.matroid_shelling", funcs(matroid, "matroid_shelling")),
        Group(
            "ordercomplex.SimplicialComplex",
            methods([ordercomplex.SimplicialComplex], "__init__", "faces"),
        ),
        Group(
            "ordercomplex.chain_compare",
            funcs(ordercomplex, "compare_shelling_order", "compare_reverse_lex"),
            hot=True,
        ),
        Group(
            "ordercomplex.maximal_chains",
            funcs(ordercomplex, "maximal_chains"),
            tallies={"ordercomplex.chains": lambda a, r: len(r) if r is not None else 0},
        ),
        Group(
            "ordercomplex.verify_pure_simplicial_shelling",
            funcs(ordercomplex, "verify_pure_simplicial_shelling"),
        ),
        Group("ordercomplex.betti", funcs(ordercomplex, "reduced_betti", "reduced_betti_mod2")),
        Group(
            "stanley_reisner.polarized_complex",
            funcs(sr, "polarized_complex"),
            # computed, not measured: the complement construction visits
            # every subset of the polar variables
            tallies={"stanley_reisner.polar_subsets": lambda a, r: 2 ** sum(a[0].box)},
        ),
        Group("stanley_reisner.find_nonpure_shelling", funcs(sr, "find_nonpure_shelling")),
        Group("stanley_reisner.section_ring_check", funcs(sr, "section_ring_check")),
        Group("cli.main", funcs(cli, "main")),
    ]
