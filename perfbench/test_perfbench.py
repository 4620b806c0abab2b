"""Self-tests of the benchmark: statistics, span arithmetic, the tracer's
rebinding, and that every workload's checker flags a wrong answer.

    python3 -m pytest perfbench
"""

import concurrent.futures
import copy
import os
import subprocess
import sys
import time
import types

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import stats  # noqa: E402
import tracer as T  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402

# ---------------------------------------------------------------------------
# percentiles and the sample-count rule


def test_nearest_rank_percentiles():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(reversed(values), 90) == 90
    assert stats.percentile([7.0], 90) == 7.0
    assert stats.percentile([1, 2, 3], 50) == 2


def test_sample_count_rule():
    assert stats.beyond(90, 100) == 10
    assert stats.beyond(90, 99) == 9
    assert stats.min_samples(90) == 100
    assert stats.min_samples(50) == 20


def test_median():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 3, 2]) == 2.5


# ---------------------------------------------------------------------------
# item timing


def _spin(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_an_item_that_waits_is_charged_its_wall_time():
    tally = worker.Tally(lambda item: time.sleep(0.05), lambda item, ans: None)
    took, _ = tally.one(None)
    assert took >= 0.05 and tally.waited == 1


def test_work_on_another_thread_is_counted():
    # the caller waits for the thread, so the item costs at least its wall time
    def offload(item):
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            pool.submit(_spin, 0.05).result()

    tally = worker.Tally(offload, lambda item, ans: None)
    took, _ = tally.one(None)
    assert took >= 0.05


def test_a_busy_item_is_charged_cpu_time():
    tally = worker.Tally(lambda item: _spin(0.02), lambda item, ans: None)
    took, _ = tally.one(None)
    assert 0.02 <= took < 0.5 and tally.waited == 0


def test_a_live_child_process_is_noticed():
    assert not worker._has_children()
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    assert worker._has_children()
    child.wait()
    assert not worker._has_children()


# ---------------------------------------------------------------------------
# self time


def test_self_times_on_synthetic_spans():
    # A [0,10] holds B [1,4] (which holds C [2,3]) and D [5,9]
    spans = [
        [0, "A", None, 0, 0.0, 10.0],
        [1, "B", 0, 0, 1.0, 4.0],
        [2, "C", 1, 0, 2.0, 3.0],
        [3, "D", 0, 0, 5.0, 9.0],
        [4, "B", None, 1, 11.0, 12.5],
    ]
    got = T.self_times(spans)
    assert got == {"A": 3.0, "B": 3.5, "C": 1.0, "D": 4.0}


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _fake_library(clock):
    """A module whose functions advance a fake clock, and a second module
    that imported two of them by name."""
    lib = types.ModuleType("fakelib")

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 2.0
        lib.leaf()
        lib.leaf()

    def outer():
        clock.now += 0.5
        lib.middle()
        lib.leaf()

    lib.leaf, lib.middle, lib.outer = leaf, middle, outer
    user = types.ModuleType("fakeuser")
    user.outer = outer
    user.leaf = leaf
    return lib, user


def test_tracer_self_time_matches_span_arithmetic():
    clock = _Clock()
    lib, user = _fake_library(clock)
    tr = T.Tracer(clock=clock)
    groups = [T.Group("outer", [(lib, "outer")]), T.Group("middle", [(lib, "middle")]), T.Group("leaf", [(lib, "leaf")])]
    tr.install(groups, [lib, user])
    user.outer()
    tr.uninstall()
    assert {k: v.calls for k, v in tr.stats.items()} == {"outer": 1, "middle": 1, "leaf": 3}
    assert {k: v.self_s for k, v in tr.stats.items()} == {"outer": 0.5, "middle": 2.0, "leaf": 3.0}
    assert T.self_times(tr.spans) == {k: v.self_s for k, v in tr.stats.items()}
    assert tr.stats["outer"].total_s == 5.5
    assert len(tr.spans) == 5


class _TickingClock(_Clock):
    """A clock that costs `tick` per reading, like a wrapper that costs
    one tick inside a call's window and two in all."""

    def __init__(self, tick):
        super().__init__()
        self.tick = tick

    def __call__(self):
        now = self.now
        self.now += self.tick
        return now


def test_calibrated_costs_are_taken_out_of_self_and_total_time():
    clock = _TickingClock(0.25)
    costs = T.calibrate(clock, calls=10, rounds=1)
    assert costs == {True: T.Cost(0.25, 0.5), False: T.Cost(0.25, 0.5)}
    lib, user = _fake_library(clock)
    tr = T.Tracer(clock=clock, costs=costs)
    groups = [
        T.Group("outer", [(lib, "outer")]),
        T.Group("middle", [(lib, "middle")]),
        T.Group("leaf", [(lib, "leaf")], hot=True),
    ]
    tr.install(groups, [lib, user])
    user.outer()
    tr.uninstall()
    assert {k: v.self_s for k, v in tr.stats.items()} == {"outer": 0.5, "middle": 2.0, "leaf": 3.0}
    assert tr.stats["outer"].total_s == 5.5
    assert T.wrapper_seconds(tr) == 5 * 0.5


def test_hot_groups_are_aggregated_not_stored():
    clock = _Clock()
    lib, user = _fake_library(clock)
    tr = T.Tracer(clock=clock)
    groups = [T.Group("outer", [(lib, "outer")]), T.Group("leaf", [(lib, "leaf")], hot=True)]
    tr.install(groups, [lib, user])
    user.outer()
    tr.uninstall()
    assert tr.stats["leaf"].calls == 3
    assert tr.stats["leaf"].self_s == 3.0
    assert tr.stats["outer"].self_s == 2.5  # its own 0.5 plus the untraced middle
    assert [s[1] for s in tr.spans] == ["outer"]


def test_spans_under_a_hot_group_link_to_the_nearest_stored_span():
    clock = _Clock()
    lib, user = _fake_library(clock)
    tr = T.Tracer(clock=clock)
    groups = [
        T.Group("outer", [(lib, "outer")]),
        T.Group("middle", [(lib, "middle")], hot=True),
        T.Group("leaf", [(lib, "leaf")]),
    ]
    tr.install(groups, [lib, user])
    user.outer()
    tr.uninstall()
    assert [(s[1], s[2]) for s in tr.spans] == [("outer", None)] + [("leaf", 0)] * 3
    assert tr.stats["middle"].self_s == 2.0


def test_rebinding_reaches_from_imports_and_is_undone():
    clock = _Clock()
    lib, user = _fake_library(clock)
    original = lib.leaf
    tr = T.Tracer(clock=clock)
    tr.install([T.Group("leaf", [(lib, "leaf")])], [lib, user])
    assert user.leaf is lib.leaf is not original
    user.leaf()
    assert tr.stats["leaf"].calls == 1
    tr.uninstall()
    assert user.leaf is original and lib.leaf is original


def test_tallies_and_raises_are_counted():
    lib = types.ModuleType("fakelib2")

    def work(n):
        if n < 0:
            raise ValueError(n)
        return list(range(n))

    lib.work = work
    tr = T.Tracer()
    tr.install([T.Group("work", [(lib, "work")], tallies={"items": lambda a, r: len(r) if r else 0})], [lib])
    lib.work(3)
    lib.work(4)
    with pytest.raises(ValueError):
        lib.work(-1)
    tr.uninstall()
    assert tr.counters["items"] == 7
    assert tr.stats["work"].calls == 3 and tr.stats["work"].raised == 1


def test_powerlat_groups_wrap_every_target():
    groups = T.powerlat_groups()
    assert all(g.targets for g in groups)
    tr = T.Tracer()
    tr.install(groups, T.powerlat_modules())
    try:
        import powerlat
        from powerlat import cli, ordercomplex

        assert cli.verify_power_lattice is powerlat.verify_power_lattice
        assert hasattr(cli.verify_power_lattice, "__wrapped_by_tracer__")
        assert hasattr(ordercomplex.verify_shelling, "__wrapped_by_tracer__")
    finally:
        tr.uninstall()
    assert not hasattr(powerlat.verify_power_lattice, "__wrapped_by_tracer__")


# ---------------------------------------------------------------------------
# each checker accepts the library's answer and flags a wrong one


def _first(items, pred):
    return next(i for i in items if pred(i))


def test_lattice_checker():
    items = W.lattice_items(1)
    member = _first(items, lambda i: i["expect"] is None and i["spec"]["type"] == "boolean")
    ans = W.lattice_run(member)
    assert W.lattice_check(member, ans) is None
    assert W.lattice_check(member, dict(ans, ok=False, failed=["semimodularity"]))
    near = _first(items, lambda i: i["expect"] == "rank_covers")
    ans = W.lattice_run(near)
    assert W.lattice_check(near, ans) is None
    assert W.lattice_check(near, dict(ans, failed=["semimodularity"]))
    broken = _first(items, lambda i: i["expect"] == "construction")
    assert W.lattice_check(broken, W.lattice_run(broken)) is None
    assert W.lattice_check(broken, {"ok": True, "complete": True, "failed": [], "ops": 1})


def test_chain_checker():
    item = {"graph": [("a", "b", 1), ("b", "c", 1), ("a", "c", 2)]}
    ans = W.chain_run(item)
    assert W.chain_check(item, ans) is None
    assert W.chain_check(item, dict(ans, order=not ans["order"]))
    assert W.chain_check(item, dict(ans, chains=ans["chains"] + 1))
    assert W.chain_check(item, dict(ans, betti=[0, 1]))
    assert W.chain_check(item, dict(ans, order="over budget"))


def test_chain_checker_counts_a_failing_order_as_correct():
    # the minimal counterexample: facets {e1, e3} and {e2, e3}, where the
    # chain through the private atom e2 precedes those through e3
    item = {"graph": [("a", "b", 1), ("a", "b", 1), ("b", "c", 1)]}
    ans = W.chain_run(item)
    assert ans["order"] is False
    assert W.chain_check(item, ans) is None
    assert W.chain_check(item, dict(ans, order=not ans["order"]))


def test_sr_checker():
    items = W.sr_items(1)
    shellable = _first(items, lambda i: i["shellable"])
    ans = W.sr_run(shellable)
    assert W.sr_check(shellable, ans) is None
    assert W.sr_check(shellable, dict(ans, equal=not ans["equal"]))
    assert W.sr_check(shellable, dict(ans, shelled=None))
    wrong = copy.deepcopy(ans)
    wrong["order"] = wrong["order"][1:]
    assert W.sr_check(shellable, wrong)


def test_sr_checker_flags_a_non_shellable_item_answered_shellable():
    items = W.sr_items(1)
    shellable = _first(items, lambda i: i["shellable"])
    rejected = _first(items, lambda i: not i["shellable"])
    ans = W.sr_run(rejected)
    assert ans["shelled"] is None
    assert W.sr_check(rejected, ans) is None
    # a shelling that passes the non-pure condition, and a budget refusal
    # past the search cap, are still wrong verdicts for this item
    shelled = dict(W.sr_run(shellable), equal=ans["equal"], polar_facets=ans["polar_facets"])
    assert W.sr_check(rejected, shelled)
    many = [[[0, 0]]] * (W.NONPURE_SEARCH_CAP + 1)
    assert W.sr_check(rejected, dict(ans, shelled="over budget", lifted_ok=False, polar_facets=many))


def test_cli_checker(tmp_path):
    reqs = W.CliRequests(str(tmp_path / "cli"))
    items = reqs.items(1)
    try:
        for expect in (0, 1, 2):
            item = _first(items, lambda i: i["expect"] == expect)
            ans = W.cli_run(item)
            assert W.cli_check(item, ans) is None
            assert W.cli_check(item, dict(ans, code=(expect + 1) % 3))
        ok = _first(items, lambda i: i["expect"] == 0)
        assert W.cli_check(ok, {"code": 0, "stdout": "not json"})
    finally:
        reqs.close()
