import hashlib
import json
import multiprocessing
import os

import pytest

from clutterkit import suites
from clutterkit.clutter import SizeGuardError


def test_froberg_suite_small():
    report = suites.froberg_suite(4)
    assert report["ok"]
    assert report["chordal_count"] == 61
    assert report["closure_sets_equal"]
    assert report["greedy_failures"] == 0


def test_froberg_suite_parallel_matches_serial():
    serial = suites.froberg_suite(4)
    parallel = suites.froberg_suite(4, jobs=2)
    assert serial == parallel


class RecordingPool:
    """Stands in for multiprocessing.Pool: records the size asked for, maps in process."""

    sizes: list[int] = []

    def __init__(self, size):
        RecordingPool.sizes.append(size)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, work, tasks):
        return [work(task) for task in tasks]


@pytest.mark.parametrize("cpus, jobs, pool_size", [(2, 64, 2), (4, 3, 3), (1, 8, None)])
def test_jobs_are_clamped_to_the_cpu_count(monkeypatch, cpus, jobs, pool_size):
    serial = (suites.froberg_suite(4), suites.chromatic_suite(5))
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    RecordingPool.sizes = []
    assert (suites.froberg_suite(4, jobs=jobs), suites.chromatic_suite(5, jobs=jobs)) == serial
    expected = [] if pool_size is None else [pool_size] * 2  # one pool per sweep
    assert RecordingPool.sizes == expected


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_are_rejected(jobs):
    with pytest.raises(ValueError, match="jobs"):
        suites.chromatic_suite(4, jobs=jobs)
    with pytest.raises(ValueError, match="jobs"):
        suites.froberg_suite(3, jobs=jobs)


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_are_checked_before_any_work(monkeypatch, jobs):
    def no_work(*args, **kwargs):
        raise AssertionError("a suite started work before checking jobs")

    monkeypatch.setattr(suites, "erasure_reachable_set", no_work)
    monkeypatch.setattr(suites, "enumerate_chordal_graphs", no_work)
    with pytest.raises(ValueError, match="jobs"):
        suites.froberg_suite(6, jobs=jobs)
    with pytest.raises(ValueError, match="jobs"):
        suites.chromatic_suite(7, jobs=jobs)


def test_connectivity_suite_small():
    report = suites.connectivity_suite(4)
    assert report["ok"] and report["checked"] == 2 + 8 + 64


def test_clutter_erasure_suite_tiny():
    report = suites.clutter_erasure_suite(4, 3)
    assert report["ok"]
    assert report["closure_sets_equal"]


def test_free_face_suite_small():
    report = suites.free_face_suite(4, 2)
    assert report["ok"] and report["circuits_checked"] > 0
    report = suites.free_face_suite(4, 3)
    assert report["ok"]


def test_chromatic_suite_small():
    report = suites.chromatic_suite(5)
    assert report["ok"] and report["checked"] == 2 + 8 + 61 + 822


def test_chromatic_suite_parallel_matches_serial():
    assert suites.chromatic_suite(5) == suites.chromatic_suite(5, jobs=2)


def test_boundary_suite_small():
    report = suites.boundary_suite(5)
    assert report["ok"] and report["checked"] == 2 + 8 + 61 + 822


def test_mst_suite_deterministic():
    a = suites.mst_suite(40, 7, seed=11)
    b = suites.mst_suite(40, 7, seed=11)
    assert a == b and a["ok"]


def test_skeleton_suite():
    report = suites.skeleton_extendability_suite(5)
    assert report["ok"] and report["partial_shellings_checked"] == 822


def test_probe_reports_are_observations():
    simon = suites.probe_simon(4, 2)
    assert simon["counterexamples"] == [] and simon["states_checked"] == 61
    ridge = suites.probe_ridge_chordal(4, 2)
    assert ridge["counterexamples"] == []


def test_multiset_invariance_suite(monkeypatch):
    report = suites.multiset_invariance_suite(4, 2)
    assert report["ok"] and report["targets"] == 61
    for n, d, targets in [(5, 3, 969), (6, 2, 18_154)]:
        report = suites.multiset_invariance_suite(n, d)
        assert report["ok"] and report["targets"] == targets

    # (7, 3) has 35 moves: the closure guard refuses before any state is expanded
    def unexpanded(*args):
        def allowed(state):
            raise AssertionError("a state was expanded before the size guard")

        return allowed

    monkeypatch.setattr(suites, "_exposure_moves", unexpanded)
    with pytest.raises(SizeGuardError, match="size guard"):
        suites.multiset_invariance_suite(7, 3)


def test_multiset_failure_names_its_target_once(monkeypatch):
    # In K4, removing 13 and then 12 exposes 12 in the clique 124 (k = 1).
    # Reported as the clique 12 (k = 2), that edge disagrees with the one
    # that removes 12 first, and with nothing else: the first parent's
    # multiset is the one passed on.
    moves = suites._exposure_moves

    def skewed(*args):
        allowed = moves(*args)

        def wrapped(state):
            ok = allowed(state)
            if state != 0b10:
                return ok
            return lambda i: ok(i) & ~0b1000 if i == 0 else ok(i)

        return wrapped

    monkeypatch.setattr(suites, "_exposure_moves", skewed)
    report = suites.multiset_invariance_suite(4, 2)
    assert not report["ok"] and report["targets"] == 61
    assert report["failures"] == [[0b111111 ^ 0b11, [[0, 1], [0, 2]]]]


# SHA-256 of each report's canonical JSON (sorted keys, no spaces), recorded
# before the suites shared one sweep engine.
REPORT_DIGESTS = {
    ("froberg_suite", (5,)): "c2a38164543b9466bfe89406a3367b578dcf520871fdc75455fd170f46c77f27",
    ("connectivity_suite", (5,)): "f28996a73a3c4cd1de7e50994a9ed5f47c19ea2a96fffdbc2e23b4c2cfd9dfd5",
    ("clutter_erasure_suite", (5, 3)): "42d003dd77403db6a43872ffa3f2ae0a9e0cf29df6758ccdd6841ad396a569c7",
    ("free_face_suite", (5, 3)): "59773a38f0123730666dca2db28fceef738d2546fa350d2897bc718d6d43aa66",
    ("chromatic_suite", (6,)): "2c649b5bff7306338de553ac19198c9a0e33ffd1acc8d2603c1512292705a768",
    ("boundary_suite", (6,)): "b2b97173ee516790a189bf993641ad604bd1675b30fc542a87c855e92718dde4",
    ("multiset_invariance_suite", (4, 2)): "6fcae41341758806b78e891e0bd13c4dffa9a2bbb8fcf2115d508cb38ba084e3",
}


# The pass of ``multiset_invariance_suite`` runs in this process and takes no ``jobs``.
SERIAL_ONLY = {"multiset_invariance_suite"}
PINNED_RUNS = [
    (name, args, jobs) for jobs in (1, 2) for name, args in REPORT_DIGESTS if jobs == 1 or name not in SERIAL_ONLY
]


@pytest.mark.parametrize("name, args, jobs", PINNED_RUNS, ids=lambda value: str(value))
def test_whole_reports_are_pinned(name, args, jobs):
    suite = getattr(suites, name)
    report = suite(*args) if name in SERIAL_ONLY else suite(*args, jobs=jobs)
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(canonical).hexdigest() == REPORT_DIGESTS[name, args]


SMALL_SWEEPS = [
    ("connectivity_suite", (4,)),
    ("clutter_erasure_suite", (4, 3)),
    ("free_face_suite", (4, 3)),
    ("boundary_suite", (5,)),
]


@pytest.mark.parametrize("name, args", SMALL_SWEEPS, ids=lambda value: str(value))
def test_parallel_matches_serial(name, args):
    suite = getattr(suites, name)
    assert suite(*args) == suite(*args, jobs=2)


@pytest.mark.parametrize(
    "name, args", [key for key in REPORT_DIGESTS if key[0] not in SERIAL_ONLY], ids=lambda value: str(value)
)
def test_every_sweep_checks_jobs_before_any_work(monkeypatch, name, args):
    def no_work(*args, **kwargs):
        raise AssertionError("a suite started work before checking jobs")

    for kernel in ("_sweep", "all_d_subsets", "erasure_reachable_set", "enumerate_chordal_graphs"):
        monkeypatch.setattr(suites, kernel, no_work)
    with pytest.raises(ValueError, match="jobs"):
        getattr(suites, name)(*args, jobs=0)


@pytest.mark.parametrize("name", ["chromatic_suite", "boundary_suite"])
def test_chordal_sweeps_check_the_closure_guard_before_any_work(monkeypatch, name):
    def no_work(*args, **kwargs):
        raise AssertionError("a suite enumerated graphs before its size guard")

    monkeypatch.setattr(suites, "enumerate_chordal_graphs", no_work)
    with pytest.raises(SizeGuardError, match="size guard"):
        getattr(suites, name)(8)


@pytest.mark.parametrize("name, args", [("connectivity_suite", (8,)), ("free_face_suite", (7, 3))])
def test_labeled_sweeps_check_the_closure_guard_before_the_sweep(monkeypatch, name, args):
    def no_work(*args, **kwargs):
        raise AssertionError("a suite started its sweep before its size guard")

    monkeypatch.setattr(suites, "_sweep", no_work)
    with pytest.raises(SizeGuardError, match="size guard"):
        getattr(suites, name)(*args)


def test_boundary_witness_reaches_the_report(monkeypatch):
    bridged = 0b111011  # K4 minus the edge 1-4, a chordal graph
    original = suites.properly_exposed_subgraph

    def fake(graph):
        if graph.n == 4 and graph.circuit_index_mask == bridged:
            raise RuntimeError("properly exposed subgraph of a chordal graph grew a bridge")
        return original(graph)

    monkeypatch.setattr(suites, "properly_exposed_subgraph", fake)
    report = suites.boundary_suite(5)
    assert report["failures"] == [[4, bridged]]
    assert not report["ok"] and report["checked"] == 2 + 8 + 61 + 822


@pytest.mark.parametrize(
    "name, args, message",
    [
        ("connectivity_suite", (-2,), "need n >= 0, got n=-2"),
        ("chromatic_suite", (-2,), "need n >= 0, got n=-2"),
        ("boundary_suite", (-2,), "need n >= 0, got n=-2"),
        ("mst_suite", (-1, 8, 0), "need count >= 0, got count=-1"),
        ("mst_suite", (0, -2, 0), "need max_n >= 0, got max_n=-2"),
    ],
)
def test_negative_sizes_are_rejected_before_any_work(monkeypatch, name, args, message):
    def no_work(*args, **kwargs):
        raise AssertionError("a suite started work before checking its sizes")

    for kernel in ("_sweep", "enumerate_chordal_graphs", "random_connected_chordal"):
        monkeypatch.setattr(suites, kernel, no_work)
    with pytest.raises(ValueError, match=message):
        getattr(suites, name)(*args)
