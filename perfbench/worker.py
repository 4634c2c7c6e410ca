"""One run of one benchmark workload, in its own interpreter.

``run.py`` starts this script once per measurement.  The script imports
clutterkit from ``src/``, builds the workload's inputs from the seed
(set-up), runs the timed part and prints one JSON line with what it
measured.  With ``--trace`` the public
functions are wrapped by ``tracing.Tracer`` before set-up.

Set-up time runs from ``--spawn-time`` (the wall clock read by the parent
just before it started this interpreter) to the end of set-up, so it
includes interpreter start-up and import.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import measure  # noqa: E402
import tracing  # noqa: E402

from clutterkit import clutter, erasures, formats, graphs, homology, ideals, shelling, suites  # noqa: E402


class Run:
    """Per-instance latencies, verdicts and failures of one timed part."""

    def __init__(self):
        self.latencies: list[float] = []
        self.verdicts: list = []
        self.failures: list = []
        self.digests: dict[str, str] = {}
        self.suite_s: dict[str, float] = {}
        self.operations = 0

    def instance(self, check, *args) -> None:
        start = time.perf_counter()
        try:
            verdict, problems = check(*args)
        except (ValueError, RuntimeError) as exc:
            verdict, problems = None, [f"{type(exc).__name__}: {exc}"]
        self.latencies.append(time.perf_counter() - start)
        self.operations += 1
        self.verdicts.append(verdict)
        if problems:
            self.failures.append([args[0] if args else None, problems])

    def suite(self, label: str, call, report=None) -> dict:
        """Time one real suite call; its report must be ok, and its digest is kept for the check.

        ``report``, if given, turns the call's result into the report after
        the timer has stopped, so the benchmark's own work is not timed.
        """
        start = time.perf_counter()
        result = call()
        self.suite_s[label] = time.perf_counter() - start
        report = result if report is None else report(result)
        self.operations += 1
        self.digests[label] = measure.digest(report)
        if not report.get("ok", False):
            self.failures.append([label, "report not ok"])
        return report


def stratified_masks(rng: random.Random, nbits: int, count: int) -> list[int]:
    """Distinct ``nbits``-bit masks, a fixed quota per popcount, shuffled.

    Search cost grows steeply as the mask loses bits, so fixing the number
    of draws per popcount keeps the work of a run alike across seeds.
    """
    sizes = [comb(nbits, k) for k in range(nbits + 1)]
    picked: list[int] = []
    for k, quota in enumerate(measure.quotas(sizes, count)):
        chosen: set[int] = set()
        while len(chosen) < quota:
            mask = 0
            for bit in rng.sample(range(nbits), k):
                mask |= 1 << bit
            chosen.add(mask)
        picked.extend(sorted(chosen))
    rng.shuffle(picked)
    return picked


def _cert_problems(cert, table) -> list[str]:
    """Binomial Betti formula against the Hochster table, and the h-vector identity."""
    problems = []
    if erasures.betti_from_erasures(cert) != table.betti_numbers():
        problems.append("betti-formula-vs-hochster")
    if not erasures.h_vector_check(cert)[2]:
        problems.append("h-vector")
    return problems


def _removal_order(cert) -> list | None:
    return None if cert is None else [list(s.circuit) for s in cert.removed]


# -- graphs6 --------------------------------------------------------------------

class Graphs6:
    """Seeded sample of the graphs on 6 vertices through the Froberg per-graph checks."""

    SIZE = 600
    N = 6

    def __init__(self, seed: int, count: int):
        self.masks = stratified_masks(random.Random(seed), self.N * (self.N - 1) // 2, count)
        self.reach = erasures.erasure_reachable_set(self.N, 2)
        self.reach_proper = erasures.erasure_reachable_set(self.N, 2, require_proper=True)
        self.qreach = ideals.quotient_reachable_set(self.N, 2)

    def check(self, gmask: int):
        graph = graphs.graph_from_edge_mask(self.N, gmask)
        removed = ((1 << self.N * (self.N - 1) // 2) - 1) ^ gmask
        chordal = graphs.is_chordal_classic(graph)
        cert = erasures.find_erasure_sequence(graph)
        order = ideals.find_quotient_order(ideals.ideal_of_clutter(graph.complement()))
        table2 = homology.hochster_betti_table(graph, "gf2")
        tableq = homology.hochster_betti_table(graph, "rational")
        problems = []
        if table2 != tableq:
            problems.append("gf2-vs-rational")
        verdicts = {
            "classic": chordal,
            "erasure": cert is not None,
            "linear_resolution": table2.is_linear(2),
            "quotient_order": order is not None,
            "erasure_closure": removed in self.reach,
            "quotient_closure": removed in self.qreach,
        }
        if len(set(verdicts.values())) != 1:
            problems.append("verdicts-disagree")
        if (removed in self.reach_proper) != (chordal and graphs.graph_connected(graph)):
            problems.append("proper-closure-vs-connected-chordal")
        greedy = None
        if cert is not None:
            problems += _cert_problems(cert, table2)
            greedy = erasures.find_erasure_sequence(graph, greedy_only=True) is not None
        verdict = [
            gmask,
            chordal,
            _removal_order(cert),
            greedy,
            None if order is None else [list(g.support) for g in order.generators],
            sorted([i, j, b] for (i, j), b in table2.entries.items()),
        ]
        return verdict, problems

    def run(self, run: Run) -> None:
        run.suite("suites.froberg_suite(5)", lambda: suites.froberg_suite(5))
        for gmask in self.masks:
            run.instance(self.check, gmask)


# -- clutters63 -----------------------------------------------------------------

class Clutters63:
    """Seeded sample of the 3-clutters on 6 vertices through the proper-erasure,
    free-face and shelling checks."""

    SIZE = 180
    N, D = 6, 3

    def __init__(self, seed: int, count: int):
        self.subsets = clutter.all_d_subsets(self.N, self.D)
        self.masks = stratified_masks(random.Random(seed), len(self.subsets), count)

    def check(self, cmask: int):
        n, d = self.N, self.D
        clut = clutter.Clutter(n, d, tuple(e for i, e in enumerate(self.subsets) if cmask >> i & 1))
        cert = erasures.find_erasure_sequence(clut, require_proper=True)
        order = ideals.find_quotient_order(ideals.ideal_of_clutter(clut.complement()))
        table = homology.hochster_betti_table(clut, "gf2")
        pdim = None if table.zero_ideal else table.pdim
        problems = []
        if (cert is not None) != (order is not None and (pdim is None or pdim < n - d)):
            problems.append("proper-erasure-vs-quotients-and-pdim")
        facets = [set(f) for f in clut.max_cliques()]
        exposed = []
        for e in clut.circuits:
            status = clut.exposed_status(e)
            if status.exposed != (sum(1 for f in facets if set(e) <= f) == 1):
                problems.append(f"free-face {e}")
            exposed.append(status.exposed)
        shelled = None
        if cert is not None:
            problems += _cert_problems(cert, table)
            if cert.removed:
                shelling_order = shelling.erasures_to_shelling(cert)
                shelled = shelling.verify_shelling(shelling_order.complex, shelling_order.order).valid
                if not shelled:
                    problems.append("certificate-does-not-shell")
        verdict = [
            cmask,
            _removal_order(cert),
            None if order is None else [list(g.support) for g in order.generators],
            pdim,
            table.betti_numbers(),
            exposed,
            shelled,
        ]
        return verdict, problems

    def run(self, run: Run) -> None:
        run.suite("suites.clutter_erasure_suite(5, 3)", lambda: suites.clutter_erasure_suite(5, 3))
        run.suite("suites.free_face_suite(5, 3)", lambda: suites.free_face_suite(5, 3))
        for cmask in self.masks:
            run.instance(self.check, cmask)


# -- chordal7 -------------------------------------------------------------------

class Chordal7:
    """A seeded sample of the chordal graphs on 7 vertices through the chromatic,
    boundary and spanning-tree checks, after the real enumeration and suite
    calls one size smaller."""

    SIZE = 1000
    N = 7
    # Labeled chordal graphs on 7 vertices by edge count, as
    # enumerate_chordal_graphs(7) finds them: 617,675 in all (OEIS A058862).
    CHORDAL_7_BY_EDGES = (1, 21, 210, 1330, 5880, 18522, 40467, 60795, 79170, 92785, 94521,
                          81417, 58485, 40110, 24255, 12222, 4872, 1890, 595, 105, 21, 1)
    CHORDAL_GRAPHS_ON_6 = 18154  # OEIS A058862
    MST_TRIALS, MST_MAX_N = 200, 8

    def __init__(self, seed: int, count: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.memo: dict = {}
        self.sample = self._draw(count)
        self.weights = [self.rng.sample(range(1, 10 * m + 10), m) for m in (g.bit_count() for g in self.sample)]

    def _draw(self, count: int) -> list[int]:
        """Distinct chordal graphs, a fixed quota per edge count, shuffled.

        Each is drawn by rejection from the graphs with that many edges, so
        set-up need not enumerate all 617,675.
        """
        nbits = self.N * (self.N - 1) // 2
        picked: list[int] = []
        for m, quota in enumerate(measure.quotas(list(self.CHORDAL_7_BY_EDGES), count)):
            chosen: set[int] = set()
            while len(chosen) < quota:
                mask = sum(1 << bit for bit in self.rng.sample(range(nbits), m))
                if graphs.is_chordal_classic(graphs.graph_from_edge_mask(self.N, mask)):
                    chosen.add(mask)
            picked.extend(sorted(chosen))
        self.rng.shuffle(picked)
        return picked

    def check(self, gmask: int, weights: list[int]):
        graph = graphs.graph_from_edge_mask(self.N, gmask)
        product = graphs.chromatic_polynomial_product(graph)
        oracle = graphs.chromatic_polynomial_dc(graph, self.memo)
        problems = [] if product.coeffs == oracle.coeffs else ["product-vs-deletion-contraction"]
        boundary = graphs.properly_exposed_subgraph(graph)
        mst = None
        if graphs.graph_connected(graph):
            weighted = graphs.WeightedGraph.from_edges(
                self.N, [(u, v, w) for (u, v), w in zip(graph.circuits, weights)]
            )
            mine, my_weight = graphs.mst_by_erasures(weighted)
            oracle_edges, oracle_weight = graphs.kruskal_mst(weighted)
            if mine != oracle_edges or my_weight != oracle_weight:
                problems.append("erasure-mst-vs-kruskal")
            mst = [sorted(list(e) for e in mine), str(my_weight)]
        verdict = [
            gmask,
            list(product.coeffs),
            [list(e) for e in boundary.edges],
            [[list(vs), ok] for vs, ok in boundary.components],
            mst,
        ]
        return verdict, problems

    def run(self, run: Run) -> None:
        run.suite(
            "graphs.enumerate_chordal_graphs(6)",
            lambda: graphs.enumerate_chordal_graphs(self.N - 1),
            report=self._enumeration_report,
        )
        run.suite("suites.chromatic_suite(6)", lambda: suites.chromatic_suite(6))
        run.suite("suites.boundary_suite(6)", lambda: suites.boundary_suite(6))
        run.suite(
            f"suites.mst_suite({self.MST_TRIALS}, {self.MST_MAX_N}, {self.seed})",
            lambda: suites.mst_suite(self.MST_TRIALS, self.MST_MAX_N, self.seed),
        )
        for gmask, weights in zip(self.sample, self.weights):
            run.instance(self.check, gmask, weights)

    def _enumeration_report(self, masks: set[int]) -> dict:
        ordered = sorted(masks)
        return {"ok": len(ordered) == self.CHORDAL_GRAPHS_ON_6, "count": len(ordered), "masks": ordered}


# -- cli ------------------------------------------------------------------------

CLI_COMMANDS = (
    "complement",
    "exposed",
    "erasures_find",
    "erasures_verify",
    "betti_compare",
    "ideal_quotients",
    "graph_chordal",
    "graph_peo",
    "graph_chromatic",
    "graph_boundary",
)


class Cli:
    """Seeded sequence of ``python -m clutterkit.cli`` calls on generated files."""

    SIZE = 20

    def __init__(self, seed: int, count: int):
        self.rng = random.Random(seed)
        self.dir = OUT / f"cli-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.calls: list[tuple[str, list[str], int]] = []
        while len(self.calls) < count:
            for command in self.rng.sample(CLI_COMMANDS, len(CLI_COMMANDS)):
                self.calls.append(self._make_call(command, len(self.calls)))
        del self.calls[count:]

    def _random_graph(self):
        """A random connected chordal graph or a G(n, 1/2) graph, neither empty nor complete."""
        n = self.rng.randint(5, 7)
        pairs = clutter.all_d_subsets(n, 2)
        while True:
            if self.rng.random() < 0.5:
                graph = graphs.random_connected_chordal(n, self.rng)
            else:
                graph = clutter.Clutter(n, 2, tuple(e for e in pairs if self.rng.random() < 0.5))
            if 0 < len(graph) < len(pairs):
                return graph

    def _erased_clutter(self):
        """A 3-clutter built by random exposed-circuit removals, with its certificate."""
        n = self.rng.randint(5, 7)
        current = clutter.Clutter.complete(n, 3)
        order = []
        for _ in range(self.rng.randint(1, 8)):
            exposed = [e for e in current.circuits if current.exposed_status(e).exposed]
            e = self.rng.choice(exposed)
            order.append(e)
            current = current.without(e)
        return current, erasures.replay_erasure_sequence(n, 3, order)

    def _input(self, index: int, text: str) -> str:
        path = self.dir / f"in{index}"
        path.write_text(text)
        return str(path)

    def _make_call(self, command: str, index: int):
        """(command, argv, expected exit code) for one call."""
        graph_only = command.startswith("graph_")
        if graph_only or self.rng.random() < 0.5:
            target = self._random_graph()
            reachable = graphs.is_chordal_classic(target)
            cert = erasures.find_erasure_sequence(target) if command == "erasures_verify" and reachable else None
        else:
            target, cert = self._erased_clutter()
            reachable = True
        if command == "erasures_verify":
            if cert is None:
                target, cert = self._erased_clutter()
            return command, ["erasures", "verify", self._input(index, cert.to_json())], 0
        path = self._input(index, formats.write_clutter(target))
        if command == "complement":
            return command, ["complement", path], 0
        if command == "exposed":
            circuit = ",".join(map(str, self.rng.choice(target.circuits)))
            return command, ["exposed", path, "--circuit", circuit], 0
        if command == "ideal_quotients":
            ideal = ideals.ideal_of_clutter(target.complement())
            path = self._input(index, formats.write_ideal(ideal))
            return command, ["ideal", "quotients", path, "--find"], 0 if reachable else 1
        words = command.split("_")
        expected = 0 if reachable or command in ("graph_chromatic", "graph_boundary") else 1
        return command, [*words, path], expected

    def call(self, command: str, argv: list[str], expected: int):
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "clutterkit.cli", *argv],
                capture_output=True,
                text=True,
                env=self.env,
                cwd=ROOT,
                timeout=60,
            )
        except subprocess.TimeoutExpired:
            return [command, None, None], ["no answer within 60 s"]
        problems = []
        if proc.returncode != expected:
            problems.append(f"exit {proc.returncode}, expected {expected}")
        if "Traceback" in proc.stderr:
            problems.append("traceback")
        return [command, proc.returncode, measure.digest(proc.stdout)], problems

    def run(self, run: Run) -> None:
        for command, argv, expected in self.calls:
            run.instance(self.call, command, argv, expected)

    def close(self) -> None:
        shutil.rmtree(self.dir)

    def layer_metrics(self, run: Run) -> dict[str, float]:
        """Median latency per subcommand, and the interpreter and import floors."""
        out = {}
        for command in CLI_COMMANDS:
            times = [lat for (cmd, _, _), lat in zip(self.calls, run.latencies) if cmd == command]
            out[f"cli.{command}.p50_ms"] = statistics.median(times) * 1e3 if times else 0.0
        for name, code in (("interpreter_ms", "pass"), ("import_ms", "import clutterkit.cli")):
            times = []
            for _ in range(5):
                start = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT, check=True)
                times.append(time.perf_counter() - start)
            out[f"cli.{name}"] = statistics.median(times) * 1e3
        return out


WORKLOADS = {"graphs6": Graphs6, "clutters63": Clutters63, "chordal7": Chordal7, "cli": Cli}
MIN_INSTANCES = 2 * measure.TAIL_BEYOND
REFERENCE_SECONDS = 15


def instance_count(workload, seconds: float) -> int:
    """Sample size of each repetition in a run of ``seconds``.

    SIZE is the sample at ``--seconds 15``.  It was set with the code that
    introduced this benchmark on a 2-core x86-64 machine (Python 3.11), so
    that a repetition takes 2 to 5 s there, and it stays fixed for later
    code, so a faster program shows as a smaller run_s.  clutters63 takes
    the longest repetitions: its median instance sits where the latency
    rises steeply with the draw (the 40th to 60th percentiles span a factor
    of two) and needs well over 100 instances to repeat from seed to seed.
    cli's 20 calls run each command twice.
    """
    return max(MIN_INSTANCES, round(workload.SIZE * seconds / REFERENCE_SECONDS))


def cli_layer_names() -> list[str]:
    return [f"cli.{c}.p50_ms" for c in CLI_COMMANDS] + ["cli.interpreter_ms", "cli.import_ms"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawn-time", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    kind = WORKLOADS[args.workload]
    count = instance_count(kind, args.seconds)
    workload = kind(args.seed, count)
    setup_s = time.time() - args.spawn_time

    if tracer is not None:
        tracer.run_id = "run"
    run = Run()
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        workload.run(run)
    finally:
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        if isinstance(workload, Cli):
            workload.close()
    # run_s counts only the timed calls, not the sampling and bookkeeping between them.
    run_s = sum(run.latencies) + sum(run.suite_s.values())

    label = f"{args.workload}.verdicts(seed={args.seed}, instances={count})"
    run.digests[label] = measure.digest(run.verdicts)
    run.operations += 1
    stored = json.loads((HERE / "digests.json").read_text())
    mismatched, unchecked = measure.check_digests(run.digests, stored)
    run.failures += [[label, "digest differs from the stored one"] for label in mismatched]

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "timed_wall_s": wall,
        "timed_cpu_s": cpu,
        "latencies": run.latencies,
        "suite_s": run.suite_s,
        "attempted": run.operations,
        "failed": len(run.failures),
        "failures": run.failures[:20],
        "peak_rss_mb": max(own, children) / 1024,
        "digests": run.digests,
        "digests_unchecked": unchecked,
        "homology_cache_entries": len(homology._homology_cache),
    }
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json")
        layers = tracer.layer_metrics()
        cli_layers = workload.layer_metrics(run) if isinstance(workload, Cli) else {}
        layers.update({name: cli_layers.get(name, 0.0) for name in cli_layer_names()})
        result["layers"] = layers
        result["stages"] = {
            name: list(totals) for name, totals in tracing.aggregate(tracer.spans, "run").items()
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
