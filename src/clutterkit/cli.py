"""Command-line interface.

Every command produces a JSON report; ``--out`` writes it to a file and
keeps stdout for human-readable text, otherwise the report is printed to
stdout after any tables.  Exit codes: 0 when the query succeeds or the
checked property holds, 1 when a property fails (the report carries a
witness), 2 for usage, parse, and size-guard errors.  Each handler imports
the modules it runs, so a command loads no kernel it does not use.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import formats
from .clutter import SizeGuardError
from .homology import FIELDS

if TYPE_CHECKING:
    from .erasures import ErasureCertificate


def _read(path: str) -> str:
    return Path(path).read_text()


def _circuit_arg(text: str) -> tuple[int, ...]:
    toks = text.replace(",", " ").split()
    return tuple(sorted(int(t) for t in toks))


def _emit(report: dict, human: list[str], out: str | None) -> None:
    """Print the human lines, and the JSON report to stdout or to ``out``.

    The file is written first, so a failed write prints nothing.
    """
    payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_text(payload)
    for line in human:
        print(line)
    if not out:
        sys.stdout.write(payload)


def _load_certificate(path: str) -> ErasureCertificate:
    from .erasures import ErasureCertificate

    data = json.loads(_read(path))
    return ErasureCertificate.from_json_dict(data)


# -- command handlers ----------------------------------------------------------

def _cmd_complement(args) -> tuple[int, dict, list[str]]:
    clutter = formats.read_clutter(_read(args.input))
    comp = clutter.complement()
    report = {
        "command": "complement",
        "n": comp.n,
        "d": comp.d,
        "circuits": [list(e) for e in comp.circuits],
    }
    return 0, report, [formats.write_clutter(comp).rstrip("\n")]


def _cmd_exposed(args) -> tuple[int, dict, list[str]]:
    clutter = formats.read_clutter(_read(args.input))
    status = clutter.exposed_status(_circuit_arg(args.circuit))
    report = {
        "command": "exposed",
        "circuit": list(_circuit_arg(args.circuit)),
        "exposed": status.exposed,
        "clique": None if status.clique is None else list(status.clique),
        "proper": status.proper,
    }
    return 0, report, []


def _cmd_erasures_find(args) -> tuple[int, dict, list[str]]:
    from .erasures import find_erasure_sequence

    clutter = formats.read_clutter(_read(args.input))
    cert = find_erasure_sequence(clutter, args.require_proper, args.greedy_only)
    if cert is None:
        report = {
            "command": "erasures-find",
            "found": False,
            "require_proper": args.require_proper,
            "greedy_only": args.greedy_only,
            "witness": "no erasure sequence reaches the target under these flags",
        }
        return 1, report, ["no erasure sequence found"]
    report = {"command": "erasures-find", "found": True, **cert.to_json_dict()}
    human = [
        "removal order: " + " | ".join(" ".join(map(str, s.circuit)) for s in cert.removed)
    ]
    return 0, report, human


def _cmd_erasures_verify(args) -> tuple[int, dict, list[str]]:
    from .erasures import CertificateShapeError

    try:
        cert = _load_certificate(args.certificate)
    except (CertificateShapeError, SizeGuardError):
        raise  # not a certificate, or too large to replay: exit 2
    except ValueError as exc:
        report = {"command": "erasures-verify", "valid": False, "error": str(exc)}
        return 1, report, [f"INVALID: {exc}"]
    report = {"command": "erasures-verify", "valid": True, **cert.to_json_dict()}
    return 0, report, ["certificate replays cleanly"]


def _cmd_erasures_betti(args) -> tuple[int, dict, list[str]]:
    from .erasures import betti_from_erasures

    cert = _load_certificate(args.certificate)
    report = {
        "command": "erasures-betti",
        "k_sequence": list(cert.k_sequence),
        "betti": betti_from_erasures(cert),
    }
    return 0, report, []


def _cmd_ideal_colon(args) -> tuple[int, dict, list[str]]:
    from .ideals import colon_by_monomial, monomial

    ideal = formats.read_ideal(_read(args.input))
    col = colon_by_monomial(ideal, monomial(_circuit_arg(args.monomial)))
    report = {
        "command": "ideal-colon",
        "monomial": list(_circuit_arg(args.monomial)),
        "unit": col.unit,
        "generators": [list(g.support) for g in col.generators],
    }
    return 0, report, []


def _cmd_ideal_quotients(args) -> tuple[int, dict, list[str]]:
    from .ideals import find_quotient_order, verify_quotient_order

    ideal = formats.read_ideal(_read(args.input))
    if args.find:
        found = find_quotient_order(ideal, greedy_only=args.greedy_only)
        if found is None:
            report = {
                "command": "ideal-quotients",
                "mode": "find",
                "has_linear_quotients": False,
                "witness": "backtracking search exhausted all orders",
            }
            return 1, report, ["no linear-quotient order exists"]
        rep = verify_quotient_order(found)
        report = {
            "command": "ideal-quotients",
            "mode": "find",
            **rep.to_json_dict(found),
        }
        return 0, report, []
    rep = verify_quotient_order(ideal)
    report = {"command": "ideal-quotients", "mode": "verify", **rep.to_json_dict(ideal)}
    return (0 if rep.ok else 1), report, []


def _cmd_betti_hochster(args) -> tuple[int, dict, list[str]]:
    from .homology import hochster_betti_table

    clutter = formats.read_clutter(_read(args.input))
    table = hochster_betti_table(clutter, args.field)
    report = {
        "command": "betti-hochster",
        "field": args.field,
        **table.to_json_dict(quotient=args.quotient),
    }
    return 0, report, [table.diagram(quotient=args.quotient)]


def _cmd_betti_formula(args) -> tuple[int, dict, list[str]]:
    from .erasures import betti_from_erasures, find_erasure_sequence

    clutter = formats.read_clutter(_read(args.input))
    cert = find_erasure_sequence(clutter)
    if cert is None:
        report = {
            "command": "betti-formula",
            "found": False,
            "witness": "target is not reachable by exposed-circuit removals",
        }
        return 1, report, ["not erasure-reachable; the binomial formula does not apply"]
    report = {
        "command": "betti-formula",
        "found": True,
        "k_sequence": list(cert.k_sequence),
        "betti": betti_from_erasures(cert),
    }
    return 0, report, []


def _cmd_betti_compare(args) -> tuple[int, dict, list[str]]:
    from .erasures import betti_from_erasures, find_erasure_sequence
    from .homology import hochster_betti_table

    clutter = formats.read_clutter(_read(args.input))
    table = hochster_betti_table(clutter, args.field)
    cert = find_erasure_sequence(clutter)
    hochster = table.betti_numbers()
    formula = None if cert is None else betti_from_erasures(cert)
    agree = cert is not None and hochster == formula
    report = {
        "command": "betti-compare",
        "field": args.field,
        "hochster": hochster,
        "formula": formula,
        "agree": agree,
    }
    human = [f"hochster: {hochster}", f"formula:  {formula}", table.diagram()]
    return (0 if agree else 1), report, human


def _cmd_shelling_verify(args) -> tuple[int, dict, list[str]]:
    from .shelling import verify_shelling

    complex_, order = formats.read_complex(_read(args.input))
    rep = verify_shelling(complex_, order)
    report = {
        "command": "shelling-verify",
        "valid": rep.valid,
        "restricted_sizes": list(rep.restricted_sizes),
        "failed_at": rep.failed_at,
    }
    return (0 if rep.valid else 1), report, []


def _cmd_shelling_dual(args) -> tuple[int, dict, list[str]]:
    from .simplicial import alexander_dual

    complex_, _ = formats.read_complex(_read(args.input))
    dual = alexander_dual(complex_)
    report = {
        "command": "shelling-dual",
        "n": dual.n,
        "facets": [list(f) for f in dual.facets],
    }
    return 0, report, [formats.write_complex(dual).rstrip("\n")]


def _cmd_shelling_extendable(args) -> tuple[int, dict, list[str]]:
    from .shelling import is_extendably_shellable

    complex_, _ = formats.read_complex(_read(args.input))
    result = is_extendably_shellable(complex_)
    report = {"command": "shelling-extendable", **result.to_json_dict()}
    return (0 if result.extendable else 1), report, []


def _cmd_shelling_from_erasures(args) -> tuple[int, dict, list[str]]:
    from .shelling import erasures_to_shelling

    cert = _load_certificate(args.certificate)
    shelling = erasures_to_shelling(cert)
    report = {
        "command": "shelling-from-erasures",
        "n": shelling.complex.n,
        "order": [list(f) for f in shelling.order],
        "restricted_sizes": list(shelling.restricted_sizes),
    }
    return 0, report, []


def _cmd_graph_chordal(args) -> tuple[int, dict, list[str]]:
    from .erasures import find_erasure_sequence
    from .graphs import is_chordal_classic, perfect_elimination_ordering

    graph = formats.read_clutter(_read(args.input))
    classic = is_chordal_classic(graph)
    erasure = find_erasure_sequence(graph) is not None
    peo = perfect_elimination_ordering(graph) is not None
    report = {
        "command": "graph-chordal",
        "classic": classic,
        "erasure_reachable": erasure,
        "elimination_ordering": peo,
        "agree": classic == erasure == peo,
    }
    if not report["agree"]:
        return 1, report, ["chordality criteria DISAGREE; this is a bug witness"]
    return (0 if classic else 1), report, ["chordal" if classic else "not chordal"]


def _cmd_graph_peo(args) -> tuple[int, dict, list[str]]:
    from .graphs import perfect_elimination_ordering

    graph = formats.read_clutter(_read(args.input))
    peo = perfect_elimination_ordering(graph)
    if peo is None:
        return 1, {"command": "graph-peo", "found": False}, ["no perfect elimination ordering"]
    report = {
        "command": "graph-peo",
        "found": True,
        "order": list(peo.order),
        "degrees": list(peo.degrees),
    }
    return 0, report, []


def _cmd_graph_chromatic(args) -> tuple[int, dict, list[str]]:
    from .graphs import chromatic_polynomial_dc, chromatic_polynomial_product, perfect_elimination_ordering

    graph = formats.read_clutter(_read(args.input))
    chordal = perfect_elimination_ordering(graph) is not None
    oracle = chromatic_polynomial_dc(graph)
    report: dict = {
        "command": "graph-chromatic",
        "chordal": chordal,
        "deletion_contraction": list(oracle.coeffs),
    }
    human = [f"chi(t) = {oracle}"]
    if chordal:
        product = chromatic_polynomial_product(graph)
        report["product_formula"] = list(product.coeffs)
        report["agree"] = product == oracle
        return (0 if report["agree"] else 1), report, human
    report["product_formula"] = None
    return 0, report, human


def _cmd_graph_mst(args) -> tuple[int, dict, list[str]]:
    from .graphs import kruskal_mst, mst_by_erasures

    weighted = formats.read_weighted_graph(_read(args.input))
    edges, weight = mst_by_erasures(weighted)
    oracle_edges, oracle_weight = kruskal_mst(weighted)
    report = {
        "command": "graph-mst",
        "edges": sorted(list(e) for e in edges),
        "weight": str(weight),
        "kruskal_weight": str(oracle_weight),
        "weights_agree": weight == oracle_weight,
    }
    human = ["tree weight " + str(weight)]
    return (0 if weight == oracle_weight else 1), report, human


def _cmd_graph_boundary(args) -> tuple[int, dict, list[str]]:
    from .graphs import properly_exposed_subgraph

    graph = formats.read_clutter(_read(args.input))
    rep = properly_exposed_subgraph(graph)
    report = {
        "command": "graph-boundary",
        "input_chordal": rep.input_chordal,
        "edges": [list(e) for e in rep.edges],
        "components": [
            {"vertices": list(vs), "two_edge_connected": ok} for vs, ok in rep.components
        ],
    }
    return 0, report, []


def _cmd_probe(args) -> tuple[int, dict, list[str]]:
    from . import suites

    probe = suites.probe_simon if args.kind == "simon" else suites.probe_ridge_chordal
    report = probe(args.n, args.d)
    return 0, report, [f"observations: {len(report['counterexamples'])} counterexample(s)"]


# The ``suite exhaustive`` kinds and the call each makes on the ``suites``
# module.  ``skeleton`` and ``multiset`` run in this process, so their
# ``--jobs`` is checked, not used.  Only the kinds in ``_TAKE_D`` read
# ``--d``; the others run on graphs and refuse any other d than 2.
_TAKE_D = ("clutter-erasure", "free-face", "multiset")
_EXHAUSTIVE = {
    "froberg": lambda suites, args: suites.froberg_suite(args.n, jobs=args.jobs),
    "connectivity": lambda suites, args: suites.connectivity_suite(args.n, jobs=args.jobs),
    "clutter-erasure": lambda suites, args: suites.clutter_erasure_suite(args.n, args.d, jobs=args.jobs),
    "chromatic": lambda suites, args: suites.chromatic_suite(args.n, jobs=args.jobs),
    "boundary": lambda suites, args: suites.boundary_suite(args.n, jobs=args.jobs),
    "free-face": lambda suites, args: suites.free_face_suite(args.n, args.d, jobs=args.jobs),
    "skeleton": lambda suites, args: suites.skeleton_extendability_suite(args.n),
    "multiset": lambda suites, args: suites.multiset_invariance_suite(args.n, args.d),
}


def _cmd_suite_exhaustive(args) -> tuple[int, dict, list[str]]:
    from . import suites

    suites._check_jobs(args.jobs)
    if args.d != 2 and args.what not in _TAKE_D:
        raise ValueError(f"suite exhaustive {args.what} runs on graphs: need --d 2, got --d {args.d}")
    report = _EXHAUSTIVE[args.what](suites, args)
    return (0 if report["ok"] else 1), report, [f"{args.what}: {'ok' if report['ok'] else 'FAILED'}"]


def _cmd_suite_random(args) -> tuple[int, dict, list[str]]:
    from . import suites

    report = suites.mst_suite(args.count, args.max_n, args.seed)
    return (0 if report["ok"] else 1), report, [
        f"mst random suite: {'ok' if report['ok'] else 'FAILED'}"
    ]


# -- parser ---------------------------------------------------------------------

# One row per command: its words, its handler and its arguments as
# ``(name, add_argument options)`` pairs.  ``build_parser`` adds ``--out`` to
# every row, last, and the help of each top-level word comes from ``_GROUPS``.
_INPUT = ("input", {})
_CERTIFICATE = ("certificate", {})
_FLAG = {"action": "store_true"}
_GREEDY_ONLY = ("--greedy-only", _FLAG)
_FIELD = ("--field", {"choices": FIELDS, "default": "gf2"})
_N = ("--n", {"type": int, "required": True})
_D = ("--d", {"type": int, "default": 2})

_GROUPS = {
    "complement": "complement a clutter",
    "exposed": "exposure status of one circuit",
    "erasures": "erasure certificates",
    "ideal": "squarefree ideal operations",
    "betti": "Betti numbers two ways",
    "shelling": "shellings and Alexander duality",
    "graph": "chordal graph applications",
    "probe": "conjecture probes (report-only, never assert)",
    "suite": "verification sweeps",
}

_COMMANDS = (
    (("complement",), _cmd_complement, [_INPUT]),
    (("exposed",), _cmd_exposed, [_INPUT, ("--circuit", {"required": True, "help": "e.g. '1,2,5'"})]),
    (("erasures", "find"), _cmd_erasures_find, [_INPUT, ("--require-proper", _FLAG), _GREEDY_ONLY]),
    (("erasures", "verify"), _cmd_erasures_verify, [_CERTIFICATE]),
    (("erasures", "betti"), _cmd_erasures_betti, [_CERTIFICATE]),
    (("ideal", "colon"), _cmd_ideal_colon, [_INPUT, ("--monomial", {"required": True, "help": "e.g. '2,4'"})]),
    (("ideal", "quotients"), _cmd_ideal_quotients, [
        _INPUT, ("--find", {**_FLAG, "help": "search orders instead of verifying"}), _GREEDY_ONLY,
    ]),
    (("betti", "hochster"), _cmd_betti_hochster, [
        _INPUT, _FIELD, ("--quotient", {**_FLAG, "help": "shift to the R/I convention"}),
    ]),
    (("betti", "formula"), _cmd_betti_formula, [_INPUT, _FIELD]),
    (("betti", "compare"), _cmd_betti_compare, [_INPUT, _FIELD]),
    (("shelling", "verify"), _cmd_shelling_verify, [_INPUT]),
    (("shelling", "dual"), _cmd_shelling_dual, [_INPUT]),
    (("shelling", "extendable"), _cmd_shelling_extendable, [_INPUT]),
    (("shelling", "from-erasures"), _cmd_shelling_from_erasures, [_CERTIFICATE]),
    (("graph", "chordal"), _cmd_graph_chordal, [_INPUT]),
    (("graph", "peo"), _cmd_graph_peo, [_INPUT]),
    (("graph", "chromatic"), _cmd_graph_chromatic, [_INPUT]),
    (("graph", "mst"), _cmd_graph_mst, [_INPUT]),
    (("graph", "boundary"), _cmd_graph_boundary, [_INPUT]),
    (("probe",), _cmd_probe, [("kind", {"choices": ("simon", "ridge-chordal")}), _N, _D]),
    (("suite", "exhaustive"), _cmd_suite_exhaustive, [
        ("what", {"choices": tuple(_EXHAUSTIVE)}), _N, _D, ("--jobs", {"type": int, "default": 1}),
    ]),
    (("suite", "random"), _cmd_suite_random, [
        ("--count", {"type": int, "default": 100}),
        ("--max-n", {"type": int, "default": 8}),
        ("--seed", {"type": int, "default": 0}),
    ]),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clutterkit",
        description="chordal clutters, erasure certificates, linear quotients, Betti numbers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups: dict = {}  # a top-level word -> its parser, or its subcommands
    for (group, *leaf), handler, arguments in _COMMANDS:
        if group not in groups:
            p = sub.add_parser(group, help=_GROUPS[group])
            groups[group] = p.add_subparsers(dest="sub", required=True) if leaf else p
        p = groups[group].add_parser(*leaf) if leaf else groups[group]
        for name, options in arguments:
            p.add_argument(name, **options)
        p.add_argument("--out", help="write the JSON report to this path")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, report, human = args.handler(args)
    except (formats.FormatError, json.JSONDecodeError, KeyError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a missing file, a directory, no permission
        print(f"missing input: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"property failed: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(report, human, args.out)
    except OSError as exc:  # --out names a directory, a missing folder or a read-only file
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
