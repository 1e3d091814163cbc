"""Command line front end: reproducible batch runs with JSON reports.

Every run ends in main().  It writes the manifest, --manifest or by
default <out>.manifest.json, recording the command, q, seed, tool version,
outputs, the wall time from the start of main(), and as `parameters` every
other parsed option but the output paths (--out, --report, --manifest).  A
default that a subcommand resolves (count's formula list, verify's checks
and the q of its flag file) is written back to the options, so the
manifest records the resolved value.  Reports are byte-stable for fixed
(command, parameters, seed, version).
Exit code is 0 iff every check in the run passed, 1 when a check failed,
and 2 on usage, configuration or precondition errors.  Every refusal
raises ValueError, and main() alone turns it into one `error:` line on
stderr and exit code 2 (argparse's usage errors aside).  An output path
that cannot be written (a directory, a missing parent directory, or no
write permission) is refused the same way before any work, and an OSError
from reading or writing a file also exits 2 with one line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .constructions import (GIVEN_FAMILIES, LAMBDA_KINDS, LambdaSpec,
                            build_coloring_scheme, build_lambda,
                            canonical_frame, realize_coloring,
                            trivial_coloring_scheme)
from .counting import REGISTRY, formulas_report, universe_size_formula
from .flags import build_universe, export_dimacs, load_flagset, save_flagset
from .projective import Subspace, subspace_from_text, subspace_to_text
from . import oracle as oracle_mod
from . import verify as verify_mod

ORACLE_NAMES = ("skew-count", "solids-three-planes", "planes-two-solids",
                "line-meeting-family", "complement-count")

# options a manifest keeps out of its parameters: the output paths, the
# parser's bookkeeping, and q and seed, which are keys of their own
_NOT_PARAMETERS = frozenset(("out", "report", "manifest", "command", "fn",
                             "q", "seed"))


class _Run:
    """One command run: its clock starts when main() starts, it collects
    the outputs, and finish() writes the manifest of its options."""

    def __init__(self):
        self.started = datetime.now(timezone.utc).isoformat(timespec="seconds")
        self._t0 = time.perf_counter()
        self.outputs: list[str] = []

    def emit(self, path: str, payload: str) -> None:
        with open(path, "w") as fh:
            fh.write(payload)
        self.outputs.append(path)

    def finish(self, args, path: str) -> None:
        parameters = {k: v for k, v in vars(args).items()
                      if k not in _NOT_PARAMETERS}
        manifest = {
            "command": args.command, "q": getattr(args, "q", None),
            "parameters": parameters, "seed": getattr(args, "seed", None),
            "tool_version": __version__, "started": self.started,
            "elapsed_s": round(time.perf_counter() - self._t0, 3),
            "outputs": self.outputs,
        }
        with open(path, "w") as fh:
            fh.write(_json_dumps(manifest))


def _check_outputs(args, manifest: str) -> None:
    """Refuse, before any work, an output path that is a directory, whose
    parent directory is missing, or that may not be written, and two of
    the outputs and verify's input that are one file."""
    paths = {"--out": args.out, "--report": getattr(args, "report", None),
             "--manifest": manifest}
    for path in filter(None, paths.values()):
        parent = os.path.dirname(path) or "."
        if os.path.isdir(path):
            raise ValueError("cannot write %s: it is a directory" % path)
        if not os.path.isdir(parent):
            raise ValueError("cannot write %s: no directory %s" % (path, parent))
        if not os.access(path if os.path.exists(path) else parent, os.W_OK):
            raise ValueError("cannot write %s: permission denied" % path)
    paths["the input"] = getattr(args, "flagset", None)
    seen: dict[str, str] = {}
    for label, path in paths.items():
        if path:
            real = os.path.realpath(path)
            if real in seen:
                raise ValueError("cannot write %s: %s and %s are one file"
                                 % (path, seen[real], label))
            seen[real] = label


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _parse_subspace(text: str, n: int, q: int, what: str) -> Subspace:
    try:
        return subspace_from_text(text, n, q)
    except ValueError as exc:
        raise ValueError("bad %s: %s" % (what, exc)) from None


# ---------------------------------------------------------------------------
# count


def cmd_count(args, run: _Run) -> int:
    args.names = args.names or sorted(
        name for name, entry in REGISTRY.items() if not entry.params)
    values = formulas_report(args.q, args.names)
    for name in args.names:
        print("%s = %s" % (name, values[name]["value"]))
    run.emit(args.out, _json_dumps({"q": args.q, "values": values}))
    return 0


# ---------------------------------------------------------------------------
# construct


def _family_names(kind: str) -> list[str]:
    """The names of the given families of H_E or P_S."""
    return [name for name, k in GIVEN_FAMILIES.items() if k[0] == kind[0]]


def _spec_from_args(args, q: int) -> LambdaSpec:
    frame = canonical_frame(q)

    def anchor(name: str) -> Subspace | None:
        text = getattr(args, name)
        if text is not None:
            return _parse_subspace(text, 6, q, name.replace("_", " "))
        return frame[name] if args.canonical else None

    anchors = {a: anchor(a) for a in ("hyperplane", "point", "line", "four_space")}
    given = {"H_E": ("ekr", "plane_family"), "P_S": ("solid_family", "solid_family")}
    if args.kind in given:
        option, field = given[args.kind]
        name, flag = getattr(args, option), "--" + option.replace("_", "-")
        if name is None:
            raise ValueError("--kind %s needs %s {%s}"
                             % (args.kind, flag, ",".join(_family_names(args.kind))))
        try:
            anchors[field] = LambdaSpec(kind=GIVEN_FAMILIES[name], **anchors).members(q)
        except ValueError as exc:
            raise ValueError("%s %s: %s" % (flag, name, exc)) from None
    return LambdaSpec(kind=args.kind, **anchors)


def cmd_construct(args, run: _Run) -> int:
    q = args.q
    spec = _spec_from_args(args, q)
    spec.validate(q)
    universe = build_universe(q)
    fset = build_lambda(spec, universe)
    expected = spec.expected_size(q)
    report = {
        "kind": spec.kind,
        "q": q,
        "anchors": {k: subspace_to_text(v) for k, v in spec.anchors().items()},
        "cardinality": fset.cardinality,
        "expected": expected,
        "match": fset.cardinality == expected,
    }
    # the given families of H_E and P_S are named, so that two of them
    # never share a report
    family = {"H_E": "ekr", "P_S": "solid_family"}.get(spec.kind)
    if family:
        report[family] = getattr(args, family)
    save_flagset(fset, args.out)
    run.outputs.append(args.out)
    if args.report:
        run.emit(args.report, _json_dumps(report))
    print("%s at q=%d: %d flags (expected %d) -> %s"
          % (spec.kind, q, fset.cardinality, expected, args.out))
    return 0 if report["match"] else 1


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args, run: _Run) -> int:
    fset = load_flagset(args.flagset)
    args.q = q = fset.universe.q
    subject = os.path.basename(args.flagset)
    if args.all or not any([args.independent, args.maximal, args.saturation,
                            args.trace_hyperplane, args.trace_point,
                            args.xi_bound]):
        args.independent = args.maximal = args.saturation = True

    checks = []
    if args.independent:
        checks.extend(verify_mod.check_independent(fset, subject).checks)
    if args.maximal:
        checks.extend(verify_mod.check_maximal(fset, subject).checks)
    if args.saturation:
        checks.extend(verify_mod.check_saturation(fset, subject).checks)
    if args.trace_hyperplane:
        h = _parse_subspace(args.trace_hyperplane, 6, q, "trace hyperplane")
        checks.extend(
            verify_mod.check_hyperplane_trace_ekr(fset, h, subject).checks)
    if args.trace_point:
        p = _parse_subspace(args.trace_point, 6, q, "trace point")
        checks.extend(
            verify_mod.check_point_trace_ekr(fset, p, subject).checks)
    if args.xi_bound:
        if args.flag is None:
            if not fset.cardinality:
                raise ValueError("--xi-bound needs --flag on an empty flag set")
            args.flag = int(fset.ordinals()[0])
        checks.extend(verify_mod.check_disjoint_plane_meeting_solid(
            fset, args.flag, xi=args.xi, subject=subject).checks)

    report = verify_mod.VerificationReport(
        subject=subject, q=q, cardinality=fset.cardinality, checks=checks)
    run.emit(args.out, report.to_json(include_timing=args.timing) + "\n")
    for c in checks:
        line = "%-45s %s" % (c.name, "pass" if c.passed else "FAIL")
        if not c.passed and c.witness is not None:
            line += "  witness: %s" % json.dumps(c.witness, sort_keys=True)
        print(line)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# color


def cmd_color(args, run: _Run) -> int:
    q = args.q
    frame = canonical_frame(q)
    if args.scheme == "mi":
        scheme = build_coloring_scheme(frame["point"], frame["line"],
                                       frame["plane"], frame["four_space"],
                                       frame["second_point"])
        specs = scheme.classes
    else:
        specs = trivial_coloring_scheme(frame["four_space"])
    # the classes are realized, and the flag count cross-checked, at q=2
    universe = build_universe(q) if q == 2 else None
    report = {
        "scheme": args.scheme,
        "q": q,
        "classes": len(specs),
        "expected_class_sizes": sorted({s.expected_size(q) for s in specs}),
        "all_independent": None,
        "cover_complete": None,
        "lower_bound": verify_mod.chromatic_lower_report(q, universe),
    }
    ok = True
    if universe is not None:
        classes = realize_coloring(specs, universe)
        vrep = verify_mod.check_coloring(classes, "%s coloring" % args.scheme)
        report["all_independent"] = vrep.checks[0].passed
        report["cover_complete"] = vrep.checks[1].passed
        report["class_sizes"] = sorted({c.cardinality for c in classes})
        ok = vrep.passed
    else:
        report["note"] = ("classes are reported structurally; full cover "
                          "verification runs at q=2 only")
    run.emit(args.out, _json_dumps(report))
    print("%s scheme at q=%d: %d classes" % (args.scheme, q, len(specs)))
    if report["all_independent"] is not None:
        print("all classes independent: %s" % report["all_independent"])
        print("cover complete: %s" % report["cover_complete"])
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# oracle


def _sweep(fn, configs, threads: int):
    """Run fn over configs, optionally on a thread pool; result order
    follows the config order regardless of thread count.  The first config
    runs before the pool starts, so the enumeration the oracles share is
    cached once: functools.lru_cache does not lock a miss, and workers
    starting on a cold cache would each build their own copy."""
    if threads <= 1 or len(configs) <= 1:
        return [fn(c) for c in configs]
    first = fn(configs[0])
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return [first, *pool.map(fn, configs[1:])]


def _check_oracle_args(args) -> None:
    """Refuse option values that no oracle can run on."""
    for flag, least in (("n", 0), ("k", -1), ("l", -1), ("sweeps", 0),
                        ("threads", 1), ("seed", 0)):
        value = getattr(args, flag)
        if value is not None and value < least:  # --n defaults to None
            raise ValueError("--%s must be at least %d, got %d" % (flag, least, value))
    if args.oracle == "skew-count" and (args.n is None) != (args.d is None):
        raise ValueError("skew-count takes --n and --d together (one "
                         "configuration) or neither (the grid)")


def cmd_oracle(args, run: _Run) -> int:
    _check_oracle_args(args)
    q = args.q
    rng = np.random.default_rng(args.seed)
    results: list[oracle_mod.OracleResult] = []
    if args.oracle == "skew-count":
        if args.n is not None:
            k_sub, l_sub = oracle_mod.sample_skew_pair(
                args.n, q, args.k, args.l, rng)
            results.append(oracle_mod.count_skew_constrained(
                args.n, q, args.d, contains=k_sub, skew_to=l_sub))
        else:
            n_max = 3 if args.grid == "small" else 5
            results.extend(oracle_mod.skew_count_grid(
                q, n_max=n_max, samples=args.sweeps, seed=args.seed))
    elif args.oracle == "solids-three-planes":
        configs = [oracle_mod.canonical_three_planes_config(q)]
        configs += [oracle_mod.sample_three_planes_config(q, rng)
                    for _ in range(args.sweeps)]
        results.extend(_sweep(
            lambda c: oracle_mod.count_solids_meeting_three_planes(q, c),
            configs, args.threads))
    elif args.oracle == "planes-two-solids":
        us = (args.u,) if args.u else (1, 2)
        configs = [oracle_mod.canonical_two_solids_config(q, u) for u in us]
        for u in us:
            configs += [oracle_mod.sample_two_solids_config(q, u, rng)
                        for _ in range(args.sweeps)]
        results.extend(_sweep(
            lambda c: oracle_mod.count_planes_meeting_two_solids(q, c),
            configs, args.threads))
    elif args.oracle == "line-meeting-family":
        kinds = (args.family,) if args.family else ("line_star", "solid_full")
        for kind in kinds:
            results.append(oracle_mod.line_meeting_family_check(q, kind=kind))
    elif args.oracle == "complement-count":
        n = args.n = 6 if args.n is None else args.n
        d = args.d = 3 if args.d is None else args.d
        results.append(oracle_mod.complement_count_check(n, q, d))
        for _ in range(args.sweeps):
            results.append(oracle_mod.complement_count_check(
                n, q, d, subspace=oracle_mod.random_subspace(n, q, d, rng)))

    all_passed = all(r.passed for r in results)
    payload = {
        "oracle": args.oracle,
        "q": q,
        "seed": args.seed,
        "results": [r.to_dict() for r in results],
        "all_passed": all_passed,
    }
    run.emit(args.out, _json_dumps(payload))
    for r in results[:10]:
        print("%s: count=%d %s %d  %s"
              % (r.name, r.count, r.relation, r.expected,
                 "pass" if r.passed else "FAIL"))
    if len(results) > 10:
        print("... %d checks total" % len(results))
    print("all passed: %s" % all_passed)
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# export


def cmd_export(args, run: _Run) -> int:
    q = args.q
    if args.format != "dimacs":
        raise ValueError("unsupported format %r" % args.format)
    if q != 2:
        raise ValueError("export runs at q=2 only: at q=%d even an induced subgraph "
                         "would first build the arrays of every flag" % q)
    if args.max_vertices is not None and args.max_vertices < 1:
        raise ValueError("need at least one vertex")
    if args.max_vertices is None and not args.confirm_size:
        # every flag has q^15 neighbours
        nv = universe_size_formula(q)
        raise ValueError("refusing full export without --confirm-size: %d "
                         "vertices, %d edges (tens of gigabytes); use "
                         "--max-vertices for an induced subgraph"
                         % (nv, nv * q ** 15 // 2))
    universe = build_universe(q)
    summary = export_dimacs(universe, args.out, max_vertices=args.max_vertices)
    run.outputs.append(args.out)
    print("wrote %s: %d vertices, %d edges"
          % (args.out, summary["vertices"], summary["edges"]))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagkneser",
        description="Plane-solid flag Kneser graph of PG(6,q): constructions, "
                    "verification, counting oracles, colorings, export.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_out):
        p.add_argument("--out", default=default_out,
                       help="output file (default %s)" % default_out)
        p.add_argument("--manifest", default=None,
                       help="manifest path (default <out>.manifest.json)")

    p = sub.add_parser("count", help="evaluate registered counting formulas")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("names", nargs="*",
                   help="formula names, parameters after a colon "
                        "(gaussian:7,4); default: all parameter-free formulas")
    common(p, "formulas.json")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("construct", help="build a flag family and save it")
    p.add_argument("--kind", choices=LAMBDA_KINDS, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--canonical", action="store_true",
                   help="use the pinned coordinate frame for anchors")
    p.add_argument("--hyperplane")
    p.add_argument("--point")
    p.add_argument("--line")
    p.add_argument("--four-space", dest="four_space")
    p.add_argument("--ekr", choices=_family_names("H_E"),
                   help="plane family kind for H_E")
    p.add_argument("--solid-family", dest="solid_family",
                   choices=_family_names("P_S"),
                   help="solid family kind for P_S")
    p.add_argument("--report", default=None,
                   help="also write a JSON size report here")
    common(p, "set.flags")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("verify", help="run checkers on a saved flag set")
    p.add_argument("flagset")
    p.add_argument("--independent", action="store_true")
    p.add_argument("--maximal", action="store_true")
    p.add_argument("--saturation", action="store_true")
    p.add_argument("--all", action="store_true",
                   help="independent + maximal + saturation (default when no "
                        "check is named)")
    p.add_argument("--trace-hyperplane", metavar="SUBSPACE")
    p.add_argument("--trace-point", metavar="SUBSPACE")
    p.add_argument("--xi-bound", action="store_true")
    p.add_argument("--xi", type=int, default=None)
    p.add_argument("--flag", type=int, default=None,
                   help="reference flag ordinal for --xi-bound")
    p.add_argument("--timing", action="store_true",
                   help="keep per-check timings in the report")
    common(p, "verify_report.json")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("color", help="build a covering by independent sets")
    p.add_argument("--scheme", choices=("mi", "trivial"), required=True)
    p.add_argument("--q", type=int, required=True)
    common(p, "color_report.json")
    p.set_defaults(fn=cmd_color)

    p = sub.add_parser("oracle", help="run a brute-force counting oracle")
    p.add_argument("oracle", choices=ORACLE_NAMES)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--u", type=int, choices=(1, 2))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sweeps", type=int, default=0,
                   help="number of random configurations on top of the "
                        "canonical one")
    p.add_argument("--grid", choices=("small", "full"), default="small",
                   help="skew-count tuple range: small (n<=3) or full (n<=5)")
    p.add_argument("--family", choices=("line_star", "solid_full"))
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--k", type=int, default=-1)
    p.add_argument("--l", type=int, default=-1)
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads for config sweeps (default 1)")
    common(p, "oracle_report.json")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("export", help="write the graph in DIMACS edge format")
    p.add_argument("--format", default="dimacs")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--max-vertices", dest="max_vertices", type=int,
                   help="export only the subgraph induced by the first N flags")
    p.add_argument("--confirm-size", dest="confirm_size", action="store_true",
                   help="allow the full multi-gigabyte export")
    common(p, "graph.dimacs")
    p.set_defaults(fn=cmd_export)
    return parser


def main(argv=None) -> int:
    run = _Run()
    args = build_parser().parse_args(argv)
    manifest = args.manifest or args.out + ".manifest.json"
    try:
        _check_outputs(args, manifest)
        code = args.fn(args, run)
        run.finish(args, manifest)
        return code
    except ValueError as exc:
        label = ("precondition failed"
                 if isinstance(exc, verify_mod.PreconditionError) else "error")
        print("%s: %s" % (label, exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
