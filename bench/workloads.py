"""The three benchmark workloads, their inputs and their exact checks.

Each workload has

* ``setup()``: what a user pays before the first result (import, field
  tables, the q=2 universe where the workload needs it).  ``probe.py``
  times it in fresh processes for ``setup_s``;
* ``prepare(...)``: benchmark inputs built once per run, untimed;
* ``make_pass(...)``: the job list of one pass, built from the seed and the
  pass index before the pass clock starts.

A job is a callable plus a check.  The pass clock covers only the
callables; every check runs after the pass, against an exact expected
value, and a job that raises or fails its check counts in ``failed``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from flagkneser import (cli, constructions, flags, galois,  # noqa: E402
                        oracle, verify)

from tracer import Target  # noqa: E402

WORK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_work")

# Exact expected values.  The counts are the paper's; the digests and the
# edge counts were frozen from the package at the commit that added the
# benchmark, whose test suite checks the same outputs by other means.
FAMILY_SIZE = 11005            # |Lambda| at q=2 for every anchored kind
UNIVERSE_Q2 = 177165           # plane-solid flags of PG(6,2)
MI_CLASSES = 29                # q^4 + q^3 + q^2 + 1 at q=2
LAMBDA_Q3 = 473110             # |Lambda| at q=3
SKEW_TUPLES = {3: 56, 5: 225}  # len(skew_count_tuples(n_max))
VERIFY_REPORT_SHA256 = \
    "e7714a6cb2904e7994968d8cfd838f5702608af574cf4b5945348163bc6d0f9f"
DIMACS = {  # max_vertices: (edges, sha256 of the file)
    6000: (1622016,
           "70efae1a5772428b6e58e84ea5cdc04399d69af2388e3f45d171c71892ae82e5"),
    1500: (55296,
           "48058546ca549a6edbcf21c83d03592d6d13ef0e125e8b35af0f89ced7a4282e"),
}

ANCHORED_KINDS = ("P_H", "H_P", "P_l", "H_U")


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]   # None when the output is right


@dataclass
class Sizes:
    """Per-pass input sizes; ``quick`` shrinks them for the self-tests."""

    dual_sample: int        # flags dualized per pass (q2_verify)
    dual_rows: int          # of those, flags whose adjacency rows are compared
    color_chunk: int        # mi classes handed to check_coloring per pass
    grid_n_max: int         # skew_count_grid range (q3_count)
    export_vertices: int    # export --max-vertices (cli_files)


FULL = Sizes(dual_sample=1400, dual_rows=40, color_chunk=3, grid_n_max=5,
             export_vertices=6000)
QUICK = Sizes(dual_sample=40, dual_rows=4, color_chunk=1, grid_n_max=3,
              export_vertices=1500)


@dataclass
class Context:
    seed: int
    sizes: Sizes
    doctor: bool
    data: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)   # from prepare()
    bytes_written: int = 0                              # last pass, cli_files


def _expect(ok: bool, what: str) -> str | None:
    return None if ok else what


def _report_ok(report) -> str | None:
    if report.passed:
        return None
    bad = [c for c in report.checks if not c.passed]
    return "%s failed: %s" % (report.subject,
                              [(c.name, c.witness) for c in bad])


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _anchored_specs(frame) -> dict:
    LambdaSpec = constructions.LambdaSpec
    return {
        "P_H": LambdaSpec(kind="P_H", point=frame["point"],
                          hyperplane=frame["hyperplane"]),
        "H_P": LambdaSpec(kind="H_P", hyperplane=frame["hyperplane"],
                          point=frame["point"]),
        "P_l": LambdaSpec(kind="P_l", point=frame["point"], line=frame["line"]),
        "H_U": LambdaSpec(kind="H_U", hyperplane=frame["hyperplane"],
                          four_space=frame["four_space"]),
    }


def _doctor_flag(universe, family) -> int:
    """The least flag adjacent to the least member of the family."""
    first = int(family.ordinals()[0])
    return int(np.argmax(universe.adjacent_mask(first)))


# ---------------------------------------------------------------------------
# q2_verify: checkers and duality over the materialized q=2 universe


def setup_q2():
    universe = flags.build_universe(2)
    frame = constructions.canonical_frame(2)
    return {"universe": universe, "frame": frame}


def prepare_q2(state, ctx: Context) -> None:
    uni, frame = state["universe"], state["frame"]
    specs = _anchored_specs(frame)
    scheme = constructions.build_coloring_scheme(
        frame["point"], frame["line"], frame["plane"], frame["four_space"],
        frame["second_point"])
    classes = constructions.realize_coloring(scheme.classes, uni)
    covered = np.logical_or.reduce([c.mask for c in classes])
    if len(classes) != MI_CLASSES:
        ctx.problems.append("mi coloring has %d classes" % len(classes))
    if any(c.cardinality != FAMILY_SIZE for c in classes):
        ctx.problems.append("an mi class is not of size %d" % FAMILY_SIZE)
    if int(np.count_nonzero(covered)) != UNIVERSE_Q2:
        ctx.problems.append("mi classes cover %d of %d flags"
                            % (np.count_nonzero(covered), UNIVERSE_Q2))
    ctx.data.update(universe=uni, specs=specs, classes=classes)
    if ctx.doctor:
        ctx.data["doctor_flags"] = {
            kind: _doctor_flag(uni, constructions.build_lambda(spec, uni))
            for kind, spec in specs.items()}


def pass_q2(state, ctx: Context, index: int) -> list[Job]:
    uni = ctx.data["universe"]
    specs, classes = ctx.data["specs"], ctx.data["classes"]
    sz = ctx.sizes
    rng = np.random.default_rng([ctx.seed, index])
    sample = [int(o) for o in rng.integers(0, uni.flag_count, size=sz.dual_sample)]
    rows = sample[:sz.dual_rows]
    checked_kind = ANCHORED_KINDS[(ctx.seed + index) % len(ANCHORED_KINDS)]
    first_class = (ctx.seed * 7 + index * sz.color_chunk) % len(classes)
    chunk = [classes[(first_class + i) % len(classes)]
             for i in range(sz.color_chunk)]
    fams: dict = {}

    def build(kind):
        def run():
            fam = constructions.build_lambda(specs[kind], uni)
            size = fam.cardinality
            if ctx.doctor:
                fam.mask[ctx.data["doctor_flags"][kind]] = True
            fams[kind] = fam
            return size
        return Job("build_lambda:" + kind, run,
                   lambda size: _expect(size == FAMILY_SIZE,
                                        "%s has %s flags" % (kind, size)))

    def duality():
        dual = [uni.dual_ordinal(o) for o in sample]
        back = [uni.dual_ordinal(d) for d in dual]
        adj = [uni.adjacent_mask(o)[sample] for o in rows]
        adj_dual = [uni.adjacent_mask(d)[dual] for d in dual[:len(rows)]]
        return back, adj, adj_dual

    def duality_ok(out) -> str | None:
        back, adj, adj_dual = out
        if back != sample:
            return "dual_ordinal is not an involution on the sample"
        if not np.array_equal(np.array(adj), np.array(adj_dual)):
            return "duality does not preserve adjacency on the sample"
        return None

    def chunk_uncovered() -> int:
        covered = np.logical_or.reduce([c.mask for c in chunk])
        return int(np.flatnonzero(~covered)[0])

    def coloring_ok(report) -> str | None:
        independent, cover = report.checks
        if not independent.passed:
            return "coloring class not independent: %s" % independent.witness
        if cover.passed or cover.witness != {"uncovered_flag": chunk_uncovered()}:
            return "partial coloring cover witness %s" % cover.witness
        return None

    jobs = [build(kind) for kind in ANCHORED_KINDS]
    jobs += [
        Job("check_independent:" + checked_kind,
            lambda: verify.check_independent(fams[checked_kind]), _report_ok),
        Job("check_maximal:" + checked_kind,
            lambda: verify.check_maximal(fams[checked_kind]), _report_ok),
        Job("check_saturation:P_l",
            lambda: verify.check_saturation(fams["P_l"]), _report_ok),
        # A slice of the 29-class coloring: its classes must be independent
        # and its cover check must name the least flag the slice misses.
        Job("check_coloring", lambda: verify.check_coloring(chunk),
            coloring_ok),
        Job("duality", duality, duality_ok),
    ]
    return jobs


# ---------------------------------------------------------------------------
# q3_count: enumeration counting and numpy oracles at q=3, no universe


def setup_q3():
    galois.build_field(3)
    return {"frame": constructions.canonical_frame(3)}


def prepare_q3(state, ctx: Context) -> None:
    frame = state["frame"]
    ctx.data["spec"] = constructions.LambdaSpec(
        kind="H_U", hyperplane=frame["hyperplane"],
        four_space=frame["four_space"])
    if ctx.doctor:
        ctx.problems.append("--doctor applies to q2_verify and cli_files")


def pass_q3(state, ctx: Context, index: int) -> list[Job]:
    sz = ctx.sizes
    rng = np.random.default_rng([ctx.seed, index])
    two_solids = {u: oracle.sample_two_solids_config(3, u, rng) for u in (1, 2)}
    three_planes = oracle.sample_three_planes_config(3, rng)
    grid_seed = int(rng.integers(1 << 31))
    # skew_count_grid gives a canonical and a seeded result per tuple
    grid_len = 2 * SKEW_TUPLES[sz.grid_n_max]

    def grid_ok(results) -> str | None:
        bad = [r.parameters for r in results if not r.passed]
        return _expect(len(results) == grid_len and not bad,
                       "skew grid: %d results, mismatches %s"
                       % (len(results), bad[:1]))

    def oracle_ok(result) -> str | None:
        return _expect(result.passed, "%s failed: count %d %s %d"
                       % (result.name, result.count, result.relation,
                          result.expected))

    jobs = [
        Job("count_lambda:H_U",
            lambda: constructions.count_lambda(ctx.data["spec"], 3),
            lambda n: _expect(n == LAMBDA_Q3, "count_lambda gave %s" % n)),
        Job("skew_count_grid",
            lambda: oracle.skew_count_grid(3, n_max=sz.grid_n_max,
                                           samples=1,
                                           seed=grid_seed),
            grid_ok),
    ]
    for u, cfg in two_solids.items():
        jobs.append(Job("planes_meeting_two_solids:u=%d" % u,
                        lambda cfg=cfg: oracle.count_planes_meeting_two_solids(3, cfg),
                        oracle_ok))
    jobs.append(Job("solids_meeting_three_planes",
                    lambda: oracle.count_solids_meeting_three_planes(3, three_planes),
                    oracle_ok))
    return jobs


# ---------------------------------------------------------------------------
# cli_files: the command line as users run it, writing real files


def setup_cli():
    universe = flags.build_universe(2)
    return {"universe": universe}


def prepare_cli(state, ctx: Context) -> None:
    os.makedirs(WORK_DIR, exist_ok=True)
    if ctx.doctor:
        uni = state["universe"]
        frame = constructions.canonical_frame(2)
        pl = constructions.build_lambda(_anchored_specs(frame)["P_l"], uni)
        ctx.data["doctor_flag"] = _doctor_flag(uni, pl)


def _doctor_file(path: str, ordinal: int) -> None:
    """Add one ordinal to a saved flag set, keeping the file well formed."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith("count "))
    body = sorted({int(x) for x in lines[at + 1:]} | {ordinal})
    lines = lines[:at] + ["count %d" % len(body)] + [str(o) for o in body]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def pass_cli(state, ctx: Context, index: int) -> list[Job]:
    def w(name: str) -> str:
        return os.path.join(WORK_DIR, name)

    nv = ctx.sizes.export_vertices
    outputs = [w(n) for n in ("lambda.flags", "lambda.json", "construct.manifest.json",
                              "verify.json", "verify.manifest.json", "graph.dimacs",
                              "export.manifest.json", "formulas.json",
                              "count.manifest.json")]
    for path in outputs:
        if os.path.exists(path):
            os.remove(path)

    def command(argv, after=None):
        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                rc = cli.main(argv)
            if after is not None:
                after()
            return rc, out.getvalue()
        return run

    def construct_after():
        if ctx.doctor:
            _doctor_file(w("lambda.flags"), ctx.data["doctor_flag"])

    def rc_and(check):
        def go(result) -> str | None:
            rc, printed = result
            if rc != 0:
                return "exit code %s: %s" % (rc, " | ".join(
                    ln.strip() for ln in printed.splitlines() if "FAIL" in ln))
            return check()
        return go

    def verify_ok() -> str | None:
        digest = _sha256(w("verify.json"))
        return _expect(digest == VERIFY_REPORT_SHA256,
                       "verify report sha256 %s" % digest)

    def export_ok() -> str | None:
        edges, want = DIMACS[nv]
        with open(w("graph.dimacs")) as fh:
            header = next(ln for ln in fh if ln.startswith("p "))
        if header.split() != ["p", "edge", str(nv), str(edges)]:
            return "DIMACS header %r" % header.strip()
        digest = _sha256(w("graph.dimacs"))
        return _expect(digest == want, "DIMACS sha256 %s" % digest)

    def count_ok() -> str | None:
        with open(w("formulas.json")) as fh:
            values = json.load(fh)["values"]
        got = values["independence_number"]["value"]
        return _expect(got == LAMBDA_Q3, "independence_number = %s" % got)

    jobs = [
        Job("cli construct", command(
            ["construct", "--kind", "P_l", "--q", "2", "--canonical",
             "--out", w("lambda.flags"), "--report", w("lambda.json"),
             "--manifest", w("construct.manifest.json")], construct_after),
            rc_and(lambda: None)),
        Job("cli verify", command(
            ["verify", w("lambda.flags"), "--all", "--out", w("verify.json"),
             "--manifest", w("verify.manifest.json")]),
            rc_and(verify_ok)),
        Job("cli export", command(
            ["export", "--q", "2", "--max-vertices", str(nv),
             "--out", w("graph.dimacs"), "--manifest", w("export.manifest.json")]),
            rc_and(export_ok)),
        Job("cli count", command(
            ["count", "--q", "3", "--out", w("formulas.json"),
             "--manifest", w("count.manifest.json")]),
            rc_and(count_ok)),
    ]
    ctx.data["outputs"] = outputs
    return jobs


def after_pass_cli(ctx: Context) -> None:
    ctx.bytes_written = sum(os.path.getsize(p) for p in ctx.data["outputs"]
                            if os.path.exists(p))


def cleanup_cli(ctx: Context) -> None:
    for path in ctx.data.get("outputs", []):
        if os.path.exists(path):
            os.remove(path)
    with contextlib.suppress(OSError):
        os.rmdir(WORK_DIR)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    prepare: Callable
    make_pass: Callable
    after_pass: Callable | None = None
    cleanup: Callable | None = None


WORKLOADS = {
    "q2_verify": Workload("q2_verify", setup_q2, prepare_q2, pass_q2),
    "q3_count": Workload("q3_count", setup_q3, prepare_q3, pass_q3),
    "cli_files": Workload("cli_files", setup_cli, prepare_cli, pass_cli,
                          after_pass_cli, cleanup_cli),
}


# ---------------------------------------------------------------------------
# Traced layers.  Hot inner calls keep counters only; coarse calls get spans.


def _count(key, fn):
    return lambda args, kwargs, result: {key: fn(args, kwargs, result)}


def _input_pairs(args, kwargs, result):
    n = args[0].cardinality
    return {"input_pairs": n * (n - 1) // 2}


def _export_work(args, kwargs, result):
    return {"edges": result["edges"], "bytes": os.path.getsize(args[1])}


TARGETS = [
    # hot inner calls: counters and busy time only
    Target("flagkneser.linalg", "rref", "linalg.rref"),
    Target("flagkneser.linalg", "mat_from_combo", "linalg.mat_from_combo"),
    Target("flagkneser.linalg", "batch_point_bitsets", "linalg.batch_point_bitsets",
           work=_count("rows", lambda a, k, r: a[0].shape[0])),
    Target("flagkneser.projective", "meet", "projective.meet"),
    Target("flagkneser.projective", "span", "projective.span"),
    Target("flagkneser.projective", "point_bitset", "projective.point_bitset"),
    Target("flagkneser.projective:PatternCodec", "unrank",
           "projective.PatternCodec.unrank"),
    Target("flagkneser.projective", "enumerate_subspaces",
           "projective.enumerate_subspaces", generator=True),
    Target("flagkneser.flags:FlagUniverse", "flag", "flags.FlagUniverse.flag"),
    Target("flagkneser.flags:FlagUniverse", "ordinal_of",
           "flags.FlagUniverse.ordinal_of"),
    Target("flagkneser.flags:FlagUniverse", "dual_ordinal",
           "flags.FlagUniverse.dual_ordinal"),
    Target("flagkneser.flags:FlagUniverse", "adjacent_mask",
           "flags.FlagUniverse.adjacent_mask"),
    Target("flagkneser.oracle", "random_subspace", "oracle.random_subspace"),
    Target("flagkneser.oracle", "sample_skew_pair", "oracle.sample_skew_pair"),
    Target("flagkneser.oracle", "sample_two_solids_config",
           "oracle.sample_two_solids_config"),
    Target("flagkneser.oracle", "sample_three_planes_config",
           "oracle.sample_three_planes_config"),
    # coarse public calls: spans
    Target("flagkneser.flags", "build_universe", "flags.build_universe", span=True),
    Target("flagkneser.flags", "save_flagset", "flags.save_flagset", span=True),
    Target("flagkneser.flags", "load_flagset", "flags.load_flagset", span=True),
    Target("flagkneser.flags", "export_dimacs", "flags.export_dimacs", span=True,
           work=_export_work),
    Target("flagkneser.constructions", "build_lambda", "constructions.build_lambda",
           span=True),
    Target("flagkneser.constructions", "count_lambda", "constructions.count_lambda",
           span=True),
    Target("flagkneser.verify", "check_independent", "verify.check_independent",
           span=True, work=_input_pairs),
    Target("flagkneser.verify", "check_maximal", "verify.check_maximal", span=True,
           work=_count("input_members", lambda a, k, r: a[0].cardinality)),
    Target("flagkneser.verify", "check_saturation", "verify.check_saturation",
           span=True),
    Target("flagkneser.verify", "saturation_profile", "verify.saturation_profile",
           span=True),
    Target("flagkneser.verify", "check_coloring", "verify.check_coloring", span=True),
    Target("flagkneser.oracle", "skew_count_grid", "oracle.skew_count_grid",
           span=True, work=_count("results", lambda a, k, r: len(r))),
    Target("flagkneser.oracle", "count_planes_meeting_two_solids",
           "oracle.count_planes_meeting_two_solids", span=True),
    Target("flagkneser.oracle", "count_solids_meeting_three_planes",
           "oracle.count_solids_meeting_three_planes", span=True),
    Target("flagkneser.cli", "main", "cli.main", span=True),
    Target("flagkneser.cli", "cmd_construct", "cli.construct", span=True),
    Target("flagkneser.cli", "cmd_verify", "cli.verify", span=True),
    Target("flagkneser.cli", "cmd_export", "cli.export", span=True),
    Target("flagkneser.cli", "cmd_count", "cli.count", span=True),
]

SAMPLERS = ("oracle.sample_skew_pair", "oracle.sample_two_solids_config",
            "oracle.sample_three_planes_config")
