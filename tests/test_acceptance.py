"""Acceptance gate: ten end-to-end criteria, one printed line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines. Every expected value is exact; there are no tolerances.
"""
import time

import numpy as np
import pytest

from flagkneser.constructions import (GIVEN_FAMILIES, LambdaSpec,
                                      build_coloring_scheme, build_lambda,
                                      canonical_frame,
                                      count_lambda, realize_coloring,
                                      trivial_coloring_scheme)
from flagkneser.counting import (chromatic_lower_poly, ekr_planes_max,
                                 gaussian, independence_number_expanded,
                                 independence_number_formula,
                                 lambda_family_size,
                                 planes_meeting_two_solids_bound,
                                 planes_meeting_two_solids_exact, s,
                                 solids_meeting_three_planes_bound,
                                 universe_size_formula)
from flagkneser.flags import adjacent_bits
from flagkneser.galois import SUPPORTED_ORDERS
from flagkneser.oracle import (count_planes_meeting_two_solids,
                               count_solids_meeting_three_planes,
                               line_meeting_family_check,
                               sample_three_planes_config, skew_count_grid,
                               skew_count_tuples)
from flagkneser.projective import dualize, enumerate_subspaces
from flagkneser.verify import (check_coloring, check_hyperplane_trace_ekr,
                               check_independent, check_maximal,
                               check_saturation, chromatic_lower_report,
                               saturation_profile)

LIMITS = {1: 600, 2: 300, 3: 600, 4: 120, 5: 300, 6: 900, 7: 900, 8: 300,
          9: 120, 10: 120}


def _report(num, label, problems, t0):
    elapsed = time.time() - t0
    if elapsed > LIMITS[num]:
        problems = problems + ["over time budget: %.1fs > %ds"
                               % (elapsed, LIMITS[num])]
    verdict = "PASS" if not problems else "FAIL"
    print("criterion %02d  %-62s %s  %.1fs" % (num, label, verdict, elapsed))
    assert not problems, "criterion %02d: %s" % (num, "; ".join(problems))


@pytest.fixture(scope="module")
def families(uni2, frame2):
    """All constructed families at q=2, keyed by a short label."""
    fr = frame2
    pencil = LambdaSpec(kind="H_P", hyperplane=fr["hyperplane"],
                        point=fr["point"]).members(2)
    full = LambdaSpec(kind="H_U", hyperplane=fr["hyperplane"],
                      four_space=fr["four_space"]).members(2)
    hyp_solids = LambdaSpec(kind="P_H", point=fr["point"],
                            hyperplane=fr["hyperplane"]).members(2)
    star_solids = LambdaSpec(kind="P_l", point=fr["point"],
                             line=fr["line"]).members(2)
    specs = {
        "P_H": LambdaSpec(kind="P_H", point=fr["point"],
                          hyperplane=fr["hyperplane"]),
        "H_P": LambdaSpec(kind="H_P", hyperplane=fr["hyperplane"],
                          point=fr["point"]),
        "P_l": LambdaSpec(kind="P_l", point=fr["point"], line=fr["line"]),
        "H_U": LambdaSpec(kind="H_U", hyperplane=fr["hyperplane"],
                          four_space=fr["four_space"]),
        "H_E/pencil": LambdaSpec(kind="H_E", hyperplane=fr["hyperplane"],
                                 plane_family=pencil),
        "H_E/full": LambdaSpec(kind="H_E", hyperplane=fr["hyperplane"],
                               plane_family=full),
        "P_S/hyperplane": LambdaSpec(kind="P_S", point=fr["point"],
                                     solid_family=hyp_solids),
        "P_S/star": LambdaSpec(kind="P_S", point=fr["point"],
                               solid_family=star_solids),
        "H_empty": LambdaSpec(kind="H_empty", hyperplane=fr["hyperplane"]),
        "P_empty": LambdaSpec(kind="P_empty", point=fr["point"],
                              four_space=fr["four_space"]),
    }
    return {name: build_lambda(sp, uni2) for name, sp in specs.items()}


MAXIMAL_KINDS = ("P_H", "H_P", "P_l", "H_U", "H_E/pencil", "H_E/full",
                 "P_S/hyperplane", "P_S/star")


def test_criterion_01_anchored_families(uni2, families):
    t0 = time.time()
    problems = []
    for name in ("P_H", "H_P", "P_l", "H_U"):
        fam = families[name]
        if fam.cardinality != 11005:
            problems.append("%s has %d flags" % (name, fam.cardinality))
        if not check_independent(fam).passed:
            problems.append("%s not independent" % name)
        if not check_maximal(fam).passed:
            problems.append("%s not maximal" % name)
    _report(1, "four anchored families at q=2: 11005 flags, "
               "independent, maximal", problems, t0)


def test_criterion_02_hyperplane_family_sizes(frame3):
    t0 = time.time()
    problems = []
    for q in (2, 3):
        fr = canonical_frame(q)
        expected = lambda_family_size(ekr_planes_max(q), q)
        for kind, kw in (("point_pencil", {"point": fr["point"]}),
                         ("subspace_full", {"four_space": fr["four_space"]})):
            fam = LambdaSpec(kind=GIVEN_FAMILIES[kind],
                             hyperplane=fr["hyperplane"], **kw).members(q)
            spec = LambdaSpec(kind="H_E", hyperplane=fr["hyperplane"],
                              plane_family=fam)
            got = count_lambda(spec, q)
            if got != expected:
                problems.append("q=%d %s: %d != %d"
                                % (q, kind, got, expected))
    for q in SUPPORTED_ORDERS:
        if q <= 16 and (independence_number_expanded(q)
                        != independence_number_formula(q)):
            problems.append("polynomial forms disagree at q=%d" % q)
    _report(2, "hyperplane family sizes match the closed form at q=2,3; "
               "polynomial forms agree", problems, t0)


def test_criterion_03_skew_count_grid():
    t0 = time.time()
    problems = []
    per_tuple = 11  # canonical plus 10 seeded configurations
    for q in (2, 3):
        results = skew_count_grid(q, n_max=5, samples=10, seed=0)
        bad = [r for r in results if not r.passed]
        if bad:
            problems.append("q=%d: %d mismatches, first %s"
                            % (q, len(bad), bad[0].parameters))
        if len(results) != per_tuple * len(skew_count_tuples(5)):
            problems.append("q=%d: unexpected result count %d"
                            % (q, len(results)))
    _report(3, "skew subspace counts match s(l,k,d,n) for n<=5, q=2,3",
            problems, t0)


def test_criterion_04_planes_meeting_two_solids():
    t0 = time.time()
    problems = []
    r22 = count_planes_meeting_two_solids(2, u=2)
    if r22.count != 267:
        problems.append("(q=2,u=2) brute force gave %d" % r22.count)
    for q in (2, 3):
        bound = 2 * q**6 + 2 * q**5 + 3 * q**4 + 2 * q**3 + 2 * q**2 + q + 1
        if bound != planes_meeting_two_solids_bound(q):
            problems.append("bound polynomial mismatch at q=%d" % q)
        for u in (1, 2):
            r = count_planes_meeting_two_solids(q, u=u)
            if r.count != planes_meeting_two_solids_exact(u, q):
                problems.append("(q=%d,u=%d): %d != closed form"
                                % (q, u, r.count))
            if r.count > bound:
                problems.append("(q=%d,u=%d): %d exceeds bound %d"
                                % (q, u, r.count, bound))
    _report(4, "planes through a point meeting two solids: brute force == "
               "closed form, under bound", problems, t0)


def test_criterion_05_three_planes_bound():
    t0 = time.time()
    problems = []
    bound = solids_meeting_three_planes_bound(2)
    if bound != 539:
        problems.append("bound at q=2 is %d" % bound)
    for seed in range(20):
        cfg = sample_three_planes_config(2, np.random.default_rng(seed))
        r = count_solids_meeting_three_planes(2, config=cfg)
        if not r.passed or r.count > 539:
            problems.append("seed %d: count %d" % (seed, r.count))
    _report(5, "20 seeded three-plane configurations stay under the "
               "539 solid bound", problems, t0)


def test_criterion_06_coloring(uni2, frame2):
    t0 = time.time()
    problems = []
    q = 2
    scheme = build_coloring_scheme(frame2["point"], frame2["line"],
                                   frame2["plane"], frame2["four_space"],
                                   frame2["second_point"])
    classes = realize_coloring(scheme.classes, uni2)
    if len(classes) != 29 or 29 != q**4 + q**3 + q**2 + 1:
        problems.append("mi scheme has %d classes" % len(classes))
    rep = check_coloring(classes)
    if not rep.passed:
        problems.append("mi classes fail: %s"
                        % [c.name for c in rep.checks if not c.passed])
    covered = sum(c.cardinality for c in classes)
    if covered < 177165 or universe_size_formula(q) != 177165:
        problems.append("cover total %d" % covered)
    trivial = realize_coloring(trivial_coloring_scheme(frame2["four_space"]),
                               uni2)
    if len(trivial) != 31 or not check_coloring(trivial).passed:
        problems.append("trivial scheme has %d classes" % len(trivial))
    low = chromatic_lower_report(q, uni2)
    if not (low["ratio_lower_bound"] == 17 == low["polynomial_lower_bound"]
            and low["agree"] and chromatic_lower_poly(q) == 17):
        problems.append("lower bound report %s" % low)
    _report(6, "29-class covering by maximal independent sets; chromatic "
               "lower bound 17", problems, t0)


def test_criterion_07_saturation(uni2, frame2, families):
    t0 = time.time()
    problems = []
    for name in MAXIMAL_KINDS:
        rep = check_saturation(families[name])
        if not rep.passed:
            problems.append("%s: %s" % (name, [c.name for c in rep.checks
                                               if not c.passed]))
    solids_of_h = {t.rows for t in
                   enumerate_subspaces(6, 2, 3, within=frame2["hyperplane"])}
    for name in ("H_E/pencil", "H_E/full"):
        prof = saturation_profile(families[name])
        got = {t.rows for t in prof.saturated_solids()}
        if got != solids_of_h:
            problems.append("%s saturated solids differ from the solids "
                            "of H" % name)
    _report(7, "saturation structure of all maximal families; hyperplane "
               "families saturate exactly H", problems, t0)


def test_criterion_08_hyperplane_traces(frame2, families):
    t0 = time.time()
    problems = []
    if s(1, 4, q=2) != 155:
        problems.append("s(1,4) at q=2 is %d" % s(1, 4, q=2))
    for name, fam in families.items():
        rep = check_hyperplane_trace_ekr(fam, frame2["hyperplane"])
        if not rep.passed:
            problems.append("%s trace fails" % name)
        if rep.cardinality > 155:
            problems.append("%s trace has %d planes" % (name,
                                                        rep.cardinality))
    _report(8, "hyperplane traces of all families pairwise intersect, "
               "at most 155 planes", problems, t0)


def test_criterion_09_line_meeting_families():
    t0 = time.time()
    problems = []
    if s(3, q=2) != 15 or gaussian(6, 3, 2) != 1395:
        problems.append("frame constants off")
    for kind in ("line_star", "solid_full"):
        r = line_meeting_family_check(2, kind=kind)
        if r.count != 15:
            problems.append("%s has %d planes" % (kind, r.count))
        if not (r.passed and r.details["maximal"]
                and r.details["planes_swept"] == 1395):
            problems.append("%s not maximal under the exhaustive sweep"
                            % kind)
    _report(9, "both line-meeting plane families in PG(5,2) have 15 planes, "
               "maximal", problems, t0)


def test_criterion_10_duality(uni2, frame2, families):
    t0 = time.time()
    problems = []
    rng = np.random.default_rng(20260814)
    pairs = rng.integers(0, uni2.flag_count, size=(100000, 2))
    uniq = np.unique(pairs)
    dual = {int(i): uni2.dual_ordinal(int(i)) for i in uniq}
    if any(uni2.dual_ordinal(d) != i for i, d in dual.items()):
        problems.append("dualization is not an involution")

    def adj(i, j):
        planes, solids = uni2.plane_bits, uni2.solid_bits
        return adjacent_bits(planes.take(i, axis=1), solids.take(i, axis=1),
                             planes.take(j, axis=1), solids.take(j, axis=1))

    i, j = pairs[:, 0], pairs[:, 1]
    di = np.array([dual[int(v)] for v in i])
    dj = np.array([dual[int(v)] for v in j])
    before, after = adj(i, j), adj(di, dj)
    if not np.array_equal(before, after):
        k = int(np.flatnonzero(before != after)[0])
        problems.append("adjacency not preserved on pair %d" % k)

    image = sorted(uni2.dual_ordinal(int(o))
                   for o in families["P_H"].ordinals())
    mirrored = build_lambda(
        LambdaSpec(kind="H_P", hyperplane=dualize(frame2["point"]),
                   point=dualize(frame2["hyperplane"])), uni2)
    if image != [int(o) for o in mirrored.ordinals()]:
        problems.append("dual image of the P_H family is not the mirrored "
                        "H_P family")
    if len(image) != families["P_H"].cardinality:
        problems.append("dual image changed size")
    _report(10, "flag duality: involution, adjacency-preserving on 100000 "
                "pairs, swaps family kinds", problems, t0)
