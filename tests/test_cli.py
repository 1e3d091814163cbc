"""End-to-end CLI runs, driven in-process through main(argv)."""
import argparse
import json
import os
import subprocess
import sys
import time

import pytest

import flagkneser
from flagkneser import canonical_frame, subspace_to_text
from flagkneser import cli
from flagkneser import oracle as oracle_mod
from flagkneser.cli import main


def run(argv):
    try:
        return main(argv)
    except SystemExit as e:  # argparse error paths
        return e.code


def test_count_values(tmp_path, capsys):
    out = tmp_path / "formulas.json"
    code = run(["count", "--q", "2", "independence_number", "gaussian:7,4",
                "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "11005" in text and "11811" in text
    payload = json.loads(out.read_text())
    assert payload["q"] == 2
    assert payload["values"]["independence_number"]["value"] == 11005
    assert (tmp_path / "formulas.json.manifest.json").exists()


def test_count_unknown_formula_exits_2(tmp_path, capsys):
    code = run(["count", "--q", "2", "no_such_formula",
                "--out", str(tmp_path / "f.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "no_such_formula" in err and "independence_number" in err


def test_count_names_an_unparsable_entry(tmp_path, capsys):
    out = tmp_path / "f.json"
    assert run(["count", "--q", "2", "gaussian:7,x", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: gaussian:7,x: parameters must be integers, got '7,x'\n")
    assert not out.exists()


def test_count_refuses_a_negative_plane_count(tmp_path, capsys):
    # s(3,5) s(3) - 5 q^3 is no family size
    out = tmp_path / "f.json"
    assert run(["count", "--q", "2", "lambda_family_size:-5",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: m must be nonnegative\n"
    assert not out.exists()


def test_count_unsupported_q_exits_2(tmp_path, capsys):
    code = run(["count", "--q", "6", "independence_number",
                "--out", str(tmp_path / "f.json")])
    assert code == 2


def test_construct_and_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "ph.flags"
    report = tmp_path / "ph.json"
    code = run(["construct", "--kind", "P_H", "--q", "2", "--canonical",
                "--out", str(out), "--report", str(report)])
    assert code == 0
    rep = json.loads(report.read_text())
    assert rep["cardinality"] == 11005 == rep["expected"] and rep["match"]
    assert out.exists()

    vout = tmp_path / "verify.json"
    code = run(["verify", str(out), "--independent", "--maximal",
                "--out", str(vout)])
    assert code == 0
    text = capsys.readouterr().out
    assert "pass" in text
    vrep = json.loads(vout.read_text())
    assert vrep["cardinality"] == 11005
    assert all(c["pass"] for c in vrep["checks"])


def test_verify_doctored_set_fails_with_witness(tmp_path, capsys):
    out = tmp_path / "he.flags"
    run(["construct", "--kind", "H_E", "--q", "2", "--canonical",
         "--ekr", "point_pencil", "--out", str(out)])
    lines = out.read_text().splitlines()
    header = [l for l in lines if not l.strip().isdigit()]
    members = set(int(l) for l in lines if l.strip().isdigit())
    # splice in the least nonmember; the family is maximal, so the result
    # must contain an edge
    extra = next(i for i in range(200000) if i not in members)
    ords = sorted(members | {extra})
    header = [("count %d" % len(ords)) if l.startswith("count") else l
              for l in header]
    doctored = tmp_path / "doctored.flags"
    doctored.write_text("\n".join(header + [str(o) for o in ords]) + "\n")
    capsys.readouterr()
    code = run(["verify", str(doctored), "--independent",
                "--out", str(tmp_path / "v.json")])
    text = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in text and "adjacent_pair" in text


HYPERPLANE_TEXT = ("5;1,0,0,0,0,0,0;0,1,0,0,0,0,0;0,0,1,0,0,0,0;"
                   "0,0,0,1,0,0,0;0,0,0,0,1,0,0;0,0,0,0,0,1,0")


def test_verify_all_checks_and_traces(tmp_path, capsys):
    out = tmp_path / "he.flags"
    run(["construct", "--kind", "H_E", "--q", "2", "--canonical",
         "--ekr", "point_pencil", "--out", str(out)])
    capsys.readouterr()
    code = run(["verify", str(out), "--all",
                "--trace-hyperplane", HYPERPLANE_TEXT,
                "--out", str(tmp_path / "v.json")])
    assert code == 0
    vrep = json.loads((tmp_path / "v.json").read_text())
    names = [c["name"] for c in vrep["checks"]]
    assert any("independent" in n for n in names)
    assert any("maximal" in n for n in names)
    assert any("pencil" in n or "saturat" in n for n in names)
    assert any("trace" in n for n in names)


def test_verify_xi_bound_precondition_exit_2(tmp_path, capsys):
    out = tmp_path / "pl.flags"
    run(["construct", "--kind", "P_l", "--q", "2", "--canonical",
         "--out", str(out)])
    capsys.readouterr()
    code = run(["verify", str(out), "--xi-bound", "--flag", "0", "--xi", "1",
                "--out", str(tmp_path / "v.json")])
    assert code in (1, 2)  # either witness failure or precondition refusal
    if code == 2:
        assert "precondition" in capsys.readouterr().err.lower()


def test_color_mi_q2(tmp_path, capsys):
    out = tmp_path / "color.json"
    code = run(["color", "--scheme", "mi", "--q", "2", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["classes"] == 29
    assert rep["cover_complete"] and rep["all_independent"]
    assert rep["class_sizes"] == [11005] == rep["expected_class_sizes"]
    assert rep["lower_bound"]["ratio_lower_bound"] == 17


def test_color_trivial_q2(tmp_path):
    out = tmp_path / "color.json"
    assert run(["color", "--scheme", "trivial", "--q", "2",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["classes"] == 31 and rep["cover_complete"]


def test_color_cross_checks_the_built_universe(tmp_path, monkeypatch, uni2):
    # the lower-bound report must see the universe the classes cover; the
    # coloring check itself is stubbed, test_color_trivial_q2 runs it
    seen = []
    real = cli.verify_mod.chromatic_lower_report

    def spy(q, universe=None):
        seen.append(universe)
        return real(q, universe)

    def passing(classes, subject):
        return cli.verify_mod.VerificationReport(
            subject, 2, len(classes), checks=[
                cli.verify_mod.CheckResult(name, True)
                for name in ("classes_independent", "classes_cover_universe")])

    monkeypatch.setattr(cli.verify_mod, "chromatic_lower_report", spy)
    monkeypatch.setattr(cli.verify_mod, "check_coloring", passing)
    out = tmp_path / "color.json"
    assert run(["color", "--scheme", "trivial", "--q", "2",
                "--out", str(out)]) == 0
    assert len(seen) == 1 and seen[0] is uni2
    assert json.loads(out.read_text())["lower_bound"]["universe_cross_checked"]


def test_color_q3_structural(tmp_path):
    out = tmp_path / "color3.json"
    assert run(["color", "--scheme", "mi", "--q", "3",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["classes"] == 118
    assert rep["lower_bound"]["ratio_lower_bound"] == 79
    assert "note" in rep


def test_oracle_two_solids(tmp_path, capsys):
    out = tmp_path / "oracle.json"
    code = run(["oracle", "planes-two-solids", "--q", "2", "--u", "2",
                "--sweeps", "2", "--seed", "5", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["all_passed"]
    assert rep["results"][0]["count"] == 267


def test_oracle_three_planes_with_threads(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["oracle", "solids-three-planes", "--q", "2", "--sweeps", "3",
            "--seed", "11"]
    assert run(args + ["--out", str(out1), "--threads", "1"]) == 0
    assert run(args + ["--out", str(out2), "--threads", "4"]) == 0
    # sweep output must not depend on the thread count
    assert out1.read_text() == out2.read_text()
    rep = json.loads(out1.read_text())
    assert rep["all_passed"] and len(rep["results"]) == 4
    assert rep["results"][0]["count"] == 371


def test_threaded_sweep_enumerates_once(tmp_path, monkeypatch):
    """The first configuration runs before the pool starts, so threads
    find the shared enumeration cached instead of each building it on a
    cold cache."""
    calls = []

    class Counted(oracle_mod.PatternCodec):
        def array(self):
            calls.append((self.m, self.r, self.q))
            time.sleep(0.2)  # a slow build, so workers on a cold cache overlap
            return super().array()

    oracle_mod._all_d_space_bits.cache_clear()
    monkeypatch.setattr(oracle_mod, "PatternCodec", Counted)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["oracle", "solids-three-planes", "--q", "2", "--sweeps", "3"]
    assert run(args + ["--out", str(out2), "--threads", "2"]) == 0
    # the planes of PG(5,2): rank-3 patterns with 6 columns, listed once
    assert calls == [(6, 3, 2)]
    assert run(args + ["--out", str(out1), "--threads", "1"]) == 0
    assert out1.read_text() == out2.read_text()


def test_oracle_skew_grid_small(tmp_path):
    out = tmp_path / "skew.json"
    assert run(["oracle", "skew-count", "--q", "2", "--grid", "small",
                "--sweeps", "2", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["all_passed"] and len(rep["results"]) > 20


def test_oracle_line_meeting_and_complement(tmp_path):
    assert run(["oracle", "line-meeting-family", "--q", "2",
                "--family", "solid_full",
                "--out", str(tmp_path / "lm.json")]) == 0
    rep = json.loads((tmp_path / "lm.json").read_text())
    assert rep["results"][0]["count"] == 15
    assert run(["oracle", "complement-count", "--q", "2", "--n", "6",
                "--d", "3", "--out", str(tmp_path / "c.json")]) == 0
    rep = json.loads((tmp_path / "c.json").read_text())
    assert rep["results"][0]["count"] == 4096
    # --d defaults to 3, so --n 3 asks for the complements of the whole
    # space: the empty subspace alone
    assert run(["oracle", "complement-count", "--q", "2", "--n", "3",
                "--out", str(tmp_path / "c3.json")]) == 0
    rep = json.loads((tmp_path / "c3.json").read_text())
    assert rep["all_passed"] and rep["results"][0]["count"] == 1


def test_negative_seed_is_refused_by_name(tmp_path, capsys):
    assert run(["oracle", "skew-count", "--q", "3", "--seed", "-1",
                "--out", str(tmp_path / "o.json")]) == 2
    assert capsys.readouterr().err == "error: --seed must be at least 0, got -1\n"


@pytest.mark.parametrize("oracle,d", [("complement-count", "-1"),
                                      ("skew-count", "0")])
def test_negative_n_is_refused_by_name(tmp_path, capsys, oracle, d):
    assert run(["oracle", oracle, "--q", "2", "--n", "-1", "--d", d,
                "--out", str(tmp_path / "o.json")]) == 2
    assert capsys.readouterr().err == "error: --n must be at least 0, got -1\n"
    assert not (tmp_path / "o.json").exists()


def test_complement_count_refuses_bitsets_before_enumerating(tmp_path,
                                                             monkeypatch,
                                                             capsys):
    # the 1118481 points of PG(5,16), the complements of a 4-space, would
    # take 156 GB of bitsets: refused from the Gaussian coefficient, with
    # the message basis_bitsets gives, before any point is listed
    def no_enumeration(*args, **kwargs):
        raise AssertionError("d-spaces enumerated for refused bitsets")

    monkeypatch.setattr(oracle_mod, "PatternCodec", no_enumeration)
    assert run(["oracle", "complement-count", "--q", "16", "--n", "5",
                "--d", "4", "--out", str(tmp_path / "c.json")]) == 2
    assert capsys.readouterr().err == (
        "error: point bitsets of 1118481 subspaces of PG(5,16) take "
        "156381539496 bytes, above the cutoff 1073741824\n")
    assert not (tmp_path / "c.json").exists()


def test_export_induced_and_determinism(tmp_path):
    out1 = tmp_path / "g1.dimacs"
    out2 = tmp_path / "g2.dimacs"
    args = ["export", "--q", "2", "--max-vertices", "600"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    head = out1.read_text().splitlines()[:5]
    p_line = next(l for l in head if l.startswith("p "))
    assert p_line.split()[2] == "600"


def test_export_refuses_full_without_confirm(tmp_path, monkeypatch, capsys):
    def no_build(q):
        raise AssertionError("universe built for a refused export")

    monkeypatch.setattr(cli, "build_universe", no_build)
    code = run(["export", "--q", "2", "--out", str(tmp_path / "g.dimacs")])
    assert code == 2
    err = capsys.readouterr().err
    assert "--confirm-size" in err
    assert "177165 vertices, 2902671360 edges" in err
    assert not (tmp_path / "g.dimacs").exists()


def test_export_refuses_q3(tmp_path, capsys):
    code = run(["export", "--q", "3", "--max-vertices", "100",
                "--out", str(tmp_path / "g.dimacs")])
    assert code == 2


def test_manifest_written_and_reproducible(tmp_path):
    out = tmp_path / "f.json"
    run(["count", "--q", "2", "gaussian:7,4", "--out", str(out)])
    man = json.loads((tmp_path / "f.json.manifest.json").read_text())
    assert man["command"] == "count"
    assert man["parameters"]["names"] == ["gaussian:7,4"]
    assert str(out) in man["outputs"]
    assert man["tool_version"] == "0.1.0" and "started" in man


# options a manifest keeps out of its parameters: the output paths, and q
# and seed, which are keys of their own
NOT_PARAMETERS = {"out", "report", "manifest", "q", "seed"}
MANIFEST_KEYS = {"command", "q", "seed", "parameters", "outputs",
                 "tool_version", "started", "elapsed_s"}


def _option_dests(command: str) -> set[str]:
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions
            if a.dest != "help"} - NOT_PARAMETERS


def test_manifest_records_every_option(tmp_path, capsys):
    """Every subcommand's manifest holds each of its options but the
    output paths, q and seed, with the value the run used."""
    frame = canonical_frame(2)
    point, line = (subspace_to_text(frame[k]) for k in ("point", "line"))
    flags = str(tmp_path / "pl.flags")
    construct = ["construct", "--kind", "P_l", "--q", "2",
                 "--point", point, "--line", line, "--out", flags]
    assert run(construct) == 0
    first = int(cli.load_flagset(flags).ordinals()[0])
    runs = {
        "count": ["count", "--q", "2"],
        "construct": construct,
        "verify": ["verify", flags, "--trace-point", point, "--xi-bound",
                   "--xi", "15", "--flag", str(first)],
        "color": ["color", "--scheme", "mi", "--q", "3"],
        "oracle": ["oracle", "complement-count", "--q", "2", "--n", "4",
                   "--d", "1", "--seed", "3"],
        "export": ["export", "--q", "2", "--max-vertices", "10"],
    }
    manifests = {}
    for command, argv in runs.items():
        if "--out" not in argv:
            argv = argv + ["--out", str(tmp_path / (command + ".out"))]
        assert run(argv) == 0, command
        out = argv[argv.index("--out") + 1]
        man = json.loads(open(out + ".manifest.json").read())
        assert set(man) == MANIFEST_KEYS, command
        assert set(man["parameters"]) == _option_dests(command), command
        assert man["command"] == command and man["outputs"][0] == out
        manifests[command] = man
    capsys.readouterr()

    params = {c: m["parameters"] for c, m in manifests.items()}
    assert params["construct"]["point"] == point
    assert params["construct"]["line"] == line
    assert not params["construct"]["canonical"]
    assert params["verify"]["trace_point"] == point
    assert params["verify"]["xi_bound"] and params["verify"]["xi"] == 15
    assert params["verify"]["flag"] == first
    # no check named but the traces, so the default three do not run
    assert not params["verify"]["independent"]
    assert manifests["verify"]["q"] == 2
    assert manifests["oracle"]["seed"] == 3
    assert (params["oracle"]["n"], params["oracle"]["d"]) == (4, 1)
    assert params["export"]["max_vertices"] == 10
    # count's default formula list is recorded as resolved
    assert "independence_number" in params["count"]["names"]
    assert "gaussian" not in params["count"]["names"]


def test_manifest_records_resolved_verify_checks(tmp_path, capsys):
    flags = str(tmp_path / "last.flags")
    with open(flags, "w") as fh:
        fh.write("# flagkneser flag set\nq 2\ncount 1\n177164\n")
    out = str(tmp_path / "v.json")
    # one flag is no maximal set: a failed check still writes its manifest
    assert run(["verify", flags, "--out", out]) == 1
    man = json.loads(open(out + ".manifest.json").read())
    assert man["q"] == 2
    assert all(man["parameters"][c]
               for c in ("independent", "maximal", "saturation"))
    capsys.readouterr()


def test_manifest_elapsed_covers_the_work(tmp_path, monkeypatch):
    real = cli.formulas_report

    def slow(*args):
        time.sleep(0.2)
        return real(*args)

    monkeypatch.setattr(cli, "formulas_report", slow)
    out = tmp_path / "f.json"
    assert run(["count", "--q", "2", "gaussian:7,4", "--out", str(out)]) == 0
    man = json.loads((tmp_path / "f.json.manifest.json").read_text())
    assert man["elapsed_s"] >= 0.2


def test_export_rejects_zero_vertices_before_building(tmp_path, monkeypatch,
                                                       capsys):
    def no_build(q):
        raise AssertionError("universe built for a rejected export")

    monkeypatch.setattr(cli, "build_universe", no_build)
    code = run(["export", "--q", "2", "--max-vertices", "0",
                "--out", str(tmp_path / "g.dimacs")])
    assert code == 2
    assert "at least one vertex" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["dir", "missing/g.dimacs"])
def test_unwritable_output_is_refused_before_building(tmp_path, monkeypatch,
                                                      capsys, out):
    def no_build(q):
        raise AssertionError("universe built for an unwritable output")

    (tmp_path / "dir").mkdir()
    monkeypatch.setattr(cli, "build_universe", no_build)
    code = run(["export", "--q", "2", "--max-vertices", "10",
                "--out", str(tmp_path / out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


def test_output_without_write_permission_is_refused(tmp_path, monkeypatch,
                                                   capsys):
    # os.access stands in for a read-only directory, which a superuser
    # could still write to
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    out = tmp_path / "f.json"
    assert run(["count", "--q", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: cannot write %s: permission denied\n" % out)
    assert not out.exists()


def test_write_error_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    def full_disk(universe, path, **kwargs):
        raise OSError(28, "No space left on device", path)

    monkeypatch.setattr(cli, "export_dimacs", full_disk)
    code = run(["export", "--q", "2", "--max-vertices", "10",
                "--out", str(tmp_path / "g.dimacs")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: [Errno 28] No space left on device: '%s'\n" % (
        tmp_path / "g.dimacs")


def test_verify_timing_per_check(tmp_path, capsys):
    frame = canonical_frame(2)
    flags = str(tmp_path / "he.flags")
    run(["construct", "--kind", "H_E", "--q", "2", "--canonical",
         "--ekr", "point_pencil", "--out", flags])
    argv = ["verify", flags, "--all",
            "--trace-hyperplane", subspace_to_text(frame["hyperplane"]),
            "--trace-point", subspace_to_text(frame["point"]), "--xi-bound"]
    for timing in (True, False):
        out = tmp_path / ("timed.json" if timing else "plain.json")
        assert run(argv + ["--out", str(out)]
                   + (["--timing"] if timing else [])) == 0
        checks = json.loads(out.read_text())["checks"]
        assert len(checks) == 10
        for c in checks:
            assert isinstance(c["ms"], float) if timing else c["ms"] is None, c
    capsys.readouterr()


def test_version_flag(capsys):
    code = run(["--version"])
    assert code == 0
    assert "0.1.0" in capsys.readouterr().out


# flag files the bad-input cases read from their working directory
FLAG_FILES = {
    "empty.flags": "# flagkneser flag set\nq 2\ncount 0\n",
    "last.flags": "# flagkneser flag set\nq 2\ncount 1\n177164\n",
    # 2^61 - 1 is prime: trial division before the supported-order check
    # would run for hours at the anchor line
    "huge_q.flags": "# flagkneser flag set\nq 2305843009213693951\n"
                    "anchor point 0;1,0,0,0,0,0,0\ncount 0\n",
    # no field order: refused as such, not with a flag count for q=6
    "q6.flags": "# flagkneser flag set\nq 6\ncount 0\n",
}

# a directory the bad-input cases find in their working directory
OUT_DIR = "outdir"

BAD_INPUTS = [
    ["export", "--q", "2", "--max-vertices", "0"],
    ["color", "--scheme", "mi", "--q", "6"],
    ["construct", "--kind", "P_l", "--q", "2", "--point", "0;x"],
    ["construct", "--kind", "H_E", "--q", "2", "--canonical"],
    ["count", "--q", "6"],
    # an unknown formula and a parameter that is no integer
    ["count", "--q", "2", "no_such_formula"],
    ["count", "--q", "2", "gaussian:7,x"],
    ["oracle", "skew-count", "--q", "6"],
    ["oracle", "complement-count", "--q", "2", "--n", "3", "--d", "7"],
    # option values no oracle runs on, and --n or --d alone, which would
    # silently run the skew-count grid
    ["oracle", "skew-count", "--q", "2", "--n", "3", "--d", "1", "--k", "-3"],
    ["oracle", "skew-count", "--q", "2", "--n", "3", "--d", "1", "--l", "-2"],
    ["oracle", "skew-count", "--q", "2", "--n", "3"],
    ["oracle", "skew-count", "--q", "2", "--d", "1"],
    ["oracle", "solids-three-planes", "--q", "2", "--sweeps", "-1"],
    ["oracle", "planes-two-solids", "--q", "2", "--threads", "0"],
    # 6865251 planes and 48177200 solids through a point: refused before
    # enumerating
    ["oracle", "planes-two-solids", "--q", "7"],
    ["oracle", "solids-three-planes", "--q", "7"],
    ["export", "--q", "2", "--format", "graphml"],
    ["export", "--q", "3", "--max-vertices", "10"],
    ["export", "--q", "2"],
    # the 73605001745 planes of PG(5,16): refused before the family is built
    ["oracle", "line-meeting-family", "--q", "16"],
    ["verify", "missing.flags"],
    ["verify", "empty.flags", "--xi-bound"],
    ["verify", "last.flags", "--xi-bound", "--flag", "999999"],
    # -1 must not wrap round to the last flag, which is a member here
    ["verify", "last.flags", "--xi-bound", "--flag", "-1"],
    ["verify", "huge_q.flags"],
    ["verify", "q6.flags"],
    # a given family is checked as its incidence kind: the 4-space of H_U,
    # the line of P_l through the point
    ["construct", "--kind", "H_E", "--q", "2", "--ekr", "subspace_full",
     "--hyperplane", "5;1,0,0,0,0,0,0;0,1,0,0,0,0,0;0,0,1,0,0,0,0;"
                     "0,0,0,1,0,0,0;0,0,0,0,1,0,0;0,0,0,0,0,1,0"],
    ["construct", "--kind", "P_S", "--q", "2", "--solid-family", "line_star",
     "--point", "0;1,0,0,0,0,0,0"],
    ["construct", "--kind", "P_S", "--q", "2", "--solid-family", "line_star",
     "--point", "0;1,0,0,0,0,0,0", "--line", "1;0,1,0,0,0,0,0;0,0,1,0,0,0,0"],
    # every subcommand that writes refuses a directory and a missing parent
    # as its output, its report or its manifest, before any work
    ["count", "--q", "2", "--out", OUT_DIR],
    ["count", "--q", "2", "--out", "missing/formulas.json"],
    ["construct", "--kind", "P_l", "--q", "2", "--canonical", "--out", OUT_DIR],
    ["construct", "--kind", "P_l", "--q", "2", "--canonical",
     "--out", "missing/set.flags"],
    ["construct", "--kind", "P_l", "--q", "2", "--canonical",
     "--report", OUT_DIR],
    ["construct", "--kind", "P_l", "--q", "2", "--canonical",
     "--report", "missing/report.json"],
    ["verify", "last.flags", "--out", OUT_DIR],
    ["verify", "last.flags", "--out", "missing/report.json"],
    ["color", "--scheme", "trivial", "--q", "2", "--out", OUT_DIR],
    ["color", "--scheme", "trivial", "--q", "2", "--out", "missing/c.json"],
    ["oracle", "skew-count", "--q", "2", "--out", OUT_DIR],
    ["oracle", "skew-count", "--q", "2", "--out", "missing/o.json"],
    ["export", "--q", "2", "--max-vertices", "10", "--out", OUT_DIR],
    ["export", "--q", "2", "--max-vertices", "10", "--out", "missing/g.dimacs"],
    ["export", "--q", "2", "--max-vertices", "10", "--manifest", OUT_DIR],
    ["export", "--q", "2", "--max-vertices", "10",
     "--manifest", "missing/m.json"],
    # two outputs, or an output and verify's input, that are one file
    ["count", "--q", "2", "gaussian:7,4", "--out", "f.json", "--manifest", "f.json"],
    ["count", "--q", "2", "--out", "f.json", "--manifest", "./f.json"],
    ["construct", "--kind", "P_l", "--q", "2", "--canonical",
     "--out", "x.flags", "--report", "x.flags"],
    ["construct", "--kind", "P_l", "--q", "2", "--canonical",
     "--report", "r.json", "--manifest", "r.json"],
    ["verify", "last.flags", "--out", "last.flags"],
    ["verify", "last.flags", "--manifest", "last.flags"],
]


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=lambda a: " ".join(a))
def test_bad_input_exits_2_without_traceback(tmp_path, argv):
    for name, text in FLAG_FILES.items():
        (tmp_path / name).write_text(text)
    (tmp_path / OUT_DIR).mkdir()
    src = os.path.dirname(os.path.dirname(flagkneser.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "flagkneser.cli", *argv],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
