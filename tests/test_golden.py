"""Byte-for-byte regression gate.

A fixed CLI script runs in a temporary directory and every output it
writes is compared by sha256 with a frozen digest: flag files, size
reports, verify reports (with their least witnesses), the DIMACS export and
oracle JSON.  Manifests are left out because they carry a start time.  The
q=2 universe's plane ids, point-bitset words and duality permutation are
pinned the same way, and so are the saturation reports and profiles of five
sets that fail or are empty.  Any change to these digests changes a published output and needs a
reason.
"""
import hashlib

import numpy as np

from flagkneser import (FlagSet, LambdaSpec, build_lambda, canonical_frame,
                        check_saturation, load_flagset, saturation_profile,
                        save_flagset, subspace_to_text)
from flagkneser.cli import main

# (exit code, sha256 of the file) per output file name
GOLDEN_OUTPUTS = {
    "g.dimacs": (0, "48058546ca549a6edbcf21c83d03592d6d13ef0e125e8b35af0f89ced7a4282e"),
    "he.flags": (0, "76b8a339211a939e0e82623da22494135c426aec152c01eb450cb0bc4b65c863"),
    "he.json": (0, "a5fe507a8bccf955cc643ce363ecc0854a40d858f6dd57d88302ab1dafacfa85"),
    "he_full.flags": (0, "07116f7d7844ff9fec771e48f53022c5e744cf1c2db06ead39e4a30517937881"),
    "he_full.json": (0, "1fcdaebc1a48164d011d5452c09c6d6599d96d9eb6721c32d8e23b37b719a40f"),
    "he_traces.json": (0, "2e4d62944e4e41517f98818259162f41c5ec408359326344d519208ff5a2a88b"),
    "hempty.flags": (0, "d3497a370ea1d34337e84bb014931d432bf95ec5cab175faac9873c7191e334d"),
    "hempty.json": (0, "505618fc98eb2d77aa8606626bf2e338cd6d7c3a0040a86b13d5e012abeba932"),
    "hp.flags": (0, "eb47d251d9f72590bf5ba3ab1eb0da2083a146d4d306cb26c63113a4482422f9"),
    "hp.json": (0, "42d870a77c52cd1ab50ff0fce036c579272c42ffd9918fca657d0fefece164df"),
    "hu.flags": (0, "f2ad03e35a31815462133b4e11fff63e41b656eba5698fa288feb7f3dd9bc7dc"),
    "hu.json": (0, "fb7499da657656b982550d50ef7cfbb65266da9d563a360524bd21444ec13823"),
    "lm2.json": (0, "d65d757402e617c2396b956fcdc3abb74e178c329ed3b861376791c0ce479c57"),
    "pempty.flags": (0, "b304f225bd34215e997b7aa3928644aa08ac7d5daa537b5d78639ca35a556f0f"),
    "pempty.json": (0, "c4c887a3e186a5516a02e564c2f386c8f18c43547cce7488c2669a43944d369a"),
    "ph.flags": (0, "a94f486d1e4e235a608cad8d4135f2ba6927e9f152755a4397bddd1ba150c4d9"),
    "ph.json": (0, "9d9e5306ec95f7e9e685837a5b058ffe77e575599f36c0e689234ab32c287ebc"),
    "pl.flags": (0, "87f238281fa939e5f8e1a2ccd0ac44dba3a157a19b61f0e20446035edffd45f9"),
    "pl.json": (0, "a14333c113a7bc98bef53dd39380b5ca640f43bb866d3d4f0dd83e462b5c47ec"),
    "pl_all.json": (0, "0c44bcdebc5af6d2b4c6e09cb886788efc83997eddd46f4a3f53edb93c1f9167"),
    "pl_minus.json": (1, "44d78e0cc1db6266cd024c6526ae14316f6576b3c39092dc6f4c6a2bc58efdee"),
    "pl_plus.json": (1, "648476766d2a61cea0a2f9ae77c96e447dee8761f8a693a9d1cd1478fe290ea0"),
    "ps.flags": (0, "f6e040b4b4b09e4fda390566bba70fe10507c3164a35cd3cfb82d9a923bac752"),
    "ps.json": (0, "49fc4d02df33e08d3722a225b890b1eb11cb518a74a61e3264716a6c601d2591"),
    "ps_hyp.flags": (0, "8672e8a6c44ac74275bf38844b2819f75d2b5cb6c91985581bd8fbad6a42c143"),
    "ps_hyp.json": (0, "b914423255259c1df5a9139a1789e0e8aba2f4a31bbd5ef2993e80145421a051"),
    "skew3.json": (0, "30c3e163bb22063e87c05f5e1d00e6e3cd216c8db7a4e67bcfaaa4d4528ff14b"),
    "skew4.json": (0, "5055fb2f3d92226e751e96c278bbf712f258f5ce95ad157aed811fd33b4335b4"),
}

# sha256 of the q=2 universe arrays: plane ids (int32), the plane and
# solid words of every flag (uint64, word-major: row k holds points
# 64k..64k+63), and the dual ordinal of every flag (int32)
GOLDEN_UNIVERSE = {
    "plane_gid": "774d6aa11ad6235a01859cbf8fc5ddd5b1587daad1bb8c77438c0f136cca75aa",
    "plane_bits": "1bc9aa7b0ef7f99e567b98782a5f260edfa944ffd813432c0a086da0f47e779d",
    "solid_bits": "62d29432fd4f333352f21490a4b2a8ad615218ea6f7dc00fdf53a4eb726119d1",
    "dual_permutation": "a824116b1336967377c19baf74a9cb62b95a6d73d85c84ca3662bee9213c516e",
}

# sha256 of check_saturation(...).to_json() and of the saturation profile's
# text dump, per set
GOLDEN_SATURATION = {
    "pl_minus_last": ("c3b9dd648b56048a1a89834a23300fc7f586ab1313e484a4fb17b80fa81e50a6",
                      "0ba0c1aae39d0bda532ab3448dacc4af029e61cc43becae3d0d92bb782617123"),
    "pl_every_third": ("0069b8d6c0297ba76c47839aee57424f1695961f5145b776349c06b254fdbf56",
                       "bd2a383d9755defeade2f14e314d51f7c6c6b0bdb468915c29949bc1884b8e0f"),
    "random_3000": ("2b893fcc8c23f4ae3e08a4291453936258f6421a059f20b387d6890a3ddbc724",
                    "c23fd602fa30f84c9a66634da782310a7b93e03d3cec7ec283dd2ccb8e7208e6"),
    "empty": ("0003936dc63566aa6855e0d8498c7d04e83f1657f28155217173b144be19b3e8",
              "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    "two_solids_in_a_point": ("1445a7d904559e4bf5fa49140035691067b91ddc650255b719e1a1a7077ad405",
                              "7a8eb3e21718db06299da7a16d9cb8d012d367b4c2555bc85cc944ac065ae7af"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_script(tmp_path, capsys) -> dict:
    frame = canonical_frame(2)
    hyperplane = subspace_to_text(frame["hyperplane"])
    point = subspace_to_text(frame["point"])

    def w(name: str) -> str:
        return str(tmp_path / name)

    def run(out: str, argv: list[str]) -> tuple[str, int]:
        rc = main(argv + ["--out", w(out)])
        capsys.readouterr()
        return out, rc

    constructs = {
        "pl": ["--kind", "P_l"],
        "he": ["--kind", "H_E", "--ekr", "point_pencil"],
        "ps": ["--kind", "P_S", "--solid-family", "line_star"],
        "hempty": ["--kind", "H_empty"],
        "pempty": ["--kind", "P_empty"],
        "ph": ["--kind", "P_H"],
        "hp": ["--kind", "H_P"],
        "hu": ["--kind", "H_U"],
        "he_full": ["--kind", "H_E", "--ekr", "subspace_full"],
        "ps_hyp": ["--kind", "P_S", "--solid-family", "hyperplane_full"],
    }
    rcs = {}
    for stem, kind_args in constructs.items():
        _, rc = run(stem + ".flags", ["construct", "--q", "2", "--canonical",
                                      "--report", w(stem + ".json")]
                    + kind_args)
        rcs[stem + ".flags"] = rcs[stem + ".json"] = rc

    # P_l plus its least nonmember (least adjacent pair) and P_l minus its
    # last member (least extending flag)
    pl = load_flagset(w("pl.flags"))
    ords = [int(o) for o in pl.ordinals()]
    nonmember = int(np.flatnonzero(~pl.mask)[0])
    save_flagset(FlagSet.from_ordinals(pl.universe, ords + [nonmember],
                                       pl.meta), w("pl_plus.flags"))
    save_flagset(FlagSet.from_ordinals(pl.universe, ords[:-1], pl.meta),
                 w("pl_minus.flags"))

    rcs.update([
        run("pl_all.json", ["verify", w("pl.flags"), "--all"]),
        run("pl_plus.json", ["verify", w("pl_plus.flags"), "--independent"]),
        run("pl_minus.json", ["verify", w("pl_minus.flags"), "--maximal"]),
        run("he_traces.json", ["verify", w("he.flags"),
                               "--trace-hyperplane", hyperplane,
                               "--trace-point", point, "--xi-bound"]),
        run("g.dimacs", ["export", "--q", "2", "--max-vertices", "1500"]),
        run("skew3.json", ["oracle", "skew-count", "--q", "3",
                           "--grid", "small"]),
        run("skew4.json", ["oracle", "skew-count", "--q", "4",
                           "--grid", "small"]),
        run("lm2.json", ["oracle", "line-meeting-family", "--q", "2"]),
    ])
    return {name: (rc, _sha256((tmp_path / name).read_bytes()))
            for name, rc in rcs.items()}


def test_golden_cli_outputs(tmp_path, capsys):
    got = _run_script(tmp_path, capsys)
    assert got == GOLDEN_OUTPUTS, got
    # the reports of two given families of one kind name them apart
    assert got["he.json"] != got["he_full.json"]
    assert got["ps.json"] != got["ps_hyp.json"]


def test_golden_universe_arrays(uni2):
    # the per-flag words, read by plane and solid id
    solid_id = np.arange(uni2.flag_count) // uni2.planes_per_solid
    got = {
        "plane_gid": _sha256(uni2.plane_gid.tobytes()),
        "plane_bits": _sha256(uni2.plane_words[:, uni2.plane_gid].tobytes()),
        "solid_bits": _sha256(uni2.solid_words[:, solid_id].tobytes()),
        "dual_permutation": _sha256(uni2.dual_permutation.tobytes()),
    }
    assert got == GOLDEN_UNIVERSE, got


def _profile_text(fset) -> str:
    prof = saturation_profile(fset)
    lines = ["solid %s %d %s %s" % (subspace_to_text(e.solid), e.members,
                                    e.is_pencil, e.saturated)
             for e in prof.solid_entries]
    lines += ["plane %s %d %s %s" % (subspace_to_text(e.plane), e.members,
                                     e.is_quotient_subspace, e.saturated)
              for e in prof.plane_entries]
    return "\n".join(lines) + "\n"


def test_golden_saturation_failures(uni2, frame2):
    pl = build_lambda(LambdaSpec(kind="P_l", point=frame2["point"],
                                 line=frame2["line"]), uni2)
    ords = [int(o) for o in pl.ordinals()]
    rng = np.random.default_rng(20190419)
    sets = {
        "pl_minus_last": ords[:-1],
        "pl_every_third": ords[::3],
        "random_3000": sorted(int(o) for o in rng.choice(
            uni2.flag_count, size=3000, replace=False)),
        "empty": [],
        # every flag of solids 0 and 84, which meet in a single point
        "two_solids_in_a_point": list(range(15)) + list(range(84 * 15, 85 * 15)),
    }
    got = {}
    for name, members in sets.items():
        fset = FlagSet.from_ordinals(uni2, members)
        got[name] = (_sha256(check_saturation(fset).to_json().encode()),
                     _sha256(_profile_text(fset).encode()))
    assert got == GOLDEN_SATURATION, got
