import json
import time
from pathlib import Path

import pytest

from conedec import BinaryMatrix, parse_alist, parse_dense
from conedec.cli import build_parser, main
from conedec.gf2 import format_alist, format_dense
from conedec.serialize import SCHEMA
from conedec.constructions import hamming_matrix, steane_matrix
from conedec.qcimprove import evaluate_lp_performance


@pytest.fixture()
def hamming_path(tmp_path):
    p = tmp_path / "hamming3.txt"
    p.write_text(format_dense(hamming_matrix(3, cyclic=True)))
    return str(p)


@pytest.fixture()
def weight21_path(tmp_path):
    # One check of weight 21: one above ROW_WEIGHT_CAP, and its 21 columns
    # are one above RAY_DIM_CAP and five above VERTEX_DIM_CAP.
    p = tmp_path / "weight21.txt"
    p.write_text(format_dense(BinaryMatrix(1, 21, [(1 << 21) - 1])))
    return str(p)


ROW_WEIGHT_REFUSAL = "error: row 0 has weight 21, above the expansion cap 20\n"
VERTEX_DIM_REFUSAL = "error: dimension {} exceeds vertex enumeration cap 16\n"


# One recipe of each kind with every key it reads.
FULL_RECIPES = {
    "hamming": {"kind": "hamming", "r": 3, "cyclic": True},
    "steane": {"kind": "steane", "r": 3},
    "css": {"kind": "css", "h1": [[1, 1, 0], [0, 1, 1]], "h2": [[1, 1, 1]]},
    "label": {"kind": "label", "generators": ["XZZXI", "IXZZX"]},
    "circulant": {"kind": "circulant", "t": 3, "shift": 1},
    "qc-exponent": {"kind": "qc-exponent", "exponents": [[1, 2, 4]], "block_size": 7},
    "block-circulant": {"kind": "block-circulant", "blocks": [[[1, 1]], [[0, 1]]]},
    "sc": {"kind": "sc", "blocks": [[[1, 1, 0]], [[1, 0, 1]]], "L": 3, "mode": "tailbiting"},
    "hagiwara": {"kind": "hagiwara"},
}
OPTIONAL_RECIPE_FIELDS = {"cyclic", "shift"}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestBuild:
    def test_steane_recipe(self, tmp_path, capsys):
        recipe = tmp_path / "steane.json"
        recipe.write_text(json.dumps({"kind": "steane", "r": 3}))
        out_path = tmp_path / "steane.txt"
        code, _ = run(capsys, "build", str(recipe), "--out", str(out_path))
        assert code == 0
        H = parse_dense(out_path.read_text())
        assert (H.rows, H.cols) == (6, 14)

    def test_hagiwara_recipe(self, tmp_path, capsys):
        recipe = tmp_path / "h.json"
        recipe.write_text(json.dumps({"kind": "hagiwara"}))
        code, out = run(capsys, "build", str(recipe))
        assert code == 0
        H = parse_dense(out)
        assert (H.rows, H.cols) == (42, 84)

    def test_qc_exponent_recipe_block_width(self, tmp_path, capsys):
        recipe = tmp_path / "qc.json"
        recipe.write_text(
            json.dumps(
                {
                    "kind": "qc-exponent",
                    "exponents": [[1, 2, 4, 3, 6, 5], [4, 1, 2, 5, 3, 6], [2, 4, 1, 6, 5, 3]],
                    "block_size": 7,
                }
            )
        )
        code, out = run(capsys, "build", str(recipe))
        assert code == 0
        H = parse_dense(out)
        assert (H.rows, H.cols) == (21, 42)

    def test_identity_circulant(self, tmp_path, capsys):
        recipe = tmp_path / "id.json"
        recipe.write_text(json.dumps({"kind": "circulant", "t": 1, "shift": 0}))
        code, out = run(capsys, "build", str(recipe))
        assert code == 0
        assert parse_dense(out).to_lists() == [[1]]

    def test_alist_output(self, tmp_path, capsys, hamming_path):
        recipe = tmp_path / "h.json"
        recipe.write_text(json.dumps({"kind": "hamming", "r": 3, "cyclic": True}))
        code, out = run(capsys, "build", str(recipe), "--format", "alist")
        assert code == 0
        assert parse_alist(out) == parse_dense(Path(hamming_path).read_text())

    @pytest.mark.parametrize("obj", [
        {"kind": "nope"},
        [{"kind": "steane", "r": 3}],
        {"kind": "css", "h1": 5, "h2": [[1, 1]]},
        {"kind": "css", "h1": [[1.0, 1]], "h2": [[1, 1]]},
        {"kind": "block-circulant", "blocks": 3},
        {"kind": "hamming", "r": 3, "cyclic": "false"},
        {"kind": "hamming", "r": 3.9},
        {"kind": "circulant", "t": True},
        {"kind": "circulant", "t": 3, "shift": 1.5},
        {"kind": "qc-exponent", "exponents": [[1, 2.5]], "block_size": 7},
        {"kind": "label", "generators": "XZ"},
    ], ids=[
        "unknown-kind", "list", "int-matrix", "float-entry", "int-blocks",
        "string-cyclic", "float-r", "bool-t", "float-shift", "float-exponent",
        "string-generators",
    ])
    def test_bad_recipe(self, tmp_path, capsys, obj):
        recipe = tmp_path / "bad.json"
        recipe.write_text(json.dumps(obj))
        code, _ = run(capsys, "build", str(recipe))
        assert code == 2

    @pytest.mark.parametrize("kind,key", [
        (kind, key) for kind, recipe in FULL_RECIPES.items() for key in recipe
    ])
    def test_recipe_field_dropped(self, tmp_path, capsys, kind, key):
        # Each recipe builds whole; without one of its keys it still builds
        # when the key is optional, and otherwise exits 2 naming the key.
        path = tmp_path / "recipe.json"
        path.write_text(json.dumps(FULL_RECIPES[kind]))
        assert main(["build", str(path)]) == 0
        path.write_text(json.dumps({k: v for k, v in FULL_RECIPES[kind].items() if k != key}))
        code = main(["build", str(path)])
        err = capsys.readouterr().err
        if key in OPTIONAL_RECIPE_FIELDS:
            assert (code, err) == (0, "")
        else:
            assert (code, err) == (2, f"error: recipe field {key!r} is missing\n")


class TestCone:
    def test_hamming_ray_count(self, hamming_path, capsys):
        code, out = run(capsys, "cone", hamming_path)
        assert code == 0
        obj = json.loads(out)
        assert obj["ray_count"] == 42
        assert obj["inequality_count"] == 19
        assert obj["config"] == {"command": "cone"}

    def test_zero_matrix_units(self, tmp_path, capsys):
        p = tmp_path / "z.txt"
        p.write_text("1 3\n0 0 0\n")
        code, out = run(capsys, "cone", str(p))
        assert code == 0
        obj = json.loads(out)
        assert obj["ray_count"] == 3
        assert obj["rays"] == [["0", "0", "1"], ["0", "1", "0"], ["1", "0", "0"]]

    def test_bound_exceeded_exit(self, weight21_path, capsys):
        code = main(["cone", weight21_path])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == "error: dimension 21 exceeds ray enumeration cap 20\n"

    def test_parse_error_exit(self, tmp_path, capsys):
        p = tmp_path / "garbage.txt"
        p.write_text("not a matrix\n")
        code, _ = run(capsys, "cone", str(p))
        assert code == 2

    def test_format_not_accepted(self, hamming_path, capsys):
        # Only vertices and decode have a CSV view.
        for argv in (("cone",), ("genfun", "--box-B", "0"), ("improve", "--n0", "1")):
            with pytest.raises(SystemExit) as exc:
                main([argv[0], hamming_path, *argv[1:], "--format", "csv"])
            assert exc.value.code == 2

    def test_unread_options_not_accepted(self, hamming_path, capsys):
        # Each subcommand registers only the options it reads, and none takes
        # a size cap: the caps are constants.
        caps = ("--bound-rays", "--bound-vertices", "--row-weight-cap")
        unread = {
            ("build",): caps,
            ("cone",): ("--seed", *caps),
            ("vertices",): ("--seed", *caps),
            ("decode", "--random"): caps,
            ("genfun", "--box-B", "0"): ("--seed", *caps),
            ("improve", "--n0", "1", "--target-noncw", "0"): caps,
        }
        for argv, flags in unread.items():
            for flag in flags:
                with pytest.raises(SystemExit) as exc:
                    main([argv[0], hamming_path, *argv[1:], flag, "1"])
                assert exc.value.code == 2


class TestVertices:
    def test_hamming_96(self, hamming_path, capsys):
        code, out = run(capsys, "vertices", hamming_path)
        assert code == 0
        obj = json.loads(out)
        assert obj["total"] == 96
        assert obj["non_codeword_count"] == 80

    def test_full_representation_16(self, tmp_path, capsys):
        from conedec import add_qc_shifts

        H = hamming_matrix(3, cyclic=True)
        H7 = add_qc_shifts(H, H.row(0), 1)
        p = tmp_path / "h7.txt"
        p.write_text(format_dense(H7))
        code, out = run(capsys, "vertices", str(p))
        obj = json.loads(out)
        assert obj["total"] == 16
        assert obj["fractional_count"] == 0

    def test_single_check(self, tmp_path, capsys):
        p = tmp_path / "spc.txt"
        p.write_text("1 3\n1 1 1\n")
        code, out = run(capsys, "vertices", str(p))
        obj = json.loads(out)
        assert obj["total"] == 4
        assert obj["fractional_count"] == 0

    def test_csv_output(self, hamming_path, capsys):
        code, out = run(capsys, "vertices", hamming_path, "--format", "csv")
        assert code == 0
        assert out.splitlines()[0].startswith("#")

    def test_bound_exceeded_exit(self, tmp_path, weight21_path, capsys):
        # 17 columns are one above VERTEX_DIM_CAP; the weight-21 check is
        # refused by the same cap, which is checked before any row is built.
        p = tmp_path / "cols17.txt"
        p.write_text(format_dense(BinaryMatrix(1, 17, [1])))
        for path, cols in ((str(p), 17), (weight21_path, 21)):
            for fmt in ("json", "csv"):
                code = main(["vertices", path, "--format", fmt])
                captured = capsys.readouterr()
                assert (code, captured.out) == (3, "")
                assert captured.err == VERTEX_DIM_REFUSAL.format(cols)


class TestDecode:
    def test_zero_word(self, hamming_path, capsys):
        code, out = run(capsys, "decode", hamming_path, "--word", "0000000")
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "codeword"
        assert obj["optimum"] == ["0"] * 7

    def test_random_deterministic(self, hamming_path, capsys):
        args = (
            "decode", hamming_path, "--random",
            "--crossover", "0.05", "--trials", "50", "--seed", "7",
        )
        code1, out1 = run(capsys, *args)
        code2, out2 = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_ml_cross_check(self, hamming_path, capsys):
        code, out = run(
            capsys,
            "decode", hamming_path, "--random", "--ml",
            "--crossover", "0.1", "--trials", "100", "--seed", "3",
        )
        assert code == 0
        obj = json.loads(out)
        est = evaluate_lp_performance(hamming_matrix(3, cyclic=True), 0.1, 100, 3, ml=True)
        assert obj["ml_failures"] == est.ml_failures
        assert 0 < obj["ml_failures"] < obj["failures"]
        assert obj["pseudocodeword_failures"] == obj["failures"] - obj["ml_failures"]

    def test_ml_trellis_cap_exits_3(self, tmp_path, capsys):
        # The code {(u, u)} with u of length 25 is over the trellis cap.  No
        # trial fails at p = 0.001, yet --ml refuses before the first decode.
        p = tmp_path / "uu.txt"
        p.write_text(format_dense(BinaryMatrix(25, 50, [1 << j | 1 << (25 + j) for j in range(25)])))
        argv = ["decode", str(p), "--random", "--crossover", "0.001", "--trials", "5",
                "--seed", "1"]
        code, out = run(capsys, *argv)
        assert code == 0 and json.loads(out)["failures"] == 0
        code = main([*argv, "--ml"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == "error: ML trellis needs 2^25 states, above the 2^24 cap\n"

    def test_word_length_error(self, hamming_path, capsys):
        code, _ = run(capsys, "decode", hamming_path, "--word", "000")
        assert code == 2

    def test_orbit_report(self, tmp_path, capsys):
        from conedec import add_qc_shifts

        H = hamming_matrix(3, cyclic=True)
        H7 = add_qc_shifts(H, H.row(0), 1)
        p = tmp_path / "h7.txt"
        p.write_text(format_dense(H7))
        code, out = run(
            capsys,
            "decode", str(p), "--random", "--orbit-n0", "1",
            "--crossover", "0.05", "--trials", "10", "--seed", "2",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["type"] == "shift-experiment"
        assert obj["violations"] == []
        assert len(obj["per_orbit"]) == 10
        assert all(len(rec["statuses"]) == 7 for rec in obj["per_orbit"])

    def test_orbit_seeds_draw_independent_errors(self, tmp_path, capsys):
        # Seeding trial t with seed ^ t gave seeds 0 and 7 the same eight
        # error patterns in another order.
        H = hamming_matrix(3, cyclic=True)
        p = tmp_path / "h3.txt"
        p.write_text(format_dense(H))
        errors = []
        for seed in ("0", "7"):
            code, out = run(
                capsys,
                "decode", str(p), "--random", "--orbit-n0", "7",
                "--crossover", "0.3", "--trials", "8", "--seed", seed,
            )
            assert code == 0
            errors.append(sorted(r["error"] for r in json.loads(out)["per_orbit"]))
        assert errors[0] != errors[1]

    def test_orbit_failures_match_plain_run(self, tmp_path, capsys, monkeypatch):
        # Both modes draw their errors from bsc_errors and decode rotation 0
        # alike; a unique decode to a nonzero codeword is a failure in both.
        from conedec import add_qc_shifts, qcimprove
        from conedec.lpdecode import bsc_errors, llr_bsc

        H = hamming_matrix(3, cyclic=True)
        p = tmp_path / "h7.txt"
        p.write_text(format_dense(add_qc_shifts(H, H.row(0), 1)))
        gammas = []
        lp_decode = qcimprove.lp_decode

        def recording_decode(H, gamma):
            gammas.append(gamma)
            return lp_decode(H, gamma)

        monkeypatch.setattr(qcimprove, "lp_decode", recording_decode)
        for seed in (3, 11):
            errors = list(bsc_errors(7, 0.2, 40, seed))
            args = ("decode", str(p), "--random", "--crossover", "0.2", "--trials", "40",
                    "--seed", str(seed))
            gammas.clear()
            code, plain = run(capsys, *args)
            assert code == 0
            assert gammas == [llr_bsc(e, 0.2) for e in errors]
            code, orbit = run(capsys, *args, "--orbit-n0", "1")
            assert code == 0
            plain, orbit = json.loads(plain), json.loads(orbit)
            assert [r["error"] for r in orbit["per_orbit"]] == [e.to01() for e in errors]
            assert plain["failures"] > 0
            for key in ("failures", "fractional_count"):
                assert orbit[key] == plain[key]

    def test_orbit_requires_quasi_cyclic(self, hamming_path, capsys):
        code, _ = run(
            capsys,
            "decode", hamming_path, "--random", "--orbit-n0", "1", "--trials", "2",
        )
        assert code == 2

    def test_orbit_n0_below_one(self, hamming_path, capsys):
        code = main(["decode", hamming_path, "--random", "--orbit-n0", "0", "--trials", "2"])
        assert code == 2
        assert "n0 must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_orbit_trials_below_one(self, tmp_path, capsys, trials):
        from conedec import add_qc_shifts

        H = hamming_matrix(3, cyclic=True)
        p = tmp_path / "h7.txt"
        p.write_text(format_dense(add_qc_shifts(H, H.row(0), 1)))
        for orbit in (("--orbit-n0", "1"), ()):
            code = main(["decode", str(p), "--random", *orbit, "--trials", trials])
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, "")
            assert "need at least one trial" in captured.err

    def test_ml_word_above_sweep_cap(self, tmp_path, capsys):
        # k = 28: the 2^28 codewords are over the 2^24 sweep cap, while the
        # trellis has at most 2^2 states.  Bits 0 and 1 flipped, both on the
        # first check only, form a codeword, and it is the ML word.
        p = tmp_path / "k28.txt"
        p.write_text(format_dense(BinaryMatrix(2, 30, [0xFF, 0xFF0])))
        word = "11" + "0" * 28
        code, out = run(capsys, "decode", p.as_posix(), "--word", word, "--ml")
        assert code == 0
        assert json.loads(out)["ml_word"] == word

    def test_orbit_n0_needs_random(self, hamming_path, capsys):
        code, _ = run(capsys, "decode", hamming_path, "--word", "0000000", "--orbit-n0", "7")
        assert code == 2

    def test_csv_rejected_for_word(self, hamming_path, capsys):
        code, _ = run(capsys, "decode", hamming_path, "--word", "0000000", "--format", "csv")
        assert code == 2

    def test_csv_rejected_for_orbits(self, hamming_path, capsys):
        code, _ = run(
            capsys,
            "decode", hamming_path, "--random", "--orbit-n0", "7", "--trials", "2",
            "--format", "csv",
        )
        assert code == 2

    def test_ml_rejected_for_orbits(self, hamming_path, capsys):
        code, out = run(
            capsys,
            "decode", hamming_path, "--random", "--orbit-n0", "7", "--trials", "2", "--ml",
        )
        assert code == 2 and out == ""

    def test_orbit_row_weight_cap_exit(self, weight21_path, capsys):
        # The all-ones row is closed under rotation by 1, so the orbit run
        # reaches the decoder; without --orbit-n0 the same call exits 3 too.
        for orbit in (("--orbit-n0", "1"), ()):
            code = main(["decode", weight21_path, "--random", *orbit, "--trials", "2"])
            captured = capsys.readouterr()
            assert (code, captured.out) == (3, "")
            assert captured.err == ROW_WEIGHT_REFUSAL

    def test_word_row_weight_cap_exit(self, weight21_path, capsys):
        # The zero word's hard decision is certified, yet the cap comes first.
        for ml in ((), ("--ml",)):
            code = main(["decode", weight21_path, "--word", "0" * 21, *ml])
            captured = capsys.readouterr()
            assert (code, captured.out) == (3, "")
            assert captured.err == ROW_WEIGHT_REFUSAL

    def test_csv_summary(self, hamming_path, capsys):
        code, out = run(
            capsys,
            "decode", hamming_path, "--random", "--trials", "20",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "seed,p,trials,failures,fer,fractional_count,tie_count"

    def test_csv_ml_failures(self, hamming_path, capsys):
        # --ml appends the ML split of the failures, as the JSON output has it.
        argv = ("decode", hamming_path, "--random", "--ml", "--trials", "20", "--seed", "1")
        code, out = run(capsys, *argv, "--format", "csv")
        assert code == 0
        header, row = out.splitlines()[1:]
        assert header == ("seed,p,trials,failures,fer,fractional_count,tie_count,"
                          "ml_failures,pseudocodeword_failures")
        code, text = run(capsys, *argv)
        assert code == 0
        obj = json.loads(text)
        cells = row.split(",")
        assert cells[3] == str(obj["failures"])
        assert cells[-2:] == [str(obj["ml_failures"]), str(obj["pseudocodeword_failures"])]


    @pytest.mark.parametrize("argv", [
        ("decode", "--word", "1000000"),
        ("decode", "--random", "--trials", "3"),
        ("improve", "--n0", "1", "--target-fer", "0.1", "--trials", "3"),
    ], ids=["word", "random", "improve"])
    def test_subnormal_crossover(self, hamming_path, capsys, argv):
        code = main([argv[0], hamming_path, *argv[1:], "--crossover", "1e-320"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: crossover probability 1e-320 gives an infinite LLR\n"


class TestGenfun:
    def test_two_coordinate(self, tmp_path, capsys):
        p = tmp_path / "rep2.txt"
        p.write_text("1 2\n1 1\n")
        code, out = run(capsys, "genfun", str(p), "--box-B", "2")
        obj = json.loads(out)
        assert code == 0
        assert len(obj["terms"]) == 3

    def test_bound_zero(self, hamming_path, capsys):
        code, out = run(capsys, "genfun", hamming_path, "--box-B", "0")
        obj = json.loads(out)
        assert len(obj["terms"]) == 1

    def test_bound_zero_wide_matrix(self, tmp_path, capsys):
        p = tmp_path / "wide.txt"
        p.write_text(format_dense(BinaryMatrix(1, 1200, [(1 << 1200) - 1])))
        code, out = run(capsys, "genfun", str(p), "--box-B", "0")
        assert code == 0
        assert json.loads(out)["terms"] == [{"exp": [0] * 1200, "coef": 1}]

    def test_negative_bound(self, hamming_path, capsys):
        code = main(["genfun", hamming_path, "--box-B", "-1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: bound must be >= 0\n"

    def test_steane_product_count(self, tmp_path, capsys):
        recipe = tmp_path / "steane.json"
        recipe.write_text(json.dumps({"kind": "steane", "r": 3}))
        mat = tmp_path / "steane.txt"
        run(capsys, "build", str(recipe), "--out", str(mat))
        code, out = run(capsys, "genfun", str(mat), "--box-B", "1")
        obj = json.loads(out)
        assert code == 0
        assert len(obj["terms"]) == 256


class TestImprove:
    def test_hamming_one_iteration(self, hamming_path, capsys):
        code, out = run(
            capsys,
            "improve", hamming_path, "--n0", "1", "--target-noncw", "0",
            "--budget", "5",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["met_target"] is True
        assert len(obj["iterations"]) == 1
        assert obj["iterations"][0]["non_codeword_vertex_count"] == 0

    def test_budget_zero(self, hamming_path, capsys):
        code, out = run(
            capsys,
            "improve", hamming_path, "--n0", "1", "--target-noncw", "0",
            "--budget", "0",
        )
        obj = json.loads(out)
        assert obj["met_target"] is False
        assert obj["iterations"] == []

    def test_row_weight_cap_exit(self, weight21_path, capsys):
        # The FER target decodes and meets the row-weight cap; the census
        # target meets the vertex dimension cap first.
        for target, refusal in (
            (("--target-fer", "0.1", "--trials", "2"), ROW_WEIGHT_REFUSAL),
            (("--target-noncw", "0"), VERTEX_DIM_REFUSAL.format(21)),
        ):
            code = main(["improve", weight21_path, "--n0", "1", *target, "--budget", "0"])
            captured = capsys.readouterr()
            assert (code, captured.out) == (3, "")
            assert captured.err == refusal

    def test_dual_words_exhausted(self, hamming_path, capsys):
        code, out = run(
            capsys,
            "improve", hamming_path, "--n0", "1", "--target-fer", "0.01",
            "--crossover", "0.05", "--trials", "100", "--budget", "3",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["met_target"] is False
        assert len(obj["iterations"]) == 1

    @pytest.mark.parametrize("target", [
        ("--target-noncw", "0", "--budget", "2"), ("--target-noncw", "1000"),
        ("--target-fer", "0.5", "--trials", "20"),
    ], ids=["noncw", "noncw-met", "fer"])
    def test_shift_outside_the_code_exit(self, tmp_path, capsys, target):
        # Rotating Steane 6x14 by 1 does not map the code to itself: exit 2
        # before any census or Monte Carlo run (the census alone took 15 s).
        path = tmp_path / "steane.txt"
        path.write_text(format_dense(steane_matrix(3)))
        start = time.perf_counter()
        code = main(["improve", str(path), "--n0", "1", *target])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            "error: the n0 = 1 shift of row 2, 00010111000000, is not in the dual code; "
            "the shift does not map the code to itself\n"
        )
        assert elapsed < 1.0

    @pytest.mark.parametrize("target", ["1000", "0"])
    @pytest.mark.parametrize("n0", ["0", "-2"])
    def test_n0_below_one(self, hamming_path, capsys, target, n0):
        # With --target-noncw 1000 the target is met at the start.
        code = main(["improve", hamming_path, "--n0", n0, "--target-noncw", target])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "n0 must be >= 1" in captured.err

    @pytest.mark.parametrize("target", [
        ("--target-noncw", "-1", "--budget", "2"),
        ("--target-fer", "1.5"),
        ("--target-fer", "-0.1"),
        ("--target-fer", "0.1", "--crossover", "0"),
        ("--target-fer", "0.1", "--crossover", "1"),
    ], ids=["noncw-negative", "fer-above-one", "fer-negative", "crossover-zero", "crossover-one"])
    def test_target_out_of_range(self, hamming_path, capsys, target):
        code = main(["improve", hamming_path, "--n0", "1", *target])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error:")

    def test_deterministic(self, hamming_path, capsys):
        args = (
            "improve", hamming_path, "--n0", "1", "--target-fer", "0.5",
            "--crossover", "0.05", "--trials", "50", "--budget", "1", "--seed", "11",
        )
        code1, out1 = run(capsys, *args)
        code2, out2 = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2


class TestRoundTrips:
    def test_alist_via_cli(self, tmp_path, capsys, hamming_path):
        recipe = tmp_path / "h.json"
        recipe.write_text(json.dumps({"kind": "hamming", "r": 3, "cyclic": True}))
        alist_path = tmp_path / "h.alist"
        run(capsys, "build", str(recipe), "--out", str(alist_path), "--format", "alist")
        # auto-detected by extension
        code, out = run(capsys, "cone", str(alist_path))
        assert code == 0
        assert json.loads(out)["ray_count"] == 42


class TestInFormat:
    @pytest.fixture()
    def alist_text(self):
        return format_alist(hamming_matrix(3, cyclic=True))

    def test_alist_by_flag_matches_by_extension(self, tmp_path, capsys, alist_text):
        by_ext, by_flag = tmp_path / "h.alist", tmp_path / "h.txt"
        by_ext.write_text(alist_text)
        by_flag.write_text(alist_text)
        code, expected = run(capsys, "cone", str(by_ext))
        assert code == 0
        assert run(capsys, "cone", str(by_flag), "--in-format", "alist") == (0, expected)

    def test_dense_flag_overrides_extension(self, tmp_path, capsys, alist_text):
        p = tmp_path / "h.alist"
        p.write_text(alist_text)
        code = main(["cone", str(p), "--in-format", "dense"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")

    def test_not_in_config(self, hamming_path, capsys):
        # The input format says how to read the matrix, not what to run.
        for argv in OUTPUTS.values():
            code, text = run(capsys, argv[0], hamming_path, *argv[1:], "--in-format", "dense")
            assert code == 0
            assert "in_format" not in text


# Every command that reads a matrix, in each output mode it has.
OUTPUTS = {
    "cone": ("cone",),
    "vertices": ("vertices",),
    "vertices-csv": ("vertices", "--format", "csv"),
    "decode-word": ("decode", "--word", "1000000"),
    "decode-word-ml": ("decode", "--word", "1100000", "--ml"),
    "decode-trials": ("decode", "--random", "--trials", "20", "--seed", "3"),
    "decode-trials-ml": ("decode", "--random", "--trials", "20", "--seed", "3", "--ml"),
    "decode-trials-csv": ("decode", "--random", "--trials", "20", "--seed", "3",
                          "--format", "csv"),
    "decode-trials-csv-ml": ("decode", "--random", "--trials", "20", "--seed", "3",
                             "--format", "csv", "--ml"),
    "decode-orbits": ("decode", "--random", "--orbit-n0", "7", "--trials", "3"),
    "genfun": ("genfun", "--box-B", "1"),
    "improve-noncw": ("improve", "--n0", "1", "--target-noncw", "0", "--budget", "5"),
    "improve-fer": ("improve", "--n0", "1", "--target-fer", "0.5", "--trials", "20",
                    "--budget", "1"),
}


@pytest.mark.parametrize("argv", OUTPUTS.values(), ids=OUTPUTS.keys())
def test_output_contract(tmp_path, capsys, hamming_path, argv):
    # JSON: "schema" first and "config" last.  CSV: a "# config: " line with
    # the config JSON, then the body.  --out writes exactly what stdout would
    # carry and leaves stdout one summary line.
    argv = [argv[0], hamming_path, *argv[1:]]
    code, text = run(capsys, *argv)
    assert code == 0
    out = tmp_path / "out"
    code, summary = run(capsys, *argv, "--out", str(out))
    assert code == 0
    assert out.read_bytes() == text.encode()
    assert summary.endswith("\n") and summary.count("\n") == 1 and len(summary) > 1
    if "csv" in argv:
        code, as_json = run(capsys, *argv, "--format", "json")
        cfg = {**json.loads(as_json)["config"], "format": "csv"}
        first, _, body = text.partition("\n")
        assert first == f"# config: {json.dumps(cfg)}"
        assert body
    else:
        obj = json.loads(text)
        keys = list(obj)
        assert keys[0] == "schema" and keys[-1] == "config"
        assert obj["schema"] == SCHEMA
        assert obj["config"]["command"] == argv[0]


def argv_from_config(cfg: dict, matrix: str) -> list[str]:
    """The command line a config records: each option's first flag and its
    value, a bare flag for a set switch, nothing for an unset option."""
    (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
    actions = commands.choices[cfg["command"]]._actions
    flags = {a.dest: a.option_strings[0] for a in actions if a.option_strings}
    argv = [cfg["command"], matrix]
    for dest, value in cfg.items():
        if dest == "command" or value is None or value is False:
            continue
        argv += [flags[dest]] if value is True else [flags[dest], str(value)]
    return argv


@pytest.mark.parametrize("argv", OUTPUTS.values(), ids=OUTPUTS.keys())
def test_config_repeats_the_run(capsys, hamming_path, argv):
    # config holds every option the command takes, defaults included, so
    # the command line rebuilt from it writes the same bytes.
    code, text = run(capsys, argv[0], hamming_path, *argv[1:])
    assert code == 0
    if text.startswith("# config: "):
        cfg = json.loads(text.partition("\n")[0].removeprefix("# config: "))
    else:
        cfg = json.loads(text)["config"]
    assert run(capsys, *argv_from_config(cfg, hamming_path)) == (0, text)
