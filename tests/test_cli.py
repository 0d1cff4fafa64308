import concurrent.futures
import json
import multiprocessing
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import relesc
from relesc.cli import main


@pytest.fixture
def mapfile(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)
    return write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


MAP3 = {"N": 1, "d": 2, "A": [["1"]], "b": ["3"]}
MAPHALF = {"N": 1, "d": 2, "A": [["1"]], "b": ["1/2"]}
MAPU2 = {"N": 2, "d": 2, "A": [["1", "1"], ["0", "1"]], "b": ["1/2", "-1/3"]}
DIV0 = {"vars": 2, "terms": [{"exps": [1, 0], "coeff": "1"}]}
DIVH = {"vars": 2, "terms": [{"exps": [0, 1], "coeff": "1"}]}


class TestEscapeRate:
    def test_basic(self, capsys, mapfile):
        code, out = run(capsys, ["escape-rate", "--map", mapfile("m.json", MAP3),
                                 "--divisor", mapfile("d.json", DIV0),
                                 "--iters", "20"])
        assert code == 0
        obj = json.loads(out)
        assert abs(float(obj["estimate"]["value"]) - 0.6238127498859630) < 1e-5
        assert float(obj["estimate"]["error"]) < 1e-4
        assert obj["config"]["iters"] == 20

    def test_good_reduction_place_zero(self, capsys, mapfile):
        code, out = run(capsys, ["escape-rate", "--map", mapfile("m.json", MAP3),
                                 "--divisor", mapfile("d.json", DIV0),
                                 "--place", "5", "--iters", "4"])
        assert code == 0
        obj = json.loads(out)
        assert float(obj["estimate"]["value"]) == 0.0
        assert float(obj["estimate"]["error"]) == 0.0

    def test_domain_error_exit2(self, capsys, mapfile):
        code, _ = run(capsys, ["escape-rate", "--map", mapfile("m.json", MAP3),
                               "--divisor", mapfile("d.json", DIVH)])
        assert code == 2

    def test_scaled_budget_refusal_exit2(self, capsys, mapfile):
        # N=2 d=3 at infinity: the step from degree 243 is predicted far
        # over the scaled memory budget and refused before it starts
        m = {"N": 2, "d": 3, "A": [["1", "0"], ["0", "1"]], "b": ["2", "-1/2"]}
        D = {"vars": 3, "terms": [{"exps": [1, 0, 0], "coeff": "1"}]}
        code = main(["escape-rate", "--map", mapfile("m.json", m),
                     "--divisor", mapfile("d.json", D), "--iters", "6"])
        assert code == 2
        assert "lower k" in capsys.readouterr().err

    def test_n2_default_depth_answers(self, capsys, mapfile):
        # without --iters an N=2 estimate takes the library's depth, 5,
        # where 20 was refused on every N=2, d=2 map
        D = {"vars": 3, "terms": [{"exps": [1, 1, 0], "coeff": "1"}]}
        code, out = run(capsys, ["escape-rate", "--map", mapfile("m.json", MAPU2),
                                 "--divisor", mapfile("d.json", D)])
        assert code == 0
        obj = json.loads(out)
        assert obj["config"]["iters"] == obj["estimate"]["k"] == 5
        assert "mode" not in obj["config"]

    def test_exact_switch(self, capsys, mapfile):
        # --exact iterates exactly to --iters; the default turns to the
        # float orbit where the exact iterate is predicted too large
        argv = ["escape-rate", "--map", mapfile("m.json", MAP3),
                "--divisor", mapfile("d.json", DIV0), "--iters", "20"]
        modes = []
        for extra in ([], ["--exact"]):
            code, out = run(capsys, argv + extra)
            assert code == 0
            modes.append(json.loads(out)["estimate"]["mode"])
        assert modes == ["scaled", "exact"]

    def test_output_roundtrips_as_input(self, capsys, mapfile, tmp_path):
        code, out = run(capsys, ["escape-rate", "--map", mapfile("m.json", MAP3),
                                 "--divisor", mapfile("d.json", DIV0),
                                 "--iters", "5"])
        obj = json.loads(out)
        # the echoed config parses back into valid inputs
        m2 = mapfile("m2.json", obj["config"]["map"])
        d2 = mapfile("d2.json", obj["config"]["divisor"])
        code2, out2 = run(capsys, ["escape-rate", "--map", m2, "--divisor", d2,
                                   "--iters", "5"])
        assert code2 == 0
        assert json.loads(out2)["estimate"] == obj["estimate"]


class TestCriticalHeight:
    def test_within_bounds(self, capsys, mapfile):
        code, out = run(capsys, ["critical-height",
                                 "--map", mapfile("m.json", MAP3)])
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"] == "within-bounds"
        assert abs(float(obj["value"]) - 0.6238127498859630) < 1e-5
        assert float(obj["lower_bound"]) < float(obj["value"]) < float(obj["upper_bound"])

    def test_explicit_places(self, capsys, mapfile):
        code, out = run(capsys, ["critical-height",
                                 "--map", mapfile("m.json", MAPHALF),
                                 "--places", "inf,2", "--iters", "12"])
        assert code == 0
        obj = json.loads(out)
        assert obj["config"]["places"] == "inf,2"

    def test_explicit_places_default_iters(self, capsys, mapfile):
        # without --iters the library's default depth is used (20 for N = 1)
        m = {"N": 1, "d": 2, "A": [["1"]], "b": ["1/15"]}
        code, out = run(capsys, ["critical-height", "--map", mapfile("m.json", m),
                                 "--places", "inf,3,5"])
        assert code == 0
        obj = json.loads(out)
        assert obj["config"]["iters"] == 20
        assert set(obj["per_place"]) == {"inf", "3", "5"}

    def test_auto_place_list_matches_auto(self, capsys, mapfile):
        # the explicit list of the auto places takes the library's loop
        m = mapfile("m.json", MAPHALF)
        reports = []
        for places in ("auto", "inf,2"):
            code, out = run(capsys, ["critical-height", "--map", m,
                                     "--places", places, "--digits", "30"])
            assert code == 0
            reports.append(json.loads(out))
        auto, listed = reports
        for key in ("value", "error", "per_place"):
            assert listed[key] == auto[key]
        assert auto["per_place"]["inf"]["mode"] == "scaled"

    @pytest.mark.parametrize("places", ["auto", "inf,2"])
    def test_per_place_sums_to_totals(self, capsys, mapfile, places):
        code, out = run(capsys, ["critical-height",
                                 "--map", mapfile("m.json", MAPHALF),
                                 "--places", places, "--digits", "30"])
        assert code == 0
        obj = json.loads(out)
        parts = obj["per_place"]
        assert {"inf", "2"} <= set(parts)
        for est in parts.values():
            assert set(est) == {"value", "error", "k", "mode"}
        assert abs(sum(float(e["value"]) for e in parts.values())
                   - float(obj["value"])) < 1e-12
        assert abs(sum(float(e["error"]) for e in parts.values())
                   - float(obj["error"])) < 1e-12


    def test_n3_map_answers(self, capsys, mapfile):
        # infinity reads the exact orbit at the depth the size rule admits
        m = {"N": 3, "d": 2, "A": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
             "b": ["1/2", "-1/3", "1/5"]}
        t0 = time.perf_counter()
        code, out = run(capsys, ["critical-height", "--map", mapfile("m.json", m)])
        assert time.perf_counter() - t0 < 1.0
        assert code == 0
        obj = json.loads(out)
        inf = obj["per_place"]["inf"]
        assert inf["mode"] == "exact"
        assert obj["warnings"] == [f"budget at inf: read at k={inf['k']}"]

    def test_uncertifiable_prime_denominator_exit2(self, capsys, mapfile):
        # 2^89 - 1 is prime but above the deterministic Miller-Rabin bound:
        # the place set is refused at once instead of trial-dividing forever
        m = {"N": 1, "d": 2, "A": [["1"]], "b": [f"1/{2**89 - 1}"]}
        t0 = time.perf_counter()
        code = main(["critical-height", "--map", mapfile("m.json", m)])
        assert time.perf_counter() - t0 < 10
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "certify" in err

class TestGoodReduction:
    def test_exit_codes(self, capsys, mapfile):
        assert run(capsys, ["good-reduction", "--map", mapfile("m.json", MAPHALF),
                            "--prime", "2"])[0] == 1
        assert run(capsys, ["good-reduction", "--map", mapfile("m.json", MAP3),
                            "--prime", "2"])[0] == 0
        badA = {"N": 2, "d": 2, "A": [["1/5", "0"], ["0", "5"]], "b": ["0", "0"]}
        assert run(capsys, ["good-reduction", "--map", mapfile("m.json", badA),
                            "--prime", "5"])[0] == 2


class TestVerifyLemmas:
    def test_deterministic_report(self, capsys, tmp_path):
        out1 = str(tmp_path / "r1.json")
        out2 = str(tmp_path / "r2.json")
        code1, txt1 = run(capsys, ["verify-lemmas", "--trials", "6",
                                   "--seed", "42", "--out", out1])
        code2, txt2 = run(capsys, ["verify-lemmas", "--trials", "6",
                                   "--seed", "42", "--out", out2])
        assert code1 == code2 == 0
        assert txt1 == txt2
        assert open(out1).read() == open(out2).read()

    def test_lemma_selection(self, capsys):
        code, out = run(capsys, ["verify-lemmas", "--trials", "2",
                                 "--seed", "1", "--lemma", "PRODUCT_FORMULA"])
        assert code == 0
        assert "PRODUCT_FORMULA" in out

    def test_bad_lemma_exits_usage(self, capsys):
        code, _ = run(capsys, ["verify-lemmas", "--trials", "1",
                               "--lemma", "NOPE"])
        assert code == 2

    def test_profile_file(self, capsys, tmp_path):
        prof = tmp_path / "profiles.json"
        prof.write_text(json.dumps([
            {"name": "tiny", "N": 1, "d": 2, "coeff_bound": 5,
             "deg_bound": 2, "place_set": ["inf", "3"],
             "k_arch": 6, "k_padic": 4},
        ]))
        code, out = run(capsys, ["verify-lemmas", "--trials", "4",
                                 "--seed", "3", "--profile", str(prof)])
        assert code == 0
        assert "suite: PASS" in out


class TestProfileValidation:
    @pytest.mark.parametrize("body", [
        {"name": "x", "N": 1, "d": 2},                        # not a list
        [3],                                                  # not an object
        [{"name": "x", "N": 1, "d": 2, "foo": 3}],            # unknown key
        [{"name": "x", "N": 1}],                              # missing key
        [{"name": "x", "N": "1", "d": 2}],
        [{"name": "x", "N": True, "d": 2}],
        [{"name": "x", "N": 1, "d": 1}],
        [{"name": "x", "N": 1, "d": 2, "deg_bound": 0}],
        [{"name": "x", "N": 1, "d": 2, "k_arch": -1}],
        [{"name": "x", "N": 1, "d": 2, "k_padic": 1.5}],
        [{"name": "x", "N": 1, "d": 2, "place_set": "23"}],   # not ("2", "3")
        [{"name": "x", "N": 1, "d": 2, "place_set": []}],
        [{"name": "x", "N": 1, "d": 2, "place_set": ["inf", "4"]}],
    ])
    def test_malformed_profile_exits_usage(self, capsys, tmp_path, body):
        prof = tmp_path / "profiles.json"
        prof.write_text(json.dumps(body))
        code = main(["verify-lemmas", "--trials", "1", "--profile", str(prof)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:"), err

    def test_zero_coeff_bound_refused(self, tmp_path):
        # sampling a nonzero coefficient from [-0, 0] would never end, so
        # this runs in a child with a deadline
        prof = tmp_path / "profiles.json"
        prof.write_text(json.dumps(
            [{"name": "x", "N": 1, "d": 2, "coeff_bound": 0}]))
        src = os.path.dirname(os.path.dirname(os.path.abspath(relesc.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-m", "relesc.cli", "verify-lemmas", "--trials",
             "1", "--profile", str(prof)],
            env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 2, out.stderr
        assert out.stderr.startswith("error:") and "coeff_bound" in out.stderr


class TestMandelSlice:
    def test_small_grid(self, capsys, tmp_path):
        base = str(tmp_path / "m")
        code, out = run(capsys, ["mandel-slice", "--d", "2",
                                 "--grid=-2.0:1.0:1.0:16",
                                 "--max-iter", "40", "--out", base])
        assert code == 0
        assert os.path.exists(base + ".csv") and os.path.exists(base + ".pgm")
        pgm = open(base + ".pgm", "rb").read()
        assert pgm.startswith(b"P5\n16 16\n255\n")
        assert len(pgm) == len(b"P5\n16 16\n255\n") + 256

    def test_degenerate_single_cell(self, capsys, tmp_path):
        base = str(tmp_path / "one")
        code, _ = run(capsys, ["mandel-slice", "--d", "2",
                               "--grid=0.5:0.5:0.0:1",
                               "--max-iter", "30", "--out", base])
        assert code == 0
        rows = [l for l in open(base + ".csv") if not l.startswith("#")]
        assert len(rows) == 1 and len(rows[0].split(",")) == 1

    def test_thread_count_invariance(self, capsys, tmp_path):
        b1, b8 = str(tmp_path / "t1"), str(tmp_path / "t8")
        run(capsys, ["mandel-slice", "--grid=-2.0:1.0:1.2:24",
                     "--max-iter", "40", "--threads", "1", "--out", b1])
        run(capsys, ["mandel-slice", "--grid=-2.0:1.0:1.2:24",
                     "--max-iter", "40", "--threads", "8", "--out", b8])
        assert open(b1 + ".pgm", "rb").read() == open(b8 + ".pgm", "rb").read()
        assert open(b1 + ".csv").read().replace("t1", "") == \
            open(b8 + ".csv").read().replace("t8", "")

    def test_n2_grid_cell_b0_black(self, capsys, mapfile, tmp_path):
        mapf = mapfile("n2.json", {"N": 2, "d": 2,
                                   "A": [["1", "0"], ["0", "1"]],
                                   "b": ["0", "0"]})
        base = str(tmp_path / "n2")
        code, _ = run(capsys, ["mandel-slice", "--map", mapf,
                               "--grid=-3:3:3:3", "--max-iter", "3",
                               "--out", base])
        assert code == 0
        rows = [l.split(",") for l in open(base + ".csv") if not l.startswith("#")]
        # center cell is b = (0, 0): preperiodic, value ~ 0
        assert abs(float(rows[1][1])) < 1e-9

    def test_n2_default_depth_answers(self, capsys, mapfile, tmp_path):
        # without --max-iter an N=2 grid takes the library's depth, 5, where
        # 50 was refused on every N=2, d=2 map; an N=1 grid keeps 50 float
        # iterations
        mapf = mapfile("n2.json", {"N": 2, "d": 2, "A": [["1", "0"], ["0", "1"]],
                                   "b": ["0", "0"]})
        depths = []
        for extra in (["--map", mapf], []):
            base = str(tmp_path / f"g{len(extra)}")
            code, _ = run(capsys, ["mandel-slice", "--grid=-3:3:3:3", "--out", base]
                          + extra)
            assert code == 0
            depths.append(json.loads(open(base + ".csv").readline()[2:])["max_iter"])
        assert depths == [5, 50]

    def test_requires_out(self, capsys):
        code, _ = run(capsys, ["mandel-slice", "--grid=0:1:1:4"])
        assert code == 2

    UNIPOTENT = {"N": 2, "d": 2, "A": [["1", "1"], ["0", "1"]], "b": ["0", "0"]}

    def test_pool_matches_serial(self, capsys, mapfile, tmp_path):
        mapf = mapfile("u.json", self.UNIPOTENT)
        outs = {}
        for threads in ("2", "1"):
            base = str(tmp_path / f"u{threads}")
            code, _ = run(capsys, ["mandel-slice", "--map", mapf, "--grid=-3:3:0:5",
                                   "--max-iter", "3", "--threads", threads,
                                   "--out", base])
            assert code == 0
            assert multiprocessing.active_children() == []
            outs[threads] = [open(base + ext, "rb").read() for ext in (".csv", ".pgm")]
        assert outs["2"] == outs["1"]
        # rows run over b2, columns over b1: the cell b = (3, -3) is row 0,
        # column 4 (the transposed cell b = (-3, 3) reads 1.29616...)
        rows = [l.split(b",") for l in outs["2"][0].splitlines()[1:]]
        assert abs(float(rows[0][4]) - 1.151761526693137) < 1e-9

    def test_pool_refusal_reaches_handler(self, capsys, mapfile, tmp_path):
        # N=2, d=3 at depth 6 is past scaled_depth, so every cell is refused
        mapf = mapfile("d3.json", {"N": 2, "d": 3, "A": [["1", "0"], ["0", "1"]],
                                   "b": ["0", "0"]})
        errs = {}
        for threads in ("2", "1"):
            code = main(["mandel-slice", "--map", mapf, "--grid=-1:1:0:2",
                         "--max-iter", "6", "--threads", threads,
                         "--out", str(tmp_path / "r")])
            assert code == 2
            errs[threads] = capsys.readouterr().err
        # the exact steps stop at the budget, and scaled mode refuses step 4
        assert errs["1"].startswith("error: scaled step 4")
        assert errs["2"] == errs["1"]
        assert multiprocessing.active_children() == []

    def test_unipotent_d3_grid_is_exact(self, capsys, mapfile, tmp_path):
        # the U3 grid, where scaled cells were off by up to 0.256: every cell
        # is affordable exactly and matches the exact-mode truncation
        A = [[1, 1], [0, 1]]
        mapf = mapfile("u3.json", {"N": 2, "d": 3, "A": [["1", "1"], ["0", "1"]],
                                   "b": ["0", "0"]})
        base = str(tmp_path / "u3")
        code, _ = run(capsys, ["mandel-slice", "--map", mapf, "--grid=-3:3:0:5",
                               "--max-iter", "2", "--threads", "2", "--out", base])
        assert code == 0
        lines = open(base + ".csv").read().splitlines()
        assert json.loads(lines[0][2:])["modes"] == {"exact": 25, "scaled": 0}
        axis = [Fraction(-3), Fraction(-3, 2), Fraction(0), Fraction(3, 2), Fraction(3)]
        for row, b2 in zip(lines[1:], axis):
            for cell, b1 in zip(row.split(","), axis):
                f = relesc.MinCritMap(2, 3, A, [b1, b2])
                want = relesc.delta_estimate(f, relesc.critical_divisor(f), 2,
                                             relesc.INF, mode="exact").value_float()
                assert abs(float(cell) - want) < 1e-9, (b1, b2)

    def test_cancelling_unipotent_cell(self, capsys, mapfile, tmp_path):
        # scaled mode read 0.0779364 here; the exact truncation at k=4 is
        # 0.0332614...
        mapf = mapfile("u.json", self.UNIPOTENT)
        base = str(tmp_path / "c")
        code, _ = run(capsys, ["mandel-slice", "--map", mapf, "--grid=-1.5:-1.5:0:1",
                               "--max-iter", "4", "--out", base])
        assert code == 0
        header, value = open(base + ".csv").read().splitlines()
        assert json.loads(header[2:])["modes"] == {"exact": 1, "scaled": 0}
        assert abs(float(value) - 0.03326140188078481) < 1e-9

    @pytest.fixture
    def no_pool(self, monkeypatch):
        def refuse(*a, **kw):
            raise AssertionError("a worker pool was started")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_usage_error(self, capsys, mapfile, tmp_path,
                                             no_pool, threads):
        mapf = mapfile("u.json", self.UNIPOTENT)
        code = main(["mandel-slice", "--map", mapf, "--grid=-3:3:0:5",
                     "--max-iter", "3", "--threads", threads,
                     "--out", str(tmp_path / "t")])
        assert code == 2
        assert "--threads" in capsys.readouterr().err

    def test_one_cell_starts_no_pool(self, capsys, mapfile, tmp_path, no_pool):
        mapf = mapfile("u.json", self.UNIPOTENT)
        base = str(tmp_path / "one")
        code, out = run(capsys, ["mandel-slice", "--map", mapf, "--grid=1:1:0:1",
                                 "--max-iter", "3", "--threads", "8",
                                 "--out", base])
        assert code == 0 and json.loads(out)["cells"] == 1


class TestPcfScan:
    def test_d2_rationals(self, capsys):
        code, out = run(capsys, ["pcf-scan", "--d", "2", "--range=-8:8",
                                 "--den-bound", "4"])
        assert code == 0
        obj = json.loads(out)
        assert [e["c"] for e in obj["pcf"]] == ["-2", "-1", "0"]

    def test_d3_integer_scan(self, capsys):
        code, out = run(capsys, ["pcf-scan", "--d", "3", "--range=-4:4"])
        assert code == 0
        obj = json.loads(out)
        got = {e["c"] for e in obj["pcf"]}
        # ground truth by the same exhaustive definition: integer orbits
        from fractions import Fraction as Q
        from relesc.unicritical import UnicriticalMap, is_pcf
        want = {str(c) for c in range(-4, 5)
                if is_pcf(UnicriticalMap(3, Q(c))).pcf}
        assert got == want

    def test_n2_candidates(self, capsys, mapfile):
        mapf = mapfile("n2.json", {"N": 2, "d": 2,
                                   "A": [["1", "0"], ["0", "1"]],
                                   "b": ["0", "0"]})
        code, out = run(capsys, ["pcf-scan", "--map", mapf, "--range=-1:1",
                                 "--iters", "3"])
        assert code == 0
        obj = json.loads(out)
        assert [0, 0] in [c["b"] for c in obj["candidates"]]
        assert "candidates" in obj["config"]["label"]

    def test_n2_scan_stays_in_range(self, capsys, mapfile):
        mapf = mapfile("n2.json", {"N": 2, "d": 2,
                                   "A": [["1", "0"], ["0", "1"]],
                                   "b": ["0", "0"]})
        code, out = run(capsys, ["pcf-scan", "--map", mapf, "--range=1/2:3/2",
                                 "--iters", "3"])
        assert code == 0
        for c in json.loads(out)["candidates"]:
            assert all(Fraction(1, 2) <= x <= Fraction(3, 2) for x in c["b"])


class TestUsageErrors:
    def test_missing_file(self, capsys):
        code, _ = run(capsys, ["escape-rate", "--map", "/nonexistent.json",
                               "--divisor", "/nonexistent.json"])
        assert code == 2

    def test_bad_place(self, capsys, mapfile):
        code, _ = run(capsys, ["escape-rate",
                               "--map", mapfile("m.json", MAP3),
                               "--divisor", mapfile("d.json", DIV0),
                               "--place", "six"])
        assert code == 2

    @pytest.mark.parametrize("flag", ["--seed", "--threads", "--out"])
    def test_no_pre_subcommand_flags(self, capsys, flag):
        # only --precision goes before the subcommand; the others belong to it
        with pytest.raises(SystemExit) as exc:
            main([flag, "7", "verify-lemmas", "--trials", "1", "--seed", "42"])
        assert exc.value.code == 2
