import hashlib
import io
import json

import pytest

from plinv.cli import main, parse_period_literal, parse_branch, UsageError


def run(args, tmp_path=None):
    buf = io.StringIO()
    argv = ["--no-meta"]
    if tmp_path is not None:
        argv += ["--cache-dir", str(tmp_path)]
    else:
        argv += ["--no-cache"]
    rc = main(argv + args, out=buf)
    text = buf.getvalue()
    return rc, json.loads(text) if text.strip().startswith("{") else text


class TestPeriodGrammar:
    def test_basic(self):
        q = parse_period_literal("5^1", 5)
        assert q.total_ord() == 1

    def test_product_with_parens(self):
        q = parse_period_literal("(2/3)^-2 * 50^1", 5)
        assert q.total_ord() == 2

    def test_negative_base_needs_parens(self):
        q = parse_period_literal("(-7)^1 * 5^1", 5)
        assert q.total_ord() == 1

    def test_garbage_rejected(self):
        with pytest.raises(UsageError):
            parse_period_literal("5^^2", 5)
        with pytest.raises(UsageError):
            parse_period_literal("", 5)
        with pytest.raises(UsageError):
            parse_period_literal("0^1", 5)

    def test_branch_forms(self):
        assert parse_branch("p", 5) == "iwasawa"
        assert parse_branch("cyc", 5) == "cyclotomic"
        from fractions import Fraction

        assert parse_branch("30", 5) == Fraction(30)
        assert parse_branch("(2/3)^2 * 5", 5) == Fraction(20, 9)


class TestExitCodes:
    def test_success(self):
        rc, out = run(["li-period", "5^1", "-p", "5", "--branch", "p"])
        assert rc == 0
        assert out["li"]["zero"] is True

    def test_domain_error_not_a_period(self, capsys):
        rc, _ = run(["li-period", "6^1", "-p", "5"])
        assert rc == 2
        assert "not a period" in capsys.readouterr().err

    def test_parse_error(self):
        rc, _ = run(["li-period", "what", "-p", "5"])
        assert rc == 3

    def test_usage_error_bad_prime(self):
        rc, _ = run(["li-period", "5^1", "-p", "6"])
        assert rc == 3

    def test_usage_error_bad_depth(self):
        rc, _ = run(["check-ezc", "--label", "11a1", "-p", "11", "--depth", "9"])
        assert rc == 3

    def test_domain_error_no_tate_period(self, capsys):
        rc, _ = run(["li-curve", "--label", "11a1", "-p", "7"])
        assert rc == 2
        assert "no Tate period" in capsys.readouterr().err

    def test_unknown_label(self):
        rc, _ = run(["li-curve", "--label", "99xyz", "-p", "11"])
        assert rc == 2

    def test_cache_corruption(self, tmp_path, capsys):
        from plinv import modsym

        modsym._space_memo.pop((11, 1), None)
        bad = tmp_path / "modsym_11_plus.json"
        bad.write_text("{ truncated")
        rc, _ = run(["modsym", "dump", "--level", "11"], tmp_path)
        assert rc == 4

    def test_no_cache_never_reads_the_cache(self, tmp_path):
        import os
        import subprocess
        import sys

        import plinv

        bad = tmp_path / "j_q_coefficients.json"
        bad.write_text("{ truncated")
        src = os.path.dirname(os.path.dirname(plinv.__file__))
        env = dict(os.environ, PLINV_CACHE_DIR=str(tmp_path), PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "plinv.cli", "--no-cache", "--no-meta",
             "li-curve", "--label", "11a1", "-p", "11"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert sorted(os.listdir(tmp_path)) == ["j_q_coefficients.json"]
        assert bad.read_text() == "{ truncated"

    def test_supersingular_twist_domain_error(self):
        rc, _ = run(["check-twist", "--label", "11a1", "-D", "2", "-p", "11"])
        assert rc == 2  # 2 is not a fundamental discriminant


class TestReports:
    def test_li_period_value(self):
        rc, out = run(["li-period", "30^1", "-p", "5", "--branch", "p", "--prec", "5"])
        assert rc == 0
        # log_5(30) = log_5(6) = 55 mod 125
        digits = out["li"]["digits"]
        v = out["li"]["v"]
        value = sum(d * 5 ** (i + v) for i, d in enumerate(digits))
        assert value % 125 == 55

    def test_li_curve_11a1(self):
        rc, out = run(["li-curve", "--label", "11a1", "-p", "11", "--prec", "12"])
        assert rc == 0
        assert out["reduction"]["kind"] == "split-multiplicative"
        assert out["reduction"]["v_delta"] == 5
        assert out["tate_period"]["v"] == 5

    def test_check_ezc_report(self):
        rc, out = run(["check-ezc", "--label", "11a1", "-p", "11",
                       "--depth", "2", "--prec", "10"])
        assert rc == 0
        assert out["Lp0_is_zero"] is True
        assert out["matched_sign"] in "+-"
        assert out["agreement_digits"] >= 2
        assert "conventions" in out

    def test_lp_with_table(self):
        rc, out = run(["lp", "--label", "11a1", "-p", "11", "--depth", "1",
                       "--prec", "8", "--table"])
        assert rc == 0
        assert out["Lp0"] == "0"
        assert len(out["measure"]["values"]) == 10
        assert "exceptional_zero" in out

    def test_stickelberger_projection(self):
        rc, out = run(["stickelberger", "--label", "11a1", "-p", "11", "-n", "2"])
        assert rc == 0
        assert out["theta"]["augmentation"] == "0"
        assert out["projection_compatible"] is True

    def test_good_ordinary_lp(self):
        # a_3 is read from T_3 on the symbol, not passed by hand
        from plinv.curves import curve_by_label, trace_of_frobenius
        from plinv.measures import build_measure, lp_value_and_derivative, unit_root
        from plinv.modsym import eigen_symbol

        rc, out = run(["lp", "--label", "11a1", "-p", "3", "--depth", "2"])
        assert rc == 0
        curve = curve_by_label("11a1")
        root = unit_root(3, trace_of_frobenius(curve, 3), False, 20)
        l0, _ = lp_value_and_derivative(build_measure(eigen_symbol(curve), 3, 2, root=root), 20)
        assert out["Lp0"] == str(l0)
        rc, out = run(["stickelberger", "--label", "11a1", "-p", "3", "-n", "2"])
        assert rc == 0 and out["projection_compatible"] is True

    def test_modsym_dump_golden_sha256(self):
        # stdout bytes recorded before P^1 enumeration and Hecke matrices
        # were rewritten
        buf = io.StringIO()
        argv = ["--no-cache", "--no-meta", "modsym", "dump", "--level", "500", "--hecke", "2,3"]
        assert main(argv, out=buf) == 0
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
            "61eb0aed006a478e3a5294c9736070b5dd40a373491a0f92d305f8e6d3df35f0")

    def test_modsym_dump(self):
        rc, out = run(["modsym", "dump", "--level", "11", "--hecke", "2,3"])
        assert rc == 0
        assert out["dimension"] == 2 and out["cuspidal_dimension"] == 1
        assert "2" in out["hecke"] and "3" in out["hecke"]

    def test_custom_curve_input(self):
        rc, out = run(["li-curve", "--curve", "0,-1,1,-10,-20", "-p", "11"])
        assert rc == 0
        assert out["reduction"]["kind"] == "split-multiplicative"

    def test_deterministic_output(self):
        rc1, out1 = run(["check-ezc", "--label", "11a1", "-p", "11",
                         "--depth", "2", "--prec", "10"])
        rc2, out2 = run(["check-ezc", "--label", "11a1", "-p", "11",
                         "--depth", "2", "--prec", "10"])
        assert out1 == out2

    def test_meta_suppressed_and_present(self, tmp_path):
        buf = io.StringIO()
        main(["--no-cache", "li-period", "5^1", "-p", "5"], out=buf)
        assert "timestamp" in json.loads(buf.getvalue())["meta"]

    def test_table_format(self):
        buf = io.StringIO()
        rc = main(["--no-cache", "--no-meta", "--format", "table",
                   "li-period", "5^1", "-p", "5"], out=buf)
        assert rc == 0
        assert "command\t" in buf.getvalue()


class TestImporter:
    def test_import_then_use(self, tmp_path):
        rc, out = run(["import-curve", "--row", "19a1 0,1,1,-9,-15"], tmp_path)
        assert rc == 0
        assert out["conductor"] == 19
        rc, out = run(["li-curve", "--label", "19a1", "-p", "19"], tmp_path)
        assert rc == 0
        assert out["reduction"]["kind"] == "split-multiplicative"
        assert out["reduction"]["v_delta"] == 3

    def test_import_rejects_singular(self, tmp_path):
        rc, _ = run(["import-curve", "--row", "bad 0,0,0,0,0"], tmp_path)
        assert rc == 2

    def test_import_rejects_malformed(self, tmp_path):
        rc, _ = run(["import-curve", "--row", "just-a-label"], tmp_path)
        assert rc == 2


class TestCacheRoundTrip:
    def test_space_cache_reused(self, tmp_path):
        rc1, out1 = run(["modsym", "dump", "--level", "14", "--hecke", "3"], tmp_path)
        assert rc1 == 0
        assert (tmp_path / "modsym_14_plus.json").exists()
        # wipe the in-process memo so the disk copy is exercised
        from plinv import modsym

        modsym._space_memo.clear()
        rc2, out2 = run(["modsym", "dump", "--level", "14", "--hecke", "3"], tmp_path)
        assert rc2 == 0
        assert out1 == out2

    def test_stale_p1_list_exits_4(self, tmp_path):
        from plinv import modsym

        assert run(["modsym", "dump", "--level", "14"], tmp_path)[0] == 0
        path = tmp_path / "modsym_14_plus.json"
        data = json.loads(path.read_text())
        p1 = data["payload"]["p1"]
        p1[1], p1[2] = p1[2], p1[1]
        path.write_text(json.dumps(data))
        modsym._space_memo.clear()
        assert run(["modsym", "dump", "--level", "14"], tmp_path)[0] == 4

    def test_ezc_identical_from_cache(self, tmp_path):
        rc1, out1 = run(["check-ezc", "--label", "11a1", "-p", "11",
                         "--depth", "2", "--prec", "8"], tmp_path)
        from plinv import modsym

        modsym._space_memo.clear()
        rc2, out2 = run(["check-ezc", "--label", "11a1", "-p", "11",
                         "--depth", "2", "--prec", "8"], tmp_path)
        assert (rc1, out1) == (rc2, out2)


class TestSchemas:
    @staticmethod
    def _validate(payload, schema_name):
        import importlib.resources

        import jsonschema

        root = importlib.resources.files("plinv").joinpath("schemas")
        schema = json.loads(root.joinpath(schema_name).read_text())
        common = json.loads(root.joinpath("common.json").read_text())
        store = {key: common for key in
                 ("common.json", "plinv/common.json", "plinv/plinv/common.json")}
        resolver = jsonschema.RefResolver(base_uri="", referrer=schema, store=store)
        jsonschema.validate(payload, schema, resolver=resolver)

    def test_reports_validate(self, tmp_path):
        cases = [
            (["li-period", "30^1", "-p", "5"], "li_period.json"),
            (["li-curve", "--label", "11a1", "-p", "11", "--prec", "8"], "li_curve.json"),
            (["check-ezc", "--label", "11a1", "-p", "11", "--depth", "2", "--prec", "8"], "check_ezc.json"),
            (["check-twist", "--label", "11a1", "-D", "-4", "-p", "11", "--depth", "1", "--prec", "8"], "check_twist.json"),
            (["lp", "--label", "11a1", "-p", "11", "--depth", "1", "--prec", "8", "--table"], "lp.json"),
            (["stickelberger", "--label", "11a1", "-p", "11", "-n", "2"], "stickelberger.json"),
            (["modsym", "dump", "--level", "11"], "modsym_dump.json"),
        ]
        for args, schema in cases:
            rc, out = run(args, tmp_path)
            assert rc == 0, args
            self._validate(out, schema)
