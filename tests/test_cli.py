import hashlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from plinv import Quoted, UsageError
from plinv.cli import _write, main
from plinv.periods import parse_branch, parse_period_literal


def _fresh_python(args, timeout, cwd=None, **env):
    """`python args` in a new interpreter that imports plinv from this
    checkout, in `cwd`, with `env` added to the environment."""
    import os
    import subprocess
    import sys

    import plinv

    src = os.path.dirname(os.path.dirname(plinv.__file__))
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=src, **env),
                          capture_output=True, text=True, timeout=timeout)


def _buffered_env():
    """The environment of a `plinv` process whose stdout is block-buffered,
    as it is by default: without PYTHONUNBUFFERED."""
    import os

    import plinv

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(plinv.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    return env


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


SPLIT_PAIRS = [("11a1", 11), ("14a1", 7), ("15a1", 5), ("17a1", 17), ("21a1", 3), ("37b1", 37)]


@pytest.fixture
def recorded(monkeypatch):
    """The ell of every Hecke matrix that `hecke_matrix` computes, each
    reading Merel's set once."""
    from plinv import modsym

    computed, real_merel = [], modsym.merel_matrices

    def counting_merel(ell):
        computed.append(ell)
        return real_merel(ell)

    monkeypatch.setattr(modsym, "merel_matrices", counting_merel)
    return computed


def _leftovers(directory):
    """The sorted names of the files in `directory`."""
    return sorted(path.name for path in directory.iterdir())


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
        # a tag reaches periods.li as given; li reads every alias
        assert parse_branch("p", 5) == "p"
        assert parse_branch("Cyc", 5) == "Cyc"
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

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_check_ezc_takes_no_sign(self, sign):
        # [0 -> oo] is 0 on every minus quotient, so only + ever worked
        rc, _ = run(["check-ezc", "--label", "11a1", "-p", "11", "--sign", sign])
        assert rc == 3

    def test_domain_error_no_tate_period(self, capsys):
        rc, _ = run(["li-curve", "--label", "11a1", "-p", "7"])
        assert rc == 2
        assert "no Tate period" in capsys.readouterr().err

    def test_unknown_label(self):
        rc, _ = run(["li-curve", "--label", "99xyz", "-p", "11"])
        assert rc == 2

    @pytest.mark.parametrize("command", [["li-curve"], ["check-ezc"], ["check-twist", "-D", "5"],
                                         ["stickelberger"], ["lp"]], ids=lambda c: c[0])
    def test_label_with_curve(self, command, capsys):
        # 0,0,1,-1,0 is 37a1, not 11a1: neither may silently win
        rc, out = run([*command, "--label", "11a1", "--curve", "0,0,1,-1,0", "-p", "11"])
        assert (rc, out) == (3, "")
        err = capsys.readouterr().err
        assert "--label" in err and "--curve" in err

    def test_cache_corruption(self, tmp_path, capsys):
        # no command reads a space file, so a corrupt one changes nothing
        from plinv import modsym

        bad = tmp_path / "modsym_13_plus.json"
        bad.write_text("{ truncated")
        modsym._space_memo.clear()
        rc, out = run(["modsym", "dump", "--level", "13"], tmp_path)
        assert (rc, out) == run(["modsym", "dump", "--level", "13"]) and rc == 0
        assert capsys.readouterr().err == ""
        assert bad.read_text() == "{ truncated" and _leftovers(tmp_path) == [bad.name]

    def test_no_cache_never_reads_the_cache(self, tmp_path):
        import os

        bad = tmp_path / "modsym_11_plus.json"
        bad.write_text("{ truncated")
        proc = _fresh_python(["-m", "plinv.cli", "--no-cache", "--no-meta",
                              "check-ezc", "--label", "11a1", "-p", "11"],
                             timeout=120, PLINV_CACHE_DIR=str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert sorted(os.listdir(tmp_path)) == ["modsym_11_plus.json"]
        assert bad.read_text() == "{ truncated"

    def test_a_reader_that_closes_the_pipe_early_gets_exit_141(self):
        # the level-389 dump is 89,753 bytes, more than a 64 KiB pipe holds,
        # so the writer is still writing when the reader leaves
        import os
        import subprocess
        import sys

        import plinv

        src = os.path.dirname(os.path.dirname(plinv.__file__))
        proc = subprocess.Popen([sys.executable, "-m", "plinv.cli", "--no-meta", "--no-cache",
                                 "modsym", "dump", "--level", "389"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=dict(os.environ, PYTHONPATH=src))
        assert proc.stdout.read(10) == b'{\n  "comma'
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (141, b"")

    @pytest.mark.parametrize("argv", [
        ["li-period", "30^1", "-p", "5", "--branch", "p", "--prec", "8"],
        ["check-ezc", "--label", "11a1", "-p", "11", "--depth", "2"],
    ], ids=["li-period", "check-ezc"])
    def test_a_reader_that_leaves_before_the_exit_flush_gets_exit_141(self, argv):
        # a block-buffered stdout holds the whole of these short reports until
        # main flushes it, so the pipe breaks there and not at the exit flush
        import subprocess
        import sys

        proc = subprocess.Popen([sys.executable, "-m", "plinv.cli", "--no-meta", "--no-cache",
                                 *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=_buffered_env())
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (141, b"")

    @pytest.mark.parametrize("hecke", ["4", "x"])
    def test_hecke_names_itself_in_its_error(self, capsys, hecke):
        rc, _ = run(["modsym", "dump", "--level", "11", "--hecke", f"2,{hecke}"])
        assert rc == 3
        assert capsys.readouterr().err.startswith("plinv: --hecke wants a prime: ")

    @pytest.mark.parametrize("branch,code,message", [
        ("2", 2, "--branch '2' has ord_p 0: not a branch"),
        ("5/5", 2, "--branch '5/5' has ord_p 0: not a branch"),
        ("0", 3, "--branch '0': zero base in period literal"),
    ])
    def test_a_bad_branch_is_named(self, capsys, branch, code, message):
        # 5^1 is a period: the error is the branch's
        assert run(["li-period", "5^1", "-p", "5", "--branch", branch]) == (code, "")
        assert capsys.readouterr().err == f"plinv: {message}\n"

    def test_check_twist_refuses_a_good_prime_before_it_builds(self, monkeypatch, capsys):
        # chi_-3(7) = 1, but 7 is a good prime of 11a1: nothing is built
        from plinv import measures, modsym

        def spy(*args, **kwargs):
            raise AssertionError("built before the prime was checked")

        monkeypatch.setattr(measures, "build_measure", spy)
        monkeypatch.setattr(modsym, "eigen_symbol", spy)
        assert run(["check-twist", "--label", "11a1", "-D", "-3", "-p", "7"]) == (2, "")
        assert capsys.readouterr().err == (
            "plinv: not an exceptional (split multiplicative) prime\n")

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

    def test_li_period_past_the_int_string_limit(self):
        # 7000 digits of log_5(30): a unit of some 4,900 decimal digits,
        # more than str() converts under the interpreter's default limit
        rc, low = run(["li-period", "30^1", "-p", "5", "--prec", "8"])
        assert rc == 0
        rc, high = run(["li-period", "30^1", "-p", "5", "--prec", "7000"])
        assert rc == 0
        assert high["li"]["v"] == low["li"]["v"] and high["li"]["n"] >= 7000
        assert high["li"]["digits"][:len(low["li"]["digits"])] == low["li"]["digits"]

    def test_li_curve_11a1(self):
        rc, out = run(["li-curve", "--label", "11a1", "-p", "11", "--prec", "12"])
        assert rc == 0
        assert out["reduction"]["kind"] == "split-multiplicative"
        assert out["reduction"]["v_delta"] == 5
        assert out["tate_period"]["v"] == 5

    @pytest.mark.parametrize("command", ["check-ezc", "lp"])
    def test_dual_report_names_its_indexing(self, command):
        pair = ["--label", "11a1", "-p", "11", "--depth", "2"]
        (rc, plain), (rcd, dual) = run([command, *pair]), run([command, *pair, "--dual"])
        assert rc == rcd == 0
        if command == "lp":
            plain, dual = plain["exceptional_zero"], dual["exceptional_zero"]
        assert plain["conventions"]["sigma_indexing"] == "sigma_a <-> a (pass dual=True for a^(-1))"
        assert dual["conventions"]["sigma_indexing"] == "sigma_a <-> a^(-1) (dual=True)"

    @staticmethod
    def _assert_digits_extend(label, p, precs):
        """The digits at each --prec in precs extend those at --prec 20."""
        args = ["li-curve", "--label", label, "-p", str(p), "--prec"]
        rc, low = run(args + ["20"])
        assert rc == 0
        for prec in precs:
            rc, out = run(args + [str(prec)])
            assert rc == 0
            for key in ("tate_period", "li"):
                assert out[key]["v"] == low[key]["v"]
                assert out[key]["n"] >= prec - 1
                assert out[key]["digits"][:len(low[key]["digits"])] == low[key]["digits"]

    @pytest.mark.parametrize("label,p", SPLIT_PAIRS)
    def test_li_curve_beyond_64_digits(self, label, p):
        """No precision cap at --prec 75 and 200."""
        self._assert_digits_extend(label, p, (75, 200))

    @pytest.mark.parametrize("label,p,prec", [("21a1", 3, 1000), ("11a2", 11, 200)])
    def test_li_curve_high_precision_small_v_delta(self, label, p, prec):
        self._assert_digits_extend(label, p, (prec,))

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
        assert out["Lp0"] == l0.to_json()
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

    @pytest.mark.parametrize("args,digest", [
        (["--level", "389", "--hecke", "2,3"],
         "1a602f1901dcb5240aef47ca2161c8469c7a890abc286aa7b9a4c92ad8522758"),
        (["--level", "997", "--hecke", "2,3"],
         "3e8e164504cd0305ab6ddaddb4c7d6f1f7964edaa9d25cf5859f31e90655acb7"),
        (["--level", "1000", "--hecke", "2,3"],
         "780ea7a9ea750a01c4b4f33bfa62f56ab7a4e5ee1c5281f36d0f975308aa1325"),
        # U_2 and U_5 beside T_7
        (["--level", "1000", "--hecke", "2,5,7"],
         "ba48df1037d1a19ac1d9efa608b7d85830aa17ab1ac54bb2e4b74001938a811f"),
        (["--level", "500", "--sign", "-", "--hecke", "2,3,5"],
         "4142648c4b31b1a7eba5a4496450884c68e5b5521636e19d423ce53b10e2b1f1"),
        # recorded while every Manin relation was derived once per generator
        (["--level", "389", "--sign", "-", "--hecke", "2,3"],
         "e7d0b2aa45c7601f4dedba13795b3da128e46d43327e3ad0c2d66b31ab63287d"),
    ], ids=["389", "997", "1000", "1000-U2-U5", "500-minus", "389-minus"])
    def test_modsym_dump_hecke_golden_sha256(self, args, digest):
        """stdout bytes recorded while Hecke matrices were computed from the
        image paths, before Merel's matrices replaced them (level 500 with
        --hecke 2,3 is test_modsym_dump_golden_sha256).  A digest is
        regenerated, from a checkout known to be right, by

            PYTHONPATH=src python -m plinv.cli --no-cache --no-meta \\
                modsym dump --level 389 --sign - --hecke 2,3 | sha256sum
        """
        buf = io.StringIO()
        assert main(["--no-cache", "--no-meta", "modsym", "dump", *args], out=buf) == 0
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest

    def test_modsym_dump_golden_non_unit_pivot(self):
        # sign -1 at level 60 eliminates through one pivot that is not +-1,
        # a 2 that divides every entry of its row, so the dump holds ints
        # alone; stdout bytes recorded before the elimination moved to integers
        buf = io.StringIO()
        argv = ["--no-cache", "--no-meta", "modsym", "dump", "--level", "60",
                "--sign", "-", "--hecke", "2,3,5"]
        assert main(argv, out=buf) == 0
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
            "5d15c62d83a0d7ffb385f8417e2e5cb225858c028bf0d1099565dfde8c68014c")

    def test_modsym_dump_table_golden_sha256(self):
        # --format table of the level-60 dump above, which holds no Fraction,
        # recorded while each report line was printed by json.dumps
        buf = io.StringIO()
        argv = ["--no-cache", "--no-meta", "--format", "table", "modsym", "dump",
                "--level", "60", "--sign", "-", "--hecke", "2,3,5"]
        assert main(argv, out=buf) == 0
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
            "db2534d209ba8d607dfc316e94f9fde67fbf00def2ead3f50c46a6afb6e53bc6")

    def test_modsym_dump_golden_through_a_stdout_pipe(self):
        # the same bytes as test_modsym_dump_golden_non_unit_pivot, written
        # piece by piece to the real stdout of `python -m plinv.cli`
        proc = _fresh_python(["-m", "plinv.cli", "--no-cache", "--no-meta", "modsym", "dump",
                              "--level", "60", "--sign", "-", "--hecke", "2,3,5"], timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
            "5d15c62d83a0d7ffb385f8417e2e5cb225858c028bf0d1099565dfde8c68014c")

    @pytest.mark.parametrize("args,digest", [
        # the p-adic table at a good ordinary prime, which no benchmark runs
        (["lp", "--label", "11a1", "-p", "3", "--depth", "4", "--table"],
         "00a0d626dbf270f032ea885582f594dd523de974c0bbdc499ecf5373d379c0b0"),
        # p^n = 2: the one unit is its own mirror
        (["lp", "--label", "14a1", "-p", "2", "--depth", "1", "--table"],
         "fc289cc0c019442fbf9e6f46fd3d41bc0c4ef3838aa85ca87a5f7def643ae6f9"),
        # recorded again when the dual report's sigma_indexing began to name
        # a^(-1); no other byte changed
        (["check-ezc", "--label", "37b1", "-p", "37", "--depth", "3", "--dual"],
         "f83b1021b87ae4dfb552ade781a72f9c06676104f2d7e39ab4e0d9ca641af823"),
    ], ids=["lp-11a1-p3", "lp-14a1-p2", "check-ezc-37b1-dual"])
    def test_measure_golden_sha256(self, args, digest):
        # stdout bytes recorded before the measure table was filled from
        # mu(p^n - a) = sign * mu(a)
        buf = io.StringIO()
        assert main(["--no-cache", "--no-meta", *args], out=buf) == 0
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest

    @pytest.mark.parametrize("args,digest", [
        # Kronecker symbols, fundamental discriminants and the twist's primes
        (["check-twist", "--label", "11a1", "-D", "5", "-p", "11"],
         "66d57a116d20056483fb68d684a81d11992f3463ce58daac48f41e25eeec728c"),
        (["check-twist", "--label", "11a1", "-D", "-4", "-p", "11"],
         "e46ae762045f170852347796f1050c7d2a2ffcb5b744dcc5272486b820f4a868"),
        # the eigen-line kernels of the dense path at levels 704 and 1859,
        # recorded while they were solved by a dense elimination
        (["check-twist", "--label", "11a1", "-D", "8", "-p", "11"],
         "e965aac39afc7322e6b1c3394e5d4252f30f5ef3026fead0d5b6426fe6404559"),
        (["check-twist", "--label", "11a1", "-D", "13", "-p", "11"],
         "f24776ec95372d7b062ab61cc368d2235e09a64c4d78bfbfd77639818f25bd98"),
        # recorded from the level-9251 space that the twisted sums replaced
        (["check-twist", "--label", "11a1", "-D", "29", "-p", "11"],
         "2125aac054facd8dc986a009b4afe8455e01c81aa728d499db81c6cf601958d3"),
        # inert at a good ordinary prime: p-adic twist_L0 and euler_factor, and
        # at D = -8, where [0->oo] = 0, a null ratio.  Recorded again when
        # ratio_euler_agreement_digits (20 and null) took the place of
        # factor_two_exact (false both times); no other byte changed
        (["check-twist", "--label", "11a1", "-D", "-3", "-p", "5", "--depth", "2"],
         "1dc4d061cc89f0a23c8b9dbc69755097a7303f90f4e7d41d942d84a5db97e473"),
        (["check-twist", "--label", "11a1", "-D", "-8", "-p", "5", "--depth", "2"],
         "82b4e341fb4ead3dddd562424488705ac5d8e6f41e4d23d5afb4a2f116cd9136"),
        # nonsplit multiplicative reduction at p = 2
        (["li-curve", "--label", "14a1", "-p", "2", "--prec", "30"],
         "2ce849416911faeddfcb1b129ad3876b94dbd538908a4c86f42882010be4bbfa"),
        # the Tate period and its log to 1000 digits, recorded from the
        # fixed-point iteration that Newton's method replaced
        (["li-curve", "--label", "37b1", "-p", "37", "--prec", "1000"],
         "e3f4a1132822a082cddfe466a11ee6c6fedafaba146868ac6f2ebcd90a78c88f"),
        # bad primes and their reduction kinds, at 2 and 7
        (["import-curve", "--row", "14a1 1,0,1,4,-6"],
         "a922a916dda1bc4aa199e41d3934fdd6b32d8d62b051e399f1849c980f617037"),
    ], ids=["twist-5", "twist-minus-4", "twist-8", "twist-13", "twist-29", "twist-minus-3-p5",
            "twist-minus-8-p5", "li-curve-14a1-p2",
            "li-curve-37b1-prec-1000", "import-14a1"])
    def test_arithmetic_golden_sha256(self, args, digest):
        # stdout bytes recorded before the factoring, split test and F_{p^f}
        # inverse each became one implementation
        buf = io.StringIO()
        assert main(["--no-cache", "--no-meta", *args], out=buf) == 0
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest

    @pytest.mark.parametrize("args,digest", [
        # a period literal with a product and a rational base, cyclotomic branch
        (["li-period", "(2/3)^-2 * 50^1", "-p", "5", "--branch", "cyc"],
         "950ab34c7d7102cb6b0b8ab53a566097c1157dbf01ee8ec4033ba92755a2b4a3"),
        (["stickelberger", "--label", "11a1", "-p", "11", "-n", "2", "--dual"],
         "021b135ca4f968a8492fed0276fea7de70d648c2f0f4c42cdddbb672a0bb96e5"),
        # the measure table beside the exceptional-zero block
        (["lp", "--label", "11a1", "-p", "11", "--depth", "2", "--table"],
         "9a5cbe2dfaf9045a979a4d1e276a0eee4dfef4e6e15c1c6b28c66b276f74dd81"),
        (["--format", "table", "lp", "--label", "11a1", "-p", "11", "--depth", "2"],
         "d4446dcdd1bea1cea7a84768ec8d3162acbba38bba9c589ce8dd4fbaced598b6"),
    ], ids=["li-period-cyc", "stickelberger-dual", "lp-table", "format-table-lp"])
    def test_report_shape_golden_sha256(self, args, digest):
        # stdout bytes recorded while reports were printed by
        # json.dumps(indent=2), before `_dumps` took its place
        buf = io.StringIO()
        assert main(["--no-cache", "--no-meta", *args], out=buf) == 0
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest

    @pytest.mark.parametrize("args,l_values,logs", [
        (["lp", "--label", "11a1", "-p", "11", "--depth", "2"], 1, 2),
        (["check-ezc", "--label", "11a1", "-p", "11", "--depth", "2"], 1, 2),
        # inert: only the twist's mass is reported
        (["check-twist", "--label", "11a1", "-D", "-4", "-p", "11"], 0, 0),
    ], ids=["lp", "check-ezc", "check-twist-inert"])
    def test_each_l_value_is_computed_once(self, monkeypatch, args, l_values, logs):
        from plinv import measures, padic

        calls = {"lp": 0, "log": 0}

        def counting(key, fn):
            def wrapped(*a, **k):
                calls[key] += 1
                return fn(*a, **k)
            return wrapped

        # every caller reaches these through their home module
        monkeypatch.setattr(measures, "lp_value_and_derivative",
                            counting("lp", measures.lp_value_and_derivative))
        monkeypatch.setattr(padic, "iwasawa_log", counting("log", padic.iwasawa_log))
        rc, _ = run(args)
        assert rc == 0
        assert calls == {"lp": l_values, "log": logs}

    @pytest.mark.parametrize("d,signs", [("5", [1]), ("-4", [-1])], ids=["split", "inert"])
    def test_each_eigen_symbol_is_built_once(self, monkeypatch, d, signs):
        # split at 11 with D > 0: E's plus symbol is both the twist's base
        # and the symbol of E's own exceptional-zero report
        from plinv import modsym

        calls = []
        eigen_symbol = modsym.eigen_symbol

        def counting(curve, sign=1):
            calls.append((curve.label, sign))
            return eigen_symbol(curve, sign)

        monkeypatch.setattr(modsym, "eigen_symbol", counting)
        rc, _ = run(["check-twist", "--label", "11a1", "-D", d, "-p", "11"])
        assert rc == 0
        assert calls == [("11a1", sign) for sign in signs]

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
        # the table would read the row back as a comment
        rc, _ = run(["import-curve", "--row", "#x 0,-1,1,-10,-20"], tmp_path)
        assert rc == 2 and not (tmp_path / "user_curves.tsv").exists()

    def test_import_closes_the_table_file(self, tmp_path):
        import gc
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(2):  # the second run reads the file the first wrote
                assert run(["import-curve", "--row", "19a1 0,1,1,-9,-15"], tmp_path)[0] == 0
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert (tmp_path / "user_curves.tsv").read_text().count("19a1") == 1

    def test_a_label_inside_another_is_registered(self, tmp_path):
        # "11z<TAB>..." is a substring of "my11z<TAB>...": rows are compared whole
        assert run(["import-curve", "--row", "my11z 0,-1,1,-10,-20"], tmp_path)[0] == 0
        rc, out = run(["import-curve", "--row", "11z 0,-1,1,-10,-20"], tmp_path)
        assert rc == 0 and "registered" in out
        rc, out = run(["li-curve", "--label", "11z", "-p", "11"], tmp_path)
        assert rc == 0 and out["curve"]["label"] == "11z"
        assert (tmp_path / "user_curves.tsv").read_text().splitlines() == [
            "my11z\t0,-1,1,-10,-20", "11z\t0,-1,1,-10,-20"]

    def test_an_earlier_model_is_registered_again(self, tmp_path):
        # the last row of a label wins, so a model given again is appended again
        for ainvs in ("0,-1,1,-10,-20", "0,-1,1,0,0", "0,-1,1,-10,-20"):
            assert run(["import-curve", "--row", f"11w {ainvs}"], tmp_path)[0] == 0
            rc, out = run(["li-curve", "--label", "11w", "-p", "11"], tmp_path)
            assert rc == 0 and out["curve"]["a_invariants"] == [int(a) for a in ainvs.split(",")]
        assert (tmp_path / "user_curves.tsv").read_text().count("11w") == 3

    def test_bundled_label_with_another_model_exits_2(self, tmp_path, capsys):
        # 37a1's model under the label 11a1, which the bundled 11a1 would shadow
        for cache in (tmp_path, None):
            assert run(["import-curve", "--row", "11a1 0,0,1,-1,0"], cache) == (2, "")
            assert "bundled with another model" in capsys.readouterr().err
        assert not (tmp_path / "user_curves.tsv").exists()

    @pytest.mark.parametrize("row", ["11a1 0,-1,1,-10,-20", "14a1 1,0,1,4,-6"])
    def test_bundled_label_with_its_bundled_model_writes_no_row(self, tmp_path, row):
        # the bundled table resolves it already, so it is neither appended
        # nor claimed as registered
        rc, out = run(["import-curve", "--row", row], tmp_path)
        assert rc == 0 and "registered" not in out
        assert not (tmp_path / "user_curves.tsv").exists()

    def test_a_malformed_row_is_named_with_its_file_and_line(self, tmp_path, capsys):
        assert run(["import-curve", "--row", "19a1 0,1,1,-9,-15"], tmp_path)[0] == 0
        table = tmp_path / "user_curves.tsv"
        with open(table, "a", encoding="utf-8") as fh:
            fh.write("oops 1,2\n")
        for args in (["li-curve", "--label", "19a1", "-p", "19"],
                     ["import-curve", "--row", "my11z 0,-1,1,-10,-20"]):
            assert run(args, tmp_path) == (2, "")
            assert f"{table}, line 2: need five a-invariants" in capsys.readouterr().err

    def test_additive_prime_above_3(self, tmp_path):
        # disc = -7^6 11^5: additive at 7, where the conductor exponent is 2
        rc, out = run(["import-curve", "--row", "t7 0,1,1,-506,7774"], tmp_path)
        assert rc == 0
        assert out["conductor"] == 539
        assert out["bad_primes"] == {"7": "additive", "11": "split-multiplicative"}

    def test_each_bad_prime_is_reduced_once(self, monkeypatch):
        # the conductor and the bad_primes report read one ReductionInfo per
        # (curve, p), which bad_primes computed; no bundled row is checked,
        # as no conductor of one is read
        from collections import Counter

        from plinv import curves

        calls, real = Counter(), curves.reduction_type

        def counting(curve, p):
            calls[curve.label, p] += 1
            return real(curve, p)

        monkeypatch.setattr(curves, "reduction_type", counting)
        buf = io.StringIO()
        argv = ["--no-cache", "--no-meta", "import-curve", "--row", "t7 0,1,1,-506,7774"]
        assert main(argv, out=buf) == 0
        assert calls == {("t7", 7): 1, ("t7", 11): 1}
        # stdout bytes recorded while each bad prime was reduced four times
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
            "7899ffb183caba1ffd1f2ca6a924d019fbb033574cc62e0d76ff953ea057ab3a")

    def test_discriminant_with_large_prime_factors(self):
        # disc = -3^3 67^2 73705545679^2: trial division alone ran for minutes
        proc = _fresh_python(["-m", "plinv.cli", "--no-cache", "--no-meta", "import-curve",
                              "--row", "x 0,0,1,0,1234567890123"], timeout=60)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["bad_primes"] == {"3": "additive", "67": "additive",
                                     "73705545679": "additive"}


class TestCacheRoundTrip:
    """Every command builds its symbol spaces in process, once per (level,
    sign): none reads or writes a `modsym_*` file, and a file planted in
    the cache directory, sound, stale, tampered or corrupt, changes no
    report and is left as it was planted.  The tests named `..._exit_4`,
    `..._exits_4` and `..._is_rewritten` keep the names they had while
    commands read these files, exited 4 on a bad one and rewrote a stale
    one: each checks now that a command ignores the file."""

    DUMP_14 = ["modsym", "dump", "--level", "14"]

    @staticmethod
    def _ignored(tmp_path, name, text, *argvs):
        """Plant the bytes `text` as tmp_path/name; each argv must print
        under that cache directory what it prints under --no-cache, and
        leave the file, and nothing else, in it."""
        from plinv import modsym

        path = tmp_path / name
        path.write_bytes(text)
        for argv in argvs:
            modsym._space_memo.clear()
            assert run(argv, tmp_path) == run(argv)
        assert path.read_bytes() == text
        assert _leftovers(tmp_path) == [name]

    @staticmethod
    def _payload_file(payload, fmt=3):
        return json.dumps({"format": fmt, "kind": "modsym", "payload": payload}).encode()

    def test_space_cache_reused(self, tmp_path):
        # the memo holds one space per (level, sign), whatever the directory
        from plinv import modsym

        modsym._space_memo.clear()
        rc1, out1 = run([*self.DUMP_14, "--hecke", "3"], tmp_path)
        space = modsym._space_memo[(14, 1)]
        rc2, out2 = run([*self.DUMP_14, "--hecke", "3"])
        assert rc1 == rc2 == 0 and out1 == out2
        assert modsym.build_space(14, 1) is space and list(modsym._space_memo) == [(14, 1)]
        assert _leftovers(tmp_path) == []

    def test_warm_modsym_dump_stores_nothing(self, tmp_path, recorded):
        from plinv import modsym

        computed = recorded
        modsym._space_memo.clear()
        assert run(["modsym", "dump", "--level", "11"], tmp_path)[0] == 0
        # every run computes each Hecke matrix it prints, one that no run
        # asked for before included, and writes nothing
        for hecke in ([2, 3], [5]):
            modsym._space_memo.clear()
            computed.clear()
            argv = ["modsym", "dump", "--level", "11", "--hecke", ",".join(map(str, hecke))]
            assert run(argv, tmp_path)[0] == 0
            assert computed == hecke
        assert _leftovers(tmp_path) == []

    @pytest.mark.parametrize("args,key", [
        (["check-ezc", "--label", "11a1", "-p", "11"], (11, 1)),
        (["modsym", "dump", "--level", "14", "--hecke", "2,3"], (14, 1)),
        (["modsym", "dump", "--level", "14", "--hecke", ""], (14, 1)),
    ], ids=["check-ezc", "modsym-dump", "modsym-dump-no-hecke"])
    def test_cold_run_stores_the_space_once(self, tmp_path, monkeypatch, args, key):
        # stored in the memo, once, and never on disk
        from plinv import modsym

        built, build = [], modsym.SymbolSpace._build

        def counting(self):
            built.append((self.level, self.sign))
            build(self)

        monkeypatch.setattr(modsym.SymbolSpace, "_build", counting)
        modsym._space_memo.clear()
        first = run(args, tmp_path)
        assert first[0] == 0 and built == [key]
        assert run(args, tmp_path) == first and run(args) == first
        assert built == [key]
        assert _leftovers(tmp_path) == []

    @pytest.mark.parametrize("args,ells", [
        (["check-ezc", "--label", "11a1", "-p", "11"], [2, 11]),
        # a_3 comes from T_3, computed after T_2 isolates the eigenline
        (["lp", "--label", "11a1", "-p", "3", "--depth", "2"], [2, 3]),
    ], ids=["check-ezc", "lp-good-ordinary"])
    def test_warm_run_computes_what_the_cold_run_computes(self, tmp_path, recorded,
                                                         args, ells):
        from plinv import modsym

        computed = recorded
        modsym._space_memo.clear()
        rc1, out1 = run(args, tmp_path)
        assert rc1 == 0 and sorted(computed) == ells
        cold = list(computed)
        computed.clear()
        modsym._space_memo.clear()
        rc2, out2 = run(args, tmp_path)
        assert rc2 == 0 and out2 == out1 and computed == cold
        assert _leftovers(tmp_path) == []

    @pytest.mark.parametrize("args,used,unused", [
        # the twist's symbol is summed from 11a1's own: no level-275 space
        (["check-twist", "--label", "11a1", "-D", "5", "-p", "11"], 11, 5),
        (["check-ezc", "--label", "14a1", "-p", "7"], 7, 2),
    ], ids=["check-twist", "check-ezc"])
    def test_cold_run_computes_only_the_u_p_it_reads(self, tmp_path, recorded, args,
                                                      used, unused):
        from plinv import modsym

        computed = recorded
        modsym._space_memo.clear()
        assert run(args, tmp_path)[0] == 0
        # the measure at p reads U_p; no U_ell at another bad prime is computed
        assert used in computed and unused not in computed
        assert _leftovers(tmp_path) == []

    @pytest.mark.parametrize("disc", ["5", "-4"])
    def test_check_twist_builds_only_the_curve_level(self, monkeypatch, disc):
        # E^D's symbol is the twisted sum of E's, so no space of level N D^2
        from plinv import modsym

        built, real = [], modsym.build_space

        def recording(level, sign=1):
            built.append(level)
            return real(level, sign)

        monkeypatch.setattr(modsym, "build_space", recording)
        assert run(["check-twist", "--label", "11a1", "-D", disc, "-p", "11"])[0] == 0
        assert built and set(built) == {11}

    def test_failed_command_keeps_the_space_it_built(self, tmp_path):
        from plinv import modsym

        # the space is built and probed before the supersingular p = 2 is refused
        modsym._space_memo.clear()
        assert run(["lp", "--label", "11a1", "-p", "2"], tmp_path)[0] == 2
        space = modsym._space_memo[(11, 1)]
        # the space is correct whatever the command did after building it
        args = ["lp", "--label", "11a1", "-p", "3", "--depth", "2"]
        kept = run(args, tmp_path)
        assert modsym._space_memo[(11, 1)] is space
        modsym._space_memo.clear()
        assert kept == run(args)
        assert _leftovers(tmp_path) == []

    def test_memo_ignores_a_relative_cache_directory(self, tmp_path, monkeypatch):
        # one process, one relative --cache-dir, two working directories:
        # the space memoised in the first serves the second, and neither
        # directory gets a file
        from plinv import modsym

        argv = ["--no-meta", "--cache-dir", "cache", "modsym", "dump", "--level", "11"]
        modsym._space_memo.clear()
        outs = []
        for side in ("a", "b"):
            (tmp_path / side).mkdir()
            monkeypatch.chdir(tmp_path / side)
            buf = io.StringIO()
            assert main(argv, out=buf) == 0
            outs.append(buf.getvalue())
        assert outs[0] == outs[1] and list(modsym._space_memo) == [(11, 1)]
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    def test_stale_p1_list_exits_4(self, tmp_path):
        from plinv.modsym import build_space

        from helpers import to_payload

        payload = to_payload(build_space(14, 1))
        p1 = payload["p1"]
        p1[1], p1[2] = p1[2], p1[1]
        self._ignored(tmp_path, "modsym_14_plus.json", self._payload_file(payload), self.DUMP_14)

    @pytest.mark.parametrize("corrupt", [
        lambda payload, minus: minus[37],
        lambda payload, minus: minus[11],
        lambda payload, minus: {},
        lambda payload, minus: [],
        lambda payload, minus: {**payload, "gen_coords": [{"a": "1"}] + payload["gen_coords"][1:]},
        lambda payload, minus: {**payload, "hecke": {}},
        lambda payload, minus: {**payload, "basis": payload["basis"][::-1]},
    ], ids=["level-37-minus", "level-11-minus", "empty-dict", "list", "coordinate-key",
            "extra-key", "basis-order"])
    def test_wrong_payload_exits_4(self, tmp_path, corrupt):
        from plinv.modsym import build_space

        from helpers import to_payload

        minus = {level: to_payload(build_space(level, -1)) for level in (11, 37)}
        text = self._payload_file(corrupt(to_payload(build_space(11, 1)), minus))
        self._ignored(tmp_path, "modsym_11_plus.json", text,
                      ["check-ezc", "--label", "11a1", "-p", "11"],
                      ["modsym", "dump", "--level", "11", "--hecke", "2"])

    def test_inconsistent_gen_coords_exit_4(self, tmp_path):
        from plinv.modsym import build_space

        from helpers import to_payload

        payload = to_payload(build_space(14, 1))
        payload["gen_coords"].pop()
        self._ignored(tmp_path, "modsym_14_plus.json", self._payload_file(payload), self.DUMP_14)

    def test_format_1_payload_is_rewritten(self, tmp_path):
        # files of older formats stay as they are: format 1 held the
        # union-find, format 2 the Hecke matrices as well
        from plinv.modsym import build_space

        from helpers import to_payload

        presentation = to_payload(build_space(14, 1))
        for fmt, payload in ((1, {"level": 14, "uf_parent": []}),
                             (2, {**presentation, "hecke": {"2": [["1"]]}})):
            text = self._payload_file(payload, fmt)
            self._ignored(tmp_path, "modsym_14_plus.json", text, self.DUMP_14)

    def test_tampered_format_2_hecke_matrix_is_not_read(self, tmp_path):
        from plinv import modsym

        from helpers import to_payload

        # a format-2 file whose U_11 is negated: were it read, matched_sign would flip
        args = ["check-ezc", "--label", "11a1", "-p", "11", "--depth", "3"]
        space = modsym.build_space(11, 1)
        hecke = {str(l): [[str(-x if l == 11 else x) for x in row]
                          for row in space.hecke_matrix(l)] for l in (2, 11)}
        text = self._payload_file({**to_payload(space), "hecke": hecke}, 2)
        self._ignored(tmp_path, "modsym_11_plus.json", text, args)

    def test_tampered_presentation_is_not_read(self, tmp_path):
        # generator 2 of 11's plus space set from {} to {"0": "1"}: the
        # retired reader accepted it, and check-ezc read from it used to
        # report Lp0 "-20" with 1 agreement digit
        from plinv import modsym

        from helpers import to_payload

        payload = to_payload(modsym.build_space(11, 1))
        assert payload["gen_coords"][2] == {}
        payload["gen_coords"][2] = {"0": "1"}
        args = ["check-ezc", "--label", "11a1", "-p", "11", "--depth", "3"]
        self._ignored(tmp_path, "modsym_11_plus.json", self._payload_file(payload), args)
        rc, out = run(args, tmp_path)
        assert (rc, out["Lp0"], out["agreement_digits"]) == (0, "0", 3)

    @pytest.mark.parametrize("text", [
        b"\xff\xfe not UTF-8",
        b"[1, 2]",
        b'{"format": 3, "kind": "modsym"}',
        b'{"format": 3, "kind": "modsym", "payload": null}',
    ], ids=["not-utf8", "not-an-object", "no-payload", "null-payload"])
    def test_corrupt_file_exits_4(self, tmp_path, text):
        self._ignored(tmp_path, "modsym_11_plus.json", text, ["modsym", "dump", "--level", "11"])

    @pytest.mark.parametrize("args", [
        ["check-ezc", "--label", "11a1", "-p", "11", "--depth", "3"],
        ["check-twist", "--label", "11a1", "-D", "5", "-p", "11"],
        ["check-twist", "--label", "11a1", "-D", "-4", "-p", "11"],
        ["lp", "--label", "11a1", "-p", "3", "--table"],
        ["stickelberger", "--label", "11a1", "-p", "11"],
        ["modsym", "dump", "--level", "500", "--sign", "-", "--hecke", "2,3,5"],
    ], ids=["check-ezc", "check-twist-split", "check-twist-inert", "lp", "stickelberger",
            "modsym-dump"])
    def test_warm_run_equals_cold_run(self, tmp_path, args):
        from plinv import modsym

        def output(cache_args):
            buf = io.StringIO()
            rc = main(["--no-meta", *cache_args, *args], out=buf)
            return rc, buf.getvalue()

        cache_args = ["--cache-dir", str(tmp_path)]
        no_cache = output(["--no-cache"])
        assert no_cache[0] == 0
        modsym._space_memo.clear()
        assert output(cache_args) == no_cache  # built again
        assert output(cache_args) == no_cache  # from the memo
        assert _leftovers(tmp_path) == []

    def test_ezc_identical_from_cache(self, tmp_path):
        from plinv import modsym

        args = ["check-ezc", "--label", "11a1", "-p", "11", "--depth", "2", "--prec", "8"]
        rc1, out1 = run(args, tmp_path)
        modsym._space_memo.clear()
        rc2, out2 = run(args, tmp_path)
        assert (rc1, out1) == (rc2, out2) == run(args)
        assert _leftovers(tmp_path) == []

    def test_no_command_writes_a_space_file(self, tmp_path, monkeypatch):
        # README's block, the benchmark's commands and the reachability
        # shapes through main, on one cache directory: only import-curve
        # writes there, its user table
        from plinv import modsym

        from test_reachability import EXTRA

        runs = [(argv, 0) for argv in _readme_commands() + _benchmark_commands()] + EXTRA
        monkeypatch.setenv("PLINV_CACHE_DIR", str(tmp_path))
        modsym._space_memo.clear()
        assert [main(["--no-meta", *argv], out=io.StringIO()) for argv, _ in runs] == [
            rc for _, rc in runs]
        assert _leftovers(tmp_path) == ["user_curves.tsv"]

    def test_readme_block_leaves_only_the_user_table(self, tmp_path, monkeypatch):
        # README's block on a fresh --cache-dir: the directory it names ends
        # up holding user_curves.tsv alone, and $PLINV_CACHE_DIR stays absent
        from plinv import modsym

        cache, env = tmp_path / "cache", tmp_path / "env"
        monkeypatch.setenv("PLINV_CACHE_DIR", str(env))
        modsym._space_memo.clear()
        for argv in _readme_commands():
            assert main(["--no-meta", "--cache-dir", str(cache), *argv], out=io.StringIO()) == 0
        assert _leftovers(cache) == ["user_curves.tsv"] and not env.exists()


class TestCacheDirectory:
    """Where `import-curve` registers a row, in a fresh process whose home
    and working directory are tmp_path: the first of --cache-dir,
    $PLINV_CACHE_DIR, $XDG_CACHE_HOME/plinv and ~/.cache/plinv that is set,
    and nowhere under --no-cache.  An empty or relative $XDG_CACHE_HOME is
    ignored, as the XDG base-directory spec says.  A value "/name" below
    stands for tmp_path/name."""

    ENV = {"PLINV_CACHE_DIR": "/env", "XDG_CACHE_HOME": "/xdg"}

    @pytest.mark.parametrize("option,env,home", [
        (["--cache-dir", "/opt"], ENV, "opt"),
        ([], ENV, "env"),
        ([], {"XDG_CACHE_HOME": "/xdg"}, "xdg/plinv"),
        ([], {}, ".cache/plinv"),
        ([], {"PLINV_CACHE_DIR": "", "XDG_CACHE_HOME": ""}, ".cache/plinv"),
        ([], {"XDG_CACHE_HOME": "xdg"}, ".cache/plinv"),
        (["--no-cache"], ENV, None),
    ], ids=["cache-dir", "plinv-cache-dir", "xdg-cache-home", "home", "xdg-empty",
            "xdg-relative", "no-cache"])
    def test_the_user_table_is_in_the_first_directory_set(self, tmp_path, monkeypatch,
                                                          option, env, home):
        def under_tmp(value):
            return str(tmp_path) + value if value.startswith("/") else value

        for key in self.ENV:
            monkeypatch.delenv(key, raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        for key, value in env.items():
            monkeypatch.setenv(key, under_tmp(value))
        proc = _fresh_python(["-m", "plinv.cli", "--no-meta", *map(under_tmp, option),
                              "import-curve", "--row", "19a1 0,1,1,-9,-15"], timeout=120,
                             cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        files = [str(path.relative_to(tmp_path)) for path in tmp_path.rglob("*")
                 if path.is_file()]
        table = home and f"{home}/user_curves.tsv"
        assert files == ([table] if table else [])
        assert json.loads(proc.stdout).get("registered") == (table and str(tmp_path / table))


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.sampled_from([-10 ** 40, -(2 ** 64)])
    | st.text() | st.sampled_from(['"', "\\", "\n", "a\nb", "\x00\x1f\x7f", "é€😀", "\u2028"]))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.lists(children) | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children) | st.dictionaries(st.integers(), children),
    max_leaves=30)
# lists of containers of scalars, as in the symbol-space payloads
_JSON_BLOCKS = (st.lists(st.lists(_JSON_SCALARS, max_size=4), max_size=6)
                | st.lists(st.dictionaries(st.text(max_size=3), _JSON_SCALARS, max_size=4),
                           max_size=6))


def _dumps(x, nl="\n  "):
    """What `_write` writes for x, as one string."""
    buf = io.StringIO()
    _write(x, buf.write, nl)
    return buf.getvalue()


def _unquoted(x):
    """x with every `Quoted` replaced by the string-typed copy it stands for."""
    if isinstance(x, Quoted):
        return [{str(k): str(v) for k, v in row.items()} if isinstance(row, dict)
                else [str(v) for v in row] for row in x]
    if isinstance(x, dict):
        return {k: _unquoted(v) for k, v in x.items()}
    return [_unquoted(v) for v in x] if isinstance(x, (list, tuple)) else x


# exact numbers as in coordinate vectors and Hecke rows; keys such as 1, 10,
# 100 and -1 sort differently as ints and as strings
_EXACT = st.integers(-10 ** 30, 10 ** 30) | st.fractions()
_ROWS = st.lists(st.dictionaries(st.integers(-120, 120), _EXACT, max_size=8)
                 | st.lists(_EXACT, max_size=5), min_size=1, max_size=4)
# a Quoted whose rows repeat by identity, as the generators of one class share theirs
_QUOTED = st.tuples(_ROWS, st.lists(st.integers(0, 3), max_size=8)).map(
    lambda t: Quoted(t[0][i % len(t[0])] for i in t[1]))


class TestDumps:
    """`_write` against the output of the pure-Python encoder: indent=2,
    and compact for --format table."""

    @settings(max_examples=200, deadline=None)
    @given(_JSON_VALUES | _JSON_BLOCKS | st.dictionaries(st.text(max_size=2), _JSON_BLOCKS))
    @example({})
    @example([[], {}, [[]], {"": {}}])
    @example([["]", "["], [], ["}, {", 1]])
    @example([[1, [2]], [[]], [{"a": {}}]])
    @example([{}, {"a": "}", "]": None}, {}, {"b": 1}])
    @example([True, False, 1, 0, None, -1, 10 ** 40])
    @example({10: [1], 9: {"x": True}, -1: "\n"})
    @example({"b": [1, [2, [3]]], "a": 1, "é\\\"\n": {"k": []}})
    @example([(0, 1), (1, 0), [2, 3]])
    def test_matches_json_dumps_indent_2(self, value):
        assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)
        assert _dumps(value, "") == json.dumps(value, sort_keys=True)

    @pytest.mark.parametrize("value", [0.5, float("nan"), [1, -0.0], {"a": float("inf")},
                                       {1.5: 1}])
    def test_a_float_is_refused(self, value):
        # no report holds a float, so the writer has no format for one
        with pytest.raises(TypeError, match="^Object of type float is not JSON serializable$"):
            _dumps(value)

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.text(max_size=3), _QUOTED | st.lists(_QUOTED, max_size=3)
                           | _JSON_SCALARS, max_size=4))
    @example({"gen_coords": Quoted([{}, {10: 1, 2: Fraction(-1, 2), 1: -3}, {}])})
    @example({"\u2028\"\n": Quoted([[1, Fraction(4, 1)], []]), "h": Quoted([])})
    def test_quoted_rows_match_their_string_copy(self, value):
        plain = _unquoted(value)
        assert _dumps(value) == json.dumps(plain, indent=2, sort_keys=True)
        assert _dumps(value, "") == json.dumps(plain, sort_keys=True)

    def test_each_shared_row_is_formatted_once(self, monkeypatch):
        from plinv import cli, modsym

        space = modsym.build_space(1000)
        rows, quote = [], cli._quote
        monkeypatch.setattr(cli, "_quote", lambda row, nl: rows.append(id(row)) or quote(row, nl))
        assert main(["--no-cache", "--no-meta", "modsym", "dump", "--level", "1000",
                     "--hecke", "2,3"], out=io.StringIO()) == 0
        assert len(rows) == len(set(rows))  # 1800 generators, 881 vectors, one of them {}
        assert len(rows) == len({id(c) for c in space._gen_coords if c}) + 2 * space.dimension

    def test_dump_writes_in_pieces_under_2_mb(self):
        # the level-1000 report is 1.09 MB of text.  Its peak was 9.2 MB while
        # a string-typed copy and the whole text were built, and is 1.0 MB
        # now; a buffer of the whole text alone (2.7 MB) or a string copy of
        # the coordinates alone (3.0 MB) goes over 2 MB
        import tracemalloc

        from plinv import modsym

        class Sink:
            size = 0

            def write(self, text):
                self.size += len(text)

        modsym.build_space(1000)
        sink = Sink()
        tracemalloc.start()
        try:
            assert main(["--no-cache", "--no-meta", "modsym", "dump", "--level", "1000",
                         "--hecke", "2,3"], out=sink) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.size == 1089629
        assert peak <= 2 * 2 ** 20, peak

    def test_dump_reaches_out_in_batches_of_64_kib(self):
        # an unbuffered stdout makes each out.write a syscall: the level-1000
        # report reached it in 4,240 writes, one per piece
        from types import SimpleNamespace

        sizes = []
        sink = SimpleNamespace(write=lambda text: sizes.append(len(text)))
        assert main(["--no-cache", "--no-meta", "modsym", "dump", "--level", "1000",
                     "--hecke", "2,3"], out=sink) == 0
        assert sum(sizes) == 1089629
        assert len(sizes) <= 18
        assert min(sizes[:-1]) >= 2 ** 16


class TestStartUp:
    """What the command line loads, seen from a fresh `python -S`: in the
    test process every module is already loaded by other tests."""

    PROBE = """
import io, sys
from plinv.cli import main

for argv in (["--no-meta", "li-period", "5^1", "-p", "5"],
             ["--no-cache", "--no-meta", "check-ezc", "--label", "11a1", "-p", "11",
              "--depth", "1"]):
    assert main(argv, out=io.StringIO()) == 0, argv
unneeded = ["dataclasses", "inspect", "datetime", "importlib.resources", "plinv.unramified",
            "argparse", "gettext", "locale", "fcntl", "tempfile", "json", "plinv.twists",
            "plinv.cache"]
loaded = [name for name in unneeded if name in sys.modules]
buf = io.StringIO()
assert main(["li-period", "5^1", "-p", "5"], out=buf) == 0
import json  # the probe's own, after the look at sys.modules
print(json.dumps({"loaded": loaded, "meta": json.loads(buf.getvalue())["meta"]}))
"""

    def test_commands_load_only_what_they_run(self, tmp_path):
        proc = _fresh_python(["-S", "-c", self.PROBE], timeout=120,
                             PLINV_CACHE_DIR=str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["loaded"] == []
        assert report["meta"]["timestamp"]

    # One command in a fresh process: its exit code, the plinv modules it
    # loaded, and the class of the error its handler raises, if any.
    COMMAND = """
import io, sys
from plinv import cli

argv = ["--no-meta", *sys.argv[1:]]
rc = cli.main(argv, out=io.StringIO())
modules = sorted(name[6:] for name in sys.modules if name.startswith("plinv."))
stdlib = [name for name in ("decimal", "fcntl", "fractions", "json", "numbers", "re")
          if name in sys.modules]
import json  # the probe's own, after the look at sys.modules
args = cli.parse_args(argv)
try:
    cli.HANDLERS.get(args.command, cli.cmd_modsym_dump)(args)
    error = None
except Exception as exc:
    error = type(exc).__name__
print(json.dumps({"rc": rc, "modules": modules, "stdlib": stdlib, "error": error}))
"""

    def _command(self, tmp_path, *argv):
        proc = _fresh_python(["-S", "-c", self.COMMAND, *argv], timeout=120,
                             PLINV_CACHE_DIR=str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    # `--no-cache modsym dump` runs modular-symbol code alone: no padic.  No
    # command loads cache, the retired space store, with a cache directory
    # or without.  Reports are written without json, and exact scalars stay
    # ints, so only li-period, which parses rationals, loads fractions (with
    # decimal, numbers and re); no command writes a cache file, so none loads
    # fcntl; only li-period loads periods, and only check-twist twists
    @pytest.mark.parametrize("argv,modules,stdlib", [
        (["--no-cache", "modsym", "dump", "--level", "11"], ["cli", "linalg", "modsym"], []),
        (["li-period", "30^1", "-p", "5"], ["cli", "padic", "periods"],
         ["decimal", "fractions", "numbers", "re"]),
        (["--no-cache", "li-curve", "--label", "11a1", "-p", "11"],
         ["cli", "curves", "padic"], []),
        (["import-curve", "--row", "19a1 0,1,1,-9,-15"], ["cli", "curves", "padic"], []),
        (["--no-cache", "check-ezc", "--label", "11a1", "-p", "11", "--depth", "1"],
         ["cli", "curves", "linalg", "measures", "modsym", "padic"], []),
        (["--no-cache", "check-twist", "--label", "11a1", "-D", "5", "-p", "11", "--depth", "1"],
         ["cli", "curves", "linalg", "measures", "modsym", "padic", "twists"], []),
        (["--no-cache", "lp", "--label", "11a1", "-p", "11", "--depth", "1"],
         ["cli", "curves", "linalg", "measures", "modsym", "padic"], []),
        (["--no-cache", "stickelberger", "--label", "11a1", "-p", "11", "-n", "1"],
         ["cli", "curves", "linalg", "measures", "modsym", "padic"], []),
    ], ids=["modsym-dump", "li-period", "li-curve", "import-curve", "check-ezc", "check-twist",
            "lp", "stickelberger"])
    def test_each_command_loads_the_modules_it_runs(self, tmp_path, argv, modules, stdlib):
        report = self._command(tmp_path, *argv)
        assert report == {"rc": 0, "modules": modules, "stdlib": stdlib, "error": None}

    @pytest.mark.parametrize("argv,error", [
        (["li-period", "1^1", "-p", "5"], "NotAPeriodError"),
        (["--no-cache", "li-curve", "--label", "11a1", "-p", "5"], "CurveError"),
        (["--no-cache", "check-ezc", "--label", "11a1", "-p", "5", "--depth", "2"],
         "MeasureError"),
        (["--no-cache", "modsym", "dump", "--level", "0"], "ModSymError"),
    ], ids=["not-a-period", "curve", "measure", "modsym"])
    def test_lazily_loaded_errors_exit_2(self, tmp_path, argv, error):
        report = self._command(tmp_path, *argv)
        assert (report["rc"], report["error"]) == (2, error)

    def test_star_import_binds_each_name_to_its_home(self):
        import importlib

        import plinv

        names = {}
        exec("from plinv import *", names)
        for name in plinv.__all__:
            home = importlib.import_module(f"plinv.{plinv._HOME[name]}")
            assert names[name] is getattr(home, name), name
            assert name not in vars(plinv), name  # resolved on each use
        assert set(names) - {"__builtins__"} == set(plinv.__all__)

    def test_unknown_name_is_an_attribute_error(self):
        import plinv

        with pytest.raises(AttributeError, match="no_such_name"):
            plinv.no_such_name


def _readme_commands():
    """The argument lists of the `plinv` lines in README's "Command line" block."""
    import re
    import shlex
    from pathlib import Path

    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"^## Command line\n\n```sh\n(.*?)^```", text, re.S | re.M).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("plinv ")]


def _benchmark_commands():
    """The argv of every command of the workloads BENCHMARK.json names."""
    import importlib.util
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "perfbench"))  # run.py imports its siblings
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench/run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(root / "perfbench"))
    names = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    return [argv for name in names for argv in run.WORKLOADS[name].commands]


class TestReadme:
    """Every command README shows runs, and its report validates against the
    command's schema: a flag the README shows and the parser lost fails here."""

    def test_every_command_is_shown(self):
        from plinv.cli import HANDLERS

        assert {argv[0] for argv in _readme_commands()} == set(HANDLERS)

    @pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
    def test_command_runs_and_validates(self, tmp_path, argv):
        rc, out = run(argv, tmp_path)
        assert rc == 0, argv
        _validate_report(argv, out)


def _validate_report(argv, out):
    """Validate out, the JSON report of argv, against its command's schema."""
    command = next(arg for arg in argv if arg[0] != "-")
    schema = "modsym_dump" if command == "modsym" else command.replace("-", "_")
    TestSchemas._validate(out, schema + ".json")


class TestProcess:
    """`python -m plinv.cli` leaves by os._exit, which flushes nothing.  On a
    block-buffered stdout a process must still print the bytes that `main`
    prints in process, with its stderr and exit code."""

    CORRUPT = "modsym_13_plus.json"  # in every cache, left as planted: no command reads it

    @pytest.mark.parametrize("argv,code", [
        *((argv, 0) for argv in _readme_commands() + _benchmark_commands()),
        (["li-period", "6^1", "-p", "5"], 2),
        (["li-curve", "--label", "11a1", "-p", "4"], 3),
        (["modsym", "dump", "--level", "13"], 0),
    ], ids=lambda x: " ".join(x) if isinstance(x, list) else str(x))
    def test_a_process_prints_what_main_prints(self, tmp_path, monkeypatch, capsys, argv, code):
        import subprocess
        import sys

        # a relative cache directory, so that import-curve registers the same path
        argv = ["--no-meta", "--cache-dir", "cache", *argv]
        for side in ("process", "main"):
            (tmp_path / side / "cache").mkdir(parents=True)
            (tmp_path / side / "cache" / self.CORRUPT).write_text("{ truncated")
        proc = subprocess.Popen([sys.executable, "-m", "plinv.cli", *argv],
                                cwd=tmp_path / "process", stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=_buffered_env())
        monkeypatch.chdir(tmp_path / "main")
        buf = io.StringIO()
        rc = main(argv, out=buf)  # while the process runs on the other core
        out, err = proc.communicate(timeout=120)
        assert rc == code
        assert (proc.returncode, out, err.decode()) == (rc, buf.getvalue().encode(),
                                                        capsys.readouterr().err)
        for side in ("process", "main"):
            assert (tmp_path / side / "cache" / self.CORRUPT).read_text() == "{ truncated"


class TestSchemas:
    @staticmethod
    def _validate(payload, schema_name):
        import importlib.resources

        import jsonschema

        from referencing import Registry
        from referencing.jsonschema import DRAFT7

        root = importlib.resources.files("plinv").joinpath("schemas")
        schema = json.loads(root.joinpath(schema_name).read_text())
        common = DRAFT7.create_resource(json.loads(root.joinpath("common.json").read_text()))
        registry = Registry().with_resources(
            (key, common) for key in
            ("common.json", "plinv/common.json", "plinv/plinv/common.json"))
        jsonschema.validate(payload, schema, registry=registry)

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

    @pytest.mark.parametrize("schema,field", [
        ("check_ezc", "matched_sign"), ("check_ezc", "Lp0_is_zero"), ("lp", "Lp0_is_zero"),
        ("check_twist", "factor_two_exact"), ("check_twist", "ratio_euler_agreement_digits"),
        ("check_twist", "product_vanishing_order_at_least_2"),
        ("check_twist", "ratio_agreement_digits"), ("check_twist", "tate_agreement_digits"),
        ("stickelberger", "projection_compatible"), ("import_curve", "registered")])
    def test_each_verdict_says_what_proves_it(self, schema, field):
        import importlib.resources

        def found(node):  # every schema of `field` under a "properties"
            if isinstance(node, list):
                return [s for child in node for s in found(child)]
            if not isinstance(node, dict):
                return []
            here = [node["properties"][field]] if field in node.get("properties", {}) else []
            return here + [s for child in node.values() for s in found(child)]

        root = importlib.resources.files("plinv").joinpath("schemas")
        schemas = found(json.loads(root.joinpath(schema + ".json").read_text()))
        assert len(schemas) == 1 and schemas[0]["description"]

    @pytest.mark.parametrize("label,p", [("11a1tw5", 7), ("11a1tw-7", 5)])
    def test_lp_where_a_row_of_the_log_walk_is_exactly_zero(self, label, p):
        # the row sum is an exact zero, and k^j times it is exactly 0
        rc, out = run(["lp", "--label", label, "-p", str(p), "--depth", "2"])
        assert rc == 0
        self._validate(out, "lp.json")

    def test_references_resolve(self):
        import jsonschema

        rc, out = run(["lp", "--label", "11a1", "-p", "11", "--depth", "1"])
        assert rc == 0
        self._validate(out, "lp.json")
        # Lp0 is checked only through its $ref into common.json
        out["Lp0"] = "1/x"
        with pytest.raises(jsonschema.ValidationError, match="1/x"):
            self._validate(out, "lp.json")
