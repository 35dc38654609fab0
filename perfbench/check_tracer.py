"""Checks of the benchmark's own tracer and metric lists.

    python3 -m pytest -q perfbench/check_tracer.py

Not named test_*.py on purpose: the call counts below describe the
current call structure of plinv, which a later optimisation may change,
so the repository's test suite does not collect this file.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import p1_size  # noqa: E402
from run import E2E, per_layer_metrics  # noqa: E402
from tracer import aggregate  # noqa: E402


def _env(tmp_path):
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                PLINV_CACHE_DIR=str(tmp_path / "cache"),
                PERFBENCH_SPAWN_NS=str(time.perf_counter_ns()))


def traced(tmp_path, *argv):
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "traced_cli.py"), str(spans), "--no-meta", *argv],
        env=_env(tmp_path), capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    plain = subprocess.run([sys.executable, "-m", "plinv.cli", "--no-meta", *argv],
                           env=_env(tmp_path / "plain"), capture_output=True, timeout=120)
    assert proc.stdout == plain.stdout  # the wrappers change no output
    return json.loads(spans.read_text())


def _children_of(trace, child, parent):
    names, spans = trace["names"], trace["spans"]
    return sum(1 for k, _, _, up in spans
               if names[k] == child and up >= 0 and names[spans[up][0]] == parent)


@pytest.fixture(scope="module")
def ezc_11(tmp_path_factory):
    return traced(tmp_path_factory.mktemp("ezc"), "--no-cache", "check-ezc",
                  "--label", "11a1", "-p", "11", "--depth", "4")


def test_riemann_sum_counts_are_exact(ezc_11):
    calls, _, _ = aggregate(ezc_11)
    units = 10 * 11 ** 3  # (Z/11^4)^*
    # one evaluation per unit, plus {0 -> oo} when normalising and checking
    assert calls["modsym.evaluate"] == units + 2
    assert ezc_11["counters"]["measures.cells"] == units
    # one log per unit in the Riemann sum, one for log_p(q_E) in periods.li
    assert _children_of(ezc_11, "padic.iwasawa_log", "measures.lp_value_and_derivative") == units
    assert _children_of(ezc_11, "padic.iwasawa_log", "periods.li") == 1
    assert calls["padic.iwasawa_log"] == units + 1
    assert calls["padic.teichmuller"] == units + 1


def test_li_curve_computes_the_tate_period_twice(tmp_path):
    trace = traced(tmp_path, "--no-cache", "li-curve", "--label", "37b1", "-p", "37",
                   "--prec", "20")
    calls, _, _ = aggregate(trace)
    assert calls["curves.tate_period"] == 2
    assert calls["cli.main"] == 1


@pytest.mark.parametrize("level", [37, 100])
def test_p1_size_is_the_index(tmp_path, level):
    trace = traced(tmp_path, "--no-cache", "modsym", "dump", "--level", str(level))
    assert trace["counters"]["modsym.p1_size"] == p1_size(level)
    assert aggregate(trace)[0]["modsym.p1_enumerate"] == 1


def test_self_time_within_total(ezc_11):
    calls, self_s, total_s = aggregate(ezc_11)
    for name in calls:
        assert -1e-9 <= self_s[name] <= total_s[name] + 1e-9, name
    root = [end - start for k, start, end, up in ezc_11["spans"] if up < 0]
    assert len(root) == 1 and ezc_11["names"][ezc_11["spans"][0][0]] == "cli.main"
    assert sum(self_s.values()) == pytest.approx(root[0] / 1e9, rel=1e-9)
    assert ezc_11["startup_ns"] > 0


INSTALL_AND_LIST_MISSED = """
import sys
sys.path.insert(0, sys.argv[1])
import plinv, plinv.cli
from tracer import Tracer, install, unpatched_references
tracer = Tracer()
install(tracer)
if len(sys.argv) > 2:  # re-bind one original, as an unpatched import would
    plinv.cli.build_measure = tracer.originals["measures.build_measure"]
print(unpatched_references(tracer))
"""


def _missed(tmp_path, *extra):
    proc = subprocess.run([sys.executable, "-c", INSTALL_AND_LIST_MISSED, str(HERE), *extra],
                          env=_env(tmp_path), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_every_binding_is_patched(tmp_path):
    assert _missed(tmp_path) == "[]"


def test_missed_binding_is_detected(tmp_path):
    assert _missed(tmp_path, "rebind") == "[('measures.build_measure', 'dict')]"


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == E2E
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_metrics()
