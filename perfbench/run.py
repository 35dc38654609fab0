"""plinv's benchmark: real `plinv` commands, timed end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a plinv source checkout; it runs `src/plinv` and
writes only under `.perfbench_work/`, which it removes on exit.

Each command runs in a fresh `python -m plinv.cli --no-meta ...` process,
one at a time (a closed loop with a single client).  A run sets the
workload up `SETUPS` times, then makes whole passes over its commands;
the seed fixes the order of commands within each pass.  Every output is
checked (`checks.py`).  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (`E2E`).  With
`--trace 1` each command runs twice, plain and under `traced_cli.py`,
and the metrics are the per-layer ones (`per_layer_metrics()`), per pass.
Times are in reference seconds: scaled by the machine's speed, measured
with `calibrate()` around and during each process.  The line before the
result reports raw seconds too, each command's median latency, failure
and stdout sha256, the pass orders, `error_rate` and
`agreement_digits_min`.  See README.md.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import Checker
from tracer import COUNTERS, TARGETS, aggregate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUPS = 2           # set-ups per untraced run; setup_s is their median
CMD_TIMEOUT_S = 60   # a command is killed after this; failures count at this latency
CAL_REF_S = 0.0018   # calibrate() on an idle core of the 2-core Xeon VM
SPLIT_PAIRS = [("11a1", 11), ("14a1", 7), ("15a1", 5), ("17a1", 17), ("21a1", 3), ("37b1", 37)]

E2E = [("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"), ("op_p90_s", "s"),
       ("peak_rss_mb", "MB")]


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = [("cli.startup_s", "s")]
    for name, *_ in TARGETS:
        out += [(name + ".calls", "count"), (name + ".self_s", "s")]
    out += [(name, "count") for name in COUNTERS]
    return out + [("cli.output_bytes", "bytes"), ("trace.overhead_s", "s")]


@dataclass
class Workload:
    name: str
    commands: list       # arguments after `plinv --no-meta`
    warm_cache: bool = False  # one cache per run, filled during set-up
    min_passes: int = 2  # untraced; a median needs at least two samples


def _workloads():
    ezc = [["--no-cache", "check-ezc", "--label", label, "-p", str(p),
            "--depth", "3" if p in (17, 37) else "4"] for label, p in SPLIT_PAIRS]
    levels = [["--no-cache", "modsym", "dump", "--level", str(n), "--hecke", "2,3"]
              for n in (389, 500, 997, 1000)]
    desk = []
    for label, p in SPLIT_PAIRS:
        pair = ["--label", label, "-p", str(p)]
        desk += [["li-curve", *pair, "--prec", "40"],
                 ["check-ezc", *pair, "--depth", "2"],
                 ["lp", *pair, "--depth", "2", "--table"],
                 ["stickelberger", *pair, "-n", "2"]]
    desk += [["check-twist", "--label", "11a1", "-D", "5", "-p", "11"],
             ["check-twist", "--label", "11a1", "-D", "-4", "-p", "11"],
             ["li-period", "30^1", "-p", "5", "--branch", "p", "--prec", "8"],
             ["li-period", "(2/3)^-2 * 50^1", "-p", "5", "--branch", "cyc"],
             ["modsym", "dump", "--level", "11", "--sign", "+", "--hecke", "2,3"],
             ["modsym", "dump", "--level", "37", "--sign", "+", "--hecke", "2,3"]]
    tate = [["--no-cache", "li-curve", "--label", label, "-p", str(p), "--prec", str(prec)]
            for prec in (20, 70, 75, 200, 350) for label, p in SPLIT_PAIRS]
    return {w.name: w for w in [
        # 37b1 takes most of a pass, and its time varies most: three samples
        Workload("ezc-deep", ezc, min_passes=3),
        Workload("modsym-levels", levels),
        # 4 passes of 30 commands: at least 100 latencies, 10 beyond p90
        Workload("desk-survey", desk, warm_cache=True, min_passes=4),
        Workload("tate-prec", tate),
    ]}


WORKLOADS = _workloads()


class SetupError(RuntimeError):
    pass


def calibrate():
    """Best of 3 timings of a fixed pure-Python loop: the speed the machine
    gives this process right now.  Neighbours on a shared host can slow it
    by half for seconds to minutes at a time."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter_ns()
        total, slots = 0, {}
        for i in range(20000):
            total += i * i % 7
            slots[i & 255] = total
        best = min(best, time.perf_counter_ns() - start)
    return best / 1e9


def _sample_speed(stop, cals):
    while not stop.wait(0.1):
        cals.append(calibrate())


def _env(cache_dir):
    env = dict(os.environ, PLINV_CACHE_DIR=str(cache_dir), XDG_CACHE_HOME=str(cache_dir))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _plinv(argv, spans=None):
    """The process that runs one plinv command, plain or traced."""
    if spans is None:
        return [sys.executable, "-m", "plinv.cli", "--no-meta", *argv]
    return [sys.executable, str(HERE / "traced_cli.py"), str(spans), "--no-meta", *argv]


def _spawn(cmd, cache_dir, work):
    """Run one process: (latency s, exit code, stdout, stderr, peak RSS MB).
    Latency runs from spawn to reaping the child."""
    env = _env(cache_dir)
    with tempfile.TemporaryFile(dir=work) as out, tempfile.TemporaryFile(dir=work) as err:
        start = time.perf_counter_ns()
        env["PERFBENCH_SPAWN_NS"] = str(start)
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CMD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        latency = (time.perf_counter_ns() - start) / 1e9
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return latency, proc.returncode, out.read(), err.read(), usage.ru_maxrss / 1024


class Run:
    """One run of one workload: set-up, timed passes, checks and metrics."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.rng = random.Random(seed)
        self.work = work
        self.checker = Checker(SRC / "plinv" / "schemas")
        self.cache = None
        self.samples = []
        self.setup_failures = []
        self.cals = [calibrate()]
        self._verdicts = {}  # (command, exit code, stdout sha256) -> failure

    def spawn(self, cmd, cache):
        """`_spawn`, plus the factor that converts its times to reference
        seconds: CAL_REF_S over the median calibration taken just before,
        every 0.1 s during, and just after the command."""
        cals = [self.cals[-1]]
        stop = threading.Event()
        sampler = threading.Thread(target=_sample_speed, args=(stop, cals))
        sampler.start()
        try:
            result = _spawn(cmd, cache, self.work)
        finally:
            stop.set()
            sampler.join()
        cals.append(calibrate())
        self.cals += cals[1:]
        return (*result, CAL_REF_S / statistics.median(cals))

    def set_up(self, index):
        """Fresh directories, a bytecode-compiling import of the package and,
        for a warm-cache workload, one pass that fills a fresh cache.
        Returns its time in reference and in raw seconds: the sum over the
        processes it ran, like a pass."""
        run_dir = self.work / f"setup-{index}"
        run_dir.mkdir()
        self.cache = run_dir / "cache"
        raw, code, _, err, _, scale = self.spawn([sys.executable, "-c", "import plinv.cli"],
                                                 self.cache)
        if code != 0:
            raise SetupError(f"cannot import plinv from {SRC}: {err.decode(errors='replace')}")
        ref = raw * scale
        if self.workload.warm_cache:
            for argv in self.workload.commands:
                latency, code, out, _, _, scale = self.spawn(_plinv(argv), self.cache)
                raw, ref = raw + latency, ref + latency * scale
                reason = self.checker.check(argv, code, out)
                if reason:
                    self.setup_failures.append(f"{' '.join(argv)}: {reason}")
        return ref, raw

    def command(self, i, traced):
        argv = self.workload.commands[i]
        cache = self.cache
        if not self.workload.warm_cache:
            cache = Path(tempfile.mkdtemp(prefix="cache-", dir=self.work))
        spans = self.work / "spans.json" if traced else None
        latency, code, out, err, rss, scale = self.spawn(_plinv(argv, spans), cache)
        digest = hashlib.sha256(out).hexdigest()
        key = (i, code, digest)  # the same bytes get the same verdict
        if key not in self._verdicts:
            self._verdicts[key] = self.checker.check(argv, code, out)
        reason = self._verdicts[key]
        if reason and code != 0:
            reason += ": " + err.decode(errors="replace").strip()[-160:]
        sample = {"cmd": i, "traced": traced, "raw_s": latency, "latency": latency * scale,
                  "rss_mb": rss, "bytes": len(out), "sha256": digest, "failure": reason}
        if "check-ezc" in argv and not reason:
            sample["agreement_digits"] = json.loads(out)["agreement_digits"]
        if traced:
            if spans.exists():
                trace = json.loads(spans.read_text())
                spans.unlink()
            else:  # the runner died before writing its spans
                trace = {"names": [name for name, *_ in TARGETS], "spans": [],
                         "counters": dict.fromkeys(COUNTERS, 0), "startup_ns": 0}
                sample["failure"] = sample["failure"] or "traced run wrote no spans"
            sample["calls"], self_s, _ = aggregate(trace)
            sample["self_s"] = {name: t * scale for name, t in self_s.items()}
            sample["counters"] = trace["counters"]
            sample["startup_s"] = trace["startup_ns"] / 1e9 * scale
        if not self.workload.warm_cache:
            shutil.rmtree(cache)
        self.samples.append(sample)

    def passes(self, seconds, traced):
        """Whole passes, each in its own seeded order, until the next one
        would end after `seconds` of wall time; at least `min_passes`, or
        one when traced."""
        least = 1 if traced else self.workload.min_passes
        start = time.perf_counter()
        orders = []
        while True:
            begun = time.perf_counter()
            order = self.rng.sample(range(len(self.workload.commands)), len(self.workload.commands))
            orders.append(order)
            for i in order:
                self.command(i, traced=False)
                if traced:
                    self.command(i, traced=True)
            now = time.perf_counter()
            if len(orders) >= least and (now - start) + (now - begun) > seconds:
                return orders

    def by_command(self, traced, key):
        out = {}
        for s in self.samples:
            if s["traced"] == traced:
                out.setdefault(s["cmd"], []).append(s[key])
        return out

    def slowdown(self):
        return statistics.median(self.cals) / CAL_REF_S

    def end_to_end(self, setup_times):
        plain = [s for s in self.samples if not s["traced"]]
        medians = {i: statistics.median(v) for i, v in self.by_command(False, "latency").items()}
        # each command at its median latency, once per sample
        pool = [CMD_TIMEOUT_S if s["failure"] else medians[s["cmd"]] for s in plain]
        return {
            "setup_s": statistics.median(setup_times),
            "wall_s": sum(medians.values()),
            "op_p50_s": statistics.median(pool),
            "op_p90_s": statistics.quantiles(pool, n=10)[8] if len(pool) > 1 else pool[0],
            "peak_rss_mb": max(s["rss_mb"] for s in plain),
        }

    def per_layer(self):
        traced = [s for s in self.samples if s["traced"]]
        first = {}
        for s in traced:
            first.setdefault(s["cmd"], s)
        out = {"cli.startup_s": sum(map(statistics.median,
                                        self.by_command(True, "startup_s").values()))}
        self_s = self.by_command(True, "self_s")
        for name, *_ in TARGETS:
            out[name + ".calls"] = sum(s["calls"][name] for s in first.values())
            out[name + ".self_s"] = sum(statistics.median(v[name] for v in samples)
                                        for samples in self_s.values())
        for name in COUNTERS:
            out[name] = sum(s["counters"][name] for s in first.values())
        out["cli.output_bytes"] = sum(s["bytes"] for s in first.values())
        latency = {t: sum(map(statistics.median, self.by_command(t, "latency").values()))
                   for t in (False, True)}
        out["trace.overhead_s"] = latency[True] - latency[False]
        return out

    def counts_repeat(self):
        """True when every traced sample of a command made the same calls."""
        first = {}
        for s in self.samples:
            if s["traced"]:
                key = (s["calls"], s["counters"])
                if first.setdefault(s["cmd"], key) != key:
                    return False
        return True


def measure(workload, seed, seconds, trace):
    """Run one workload; returns (report, result) as printed."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        run = Run(workload, seed, work)
        setups = []
        for i in range(1 if trace else SETUPS):
            if i:
                shutil.rmtree(work / f"setup-{i - 1}")
            setups.append(run.set_up(i))
        orders = run.passes(seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    if trace:
        metrics, units = run.per_layer(), dict(per_layer_metrics())
    else:
        metrics, units = run.end_to_end([ref for ref, _ in setups]), dict(E2E)
    failed = sum(1 for s in run.samples if s["failure"])
    digits = [s["agreement_digits"] for s in run.samples if "agreement_digits" in s]
    commands = []
    for i, argv in enumerate(workload.commands):
        mine = [s for s in run.samples if s["cmd"] == i and not s["traced"]]
        commands.append({
            "argv": ["--no-meta", *argv],
            "median_s": statistics.median(s["latency"] for s in mine),
            "median_raw_s": statistics.median(s["raw_s"] for s in mine),
            "samples": len(mine),
            "sha256": sorted({s["sha256"] for s in run.samples if s["cmd"] == i}),
            "failure": next((s["failure"] for s in mine if s["failure"]), None),
        })
    report = {
        "workload": workload.name, "seed": seed, "trace": trace,
        "passes": len(orders), "orders": orders, "samples": len(run.samples),
        "setup_raw_s": [raw for _, raw in setups], "setup_failures": run.setup_failures,
        "slowdown": run.slowdown(),
        "wall_raw_s": sum(statistics.median(v) for v in run.by_command(False, "raw_s").values()),
        "error_rate": failed / len(run.samples),
        "agreement_digits_min": min(digits) if digits else None,
        "commands": commands,
    }
    if trace:
        report["counts_repeat"] = run.counts_repeat()
    result = {
        "correct": failed == 0 and not run.setup_failures,
        "attempted": len(run.samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return report, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "plinv" / "cli.py").is_file():
        print(f"perfbench: no plinv source under {SRC}; run from a plinv checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            report, result = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            print(json.dumps(report, sort_keys=True))
            print(json.dumps(result), flush=True)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
