#!/usr/bin/env python3
"""stockcast benchmark: run CLI workloads, check every output, print metrics.

    python3 bench/run.py --workload fixture_quickstart --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, untraced

Run from the repository root or anywhere else; the program is taken
from this checkout's src/. Each `stockcast` command runs in a fresh
process, one after another, from this one benchmark process: a closed
loop with one client. BLAS gets exactly as many threads as this process
may use cores (nproc). A run repeats the workload's command sequence
(a pass) at least as often as the workload says (two or three times)
and until --seconds have gone by. Every pass after the first must
reproduce the first one's files byte for byte; timings are medians over
the passes.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced passes and reports the per-module metrics from the spans of
the traced ones (see bench/tracer.py and bench/layers.py), plus the
tracing overhead. Inputs, outputs and spans live under .bench_work/ in
the checkout; the spans of the latest traced run of each workload stay
in .bench_work/traces/<workload>/.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NPROC = len(os.sched_getaffinity(0))

#: Files of the program under test; without them the benchmark refuses to run.
REQUIRED = ("src/stockcast/cli.py", "configs/fixture.conf", "fixtures/prices.csv",
            "scripts/make_fixtures.py")

#: Reported with --trace 0 on every workload; each is nonzero on all of them.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

#: Printed for people alongside END_TO_END. Each either does not apply to
#: every workload or, on a sub-second command, spreads too much from run
#: to run to gate on, so in the JSON they are per-layer cli.* metrics.
COMMAND_METRICS = (("ingest_s", "s"), ("featurize_s", "s"), ("train_eval_s", "s"),
                   ("simulate_s", "s"), ("train_sample_epochs_per_s", "1/s"),
                   ("posts_per_s", "1/s"))

SETUP_LAUNCHES = 9
SETUP_CODE = "import sys; from stockcast import cli; cli.parse_config(sys.argv[1])"
RUN_BUDGET_S = 170.0


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Launch:
    returncode: int
    spawn: float
    wall: float
    max_rss_mb: float
    stdout: str


class Spawner:
    """Runs processes through bench/spawner.py, which times each one and
    reads its own peak RSS; see there why it is a separate process."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def launch(self, argv, cwd, log, env, deadline):
        out, err = log.with_suffix(".out"), log.with_suffix(".err")
        self.proc.stdin.write(json.dumps({
            "argv": [str(a) for a in argv], "cwd": str(cwd), "env": env,
            "out": str(out), "err": str(err), "timeout_s": max(deadline - now(), 1.0),
        }) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Launch(reply["returncode"], reply["spawn"], reply["wall"],
                      reply["max_rss_kb"] / 1024.0,
                      out.read_text(encoding="utf-8", errors="replace"))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def pin_blas_threads():
    """BLAS gets nproc threads, here and in every child; call before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(NPROC)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def machine_facts():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


class Runner:
    """One benchmark run of one workload."""

    def __init__(self, spawner, workload, seed, seconds, trace):
        import check

        self.spawner = spawner
        self.check = check
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tally = check.Tally()
        self.env = child_env()
        self.work = ROOT / ".bench_work" / f"{workload.name}-s{seed}-p{os.getpid()}"
        self.started = now()
        self.deadline = self.started + RUN_BUDGET_S

    def run(self):
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "logs").mkdir(parents=True)
        try:
            self.inputs = self.workload.prepare(self.work / "input", self.seed)
            setup = [] if self.trace else self.measure_setup()
            passes = self.run_passes()
            if self.trace:
                metrics = self.layer_metrics(passes)
            else:
                metrics = self.end_to_end(setup, passes)
            self.keep_spans(passes)
            return metrics, len(passes)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def measure_setup(self):
        """Median wall of fresh interpreters importing stockcast.cli and
        parsing the workload config; one untimed launch warms the caches."""
        times = []
        for i in range(SETUP_LAUNCHES + 1):
            r = self.spawner.launch([sys.executable, "-c", SETUP_CODE, self.inputs.config],
                                    self.work, self.work / "logs" / f"setup{i}", self.env,
                                    self.deadline)
            self.tally.check(r.returncode == 0, f"setup launch {i}: exit code {r.returncode}")
            if i:
                times.append(r.wall)
        return times

    def run_passes(self):
        """Passes until both the workload's pass count and --seconds are
        reached; with --trace 1, every second pass is traced."""
        passes = []
        while len(passes) < self.workload.passes or now() - self.started < self.seconds:
            if passes and now() + max(p["wall"] for p in passes) > self.deadline:
                break
            k = len(passes)
            first = passes[0] if passes else None
            passes.append(self.run_pass(k, self.trace and k % 2 == 1, first))
        return passes

    def run_pass(self, k, traced, first):
        out_dir = self.work / f"out{k}"
        spans = self.work / f"spans{k}"
        if traced:
            spans.mkdir()
        results = {}
        for command in self.workload.commands:
            args = [command, "--config", str(self.inputs.config), "--out-dir", str(out_dir)]
            if traced:
                argv = [sys.executable, str(BENCH / "tracer.py"), str(spans / command),
                        f"pass{k}/{command}", "--", *args]
            else:
                argv = [sys.executable, "-m", "stockcast.cli", *args]
            r = self.spawner.launch(argv, self.work, self.work / "logs" / f"{k}-{command}",
                                    self.env, self.deadline)
            self.check.check_exit(self.tally, f"pass {k} {command}", r.returncode)
            results[command] = r
        first_launch = results[self.workload.commands[0]]
        last = results[self.workload.commands[-1]]
        self.check_pass(out_dir, results, first)
        return {"traced": traced, "results": results, "out": out_dir, "spans": spans,
                "wall": last.spawn + last.wall - first_launch.spawn}

    def check_pass(self, out_dir, results, first):
        check, tally, inputs = self.check, self.tally, self.inputs
        try:
            if first is not None:
                check.check_identical(tally, first["out"], out_dir)
                shutil.rmtree(out_dir)
                return
            config_hash = check.parse_config_hash(results["ingest"].stdout)
            check.check_config_hash(tally, out_dir, config_hash)
            commands = self.workload.commands
            if inputs.reference is not None:
                check.check_reference(tally, out_dir, inputs.reference)
            if "train-eval" in commands:
                check.check_recomputed(tally, out_dir)
            if "featurize" in commands:
                check.check_daily_counts(tally, out_dir, inputs.dates, inputs.expected_counts)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            tally.check(False, f"{out_dir.name}: outputs unreadable: {exc!r}")

    def command_metrics(self, passes):
        """Median wall of each command over the passes, and the throughputs."""
        def wall(command):
            times = [p["results"][command].wall for p in passes if command in p["results"]]
            return median(times) if times else 0.0

        ingest_s, train_eval_s = wall("ingest"), wall("train-eval")
        return {
            "ingest_s": ingest_s,
            "featurize_s": wall("featurize"),
            "train_eval_s": train_eval_s,
            "simulate_s": wall("simulate"),
            "train_sample_epochs_per_s":
                self.inputs.sizes["sample_epochs_per_train_eval"] / train_eval_s
                if train_eval_s else 0.0,
            "posts_per_s": self.inputs.sizes["posts"] / ingest_s,
        }

    def end_to_end(self, setup, passes):
        return {
            "setup_s": median(setup),
            "wall_s": median(p["wall"] for p in passes),
            "peak_rss_mb": max(r.max_rss_mb for p in passes for r in p["results"].values()),
            **self.command_metrics(passes),
        }

    def layer_metrics(self, passes):
        import layers

        plain = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        per_pass = []
        for p in traced:
            m, shape = layers.analyse([(p["results"][c].spawn, p["spans"] / c)
                                       for c in self.workload.commands])
            per_pass.append(m)
        values = {name: median(m[name] for m in per_pass) for name in per_pass[0]}
        values.update({f"cli.{k}": v for k, v in self.command_metrics(plain).items()})
        values["bench.trace_overhead_s"] = \
            median(p["wall"] for p in traced) - median(p["wall"] for p in plain)
        values["forecaster.gemm_peak_gflops"] = layers.gemm_peak_gflops(*shape) if shape else 0.0
        return values

    def keep_spans(self, passes):
        traced = [p for p in passes if p["traced"]]
        if not traced:
            return
        keep = ROOT / ".bench_work" / "traces" / self.workload.name
        shutil.rmtree(keep, ignore_errors=True)
        shutil.copytree(traced[-1]["spans"], keep)


def report(workload, seed, runner, metrics, passes, trace):
    import layers

    tally = runner.tally
    units = dict(metric_units(trace) + list(COMMAND_METRICS))
    units.update((f"cli.{n}", u) for n, u in COMMAND_METRICS)
    print(f"workload {workload.name} seed {seed}: {passes} passes, "
          f"{now() - runner.started:.1f} s")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    print(f"  {'error_rate':<40} {tally.failed / max(tally.attempted, 1):>14.6g} ratio "
          f"({tally.failed} of {tally.attempted})")
    for failure in tally.failures[:20]:
        print(f"  FAILED: {failure}")
    print("info " + json.dumps({
        "workload": workload.name, "seed": seed, "passes": passes, "trace": trace,
        "machine": machine_facts(), "inputs": runner.inputs.sizes,
        "computed_from_shapes": [n for n, u, _, _ in layers.PER_LAYER if u.endswith(".computed")],
    }, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not a stockcast checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    pin_blas_threads()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    with Spawner() as spawner:
        for name in names:
            runner = Runner(spawner, WORKLOADS[name], args.seed, args.seconds, args.trace)
            metrics, passes = runner.run()
            report(WORKLOADS[name], args.seed, runner, metrics, passes, args.trace)
            summary["attempted"] += runner.tally.attempted
            summary["failed"] += runner.tally.failed
            units = dict(metric_units(args.trace))
            reported = {n: {"value": metrics[n], "unit": u} for n, u in units.items()}
            summary["metrics"].update(reported if len(names) == 1 else {name: reported})
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


def metric_units(trace):
    """(name, unit) of the metrics the JSON line carries."""
    if trace:
        import layers

        return [(n, u) for n, u, _, _ in layers.PER_LAYER]
    return list(END_TO_END)


if __name__ == "__main__":
    sys.exit(main())
