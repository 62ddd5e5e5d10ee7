#!/usr/bin/env python3
"""Benchmark of the sblq package at the a1 scale (d = 72, T = 20).

Run from the repository root:

    python3 perfbench/run.py --workload a1-cli-pipeline --seed 0 --seconds 55 --trace 0

Each workload is a closed loop with one caller: it repeats a pass until the
next one would overrun ``--seconds`` (at least one pass).  Every pass checks
its outputs: exit codes, finite parameters, quality values against
perfbench/reference.json, and byte-identical outputs across passes.  The
report goes to standard output; its last line is one JSON object with the keys
correct, attempted, failed and metrics.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics.  See perfbench/README.md.
"""
from __future__ import annotations

import os
import sys

# One BLAS thread, fixed before numpy loads: the count is the same on every
# commit, and compare's two worker threads do not oversubscribe the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import ctypes
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# Only the package in this checkout is measured, never an installed copy.
if not (SRC / "sblq" / "__init__.py").is_file():
    sys.exit(f"error: no sblq package under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))
from sblq import cli, config, data, envs, interpret, learner, policy, spectral  # noqa: E402

from tracer import Tracer

SBLQ_MODULES = (config, data, envs, spectral, learner, policy, interpret, cli)
TRACED_METHODS = ((envs.SyntheticEnv, "step_outcome"),)

SPECTRAL_METHODS = ("tikhonov", "gradient-descent", "cutoff")
N_TRAJECTORIES = 1000     # per a1-spectral-train world and per a1-compare pass
# a1-cli-pipeline generates fewer trajectories and rolls out fewer episodes
# than the preset, so that its commands take 0.1-0.3 s and a run holds about
# 80 passes: on a shared host the fastest of many short samples is steady,
# and the fastest of 13 samples of the 1000-trajectory pipeline was not.
PIPELINE_TRAJECTORIES = 100
PIPELINE_EPISODES = 50
REFERENCE_WORLDS = 32     # a1 worlds 0..31 have recorded quality values
SPECTRAL_WORLDS = 3       # a1 worlds per a1-spectral-train pass
# a1-compare always runs world 0: its cost is the lasso path, whose iteration
# count varies with the world (12.4-24.7 s per pass over worlds 0-9), so a
# seed-chosen world would put that variation into the run-to-run spread.
COMPARE_WORLD = 0
COMPARE_JOBS = 2
REL_TOL = 1e-3            # quality values must match the reference this closely
SETUP_REPEATS = 5

# The set-up a user pays before any work, in a fresh interpreter: start,
# imports, the first BLAS/LAPACK calls and building the workload's inputs.
# This module is imported before numpy, so that it fixes the BLAS threads.
SETUP_PROBE = ("import sys\n"
               "sys.path.insert(0, {bench!r})\n"
               "import run, numpy\n"
               "run.spectral.decompose(numpy.eye(72))\n"
               "numpy.ones((72, 72)) @ numpy.ones(72)\n"
               "run.WORKLOADS[{name!r}](0, run.Path({scratch!r}), {worlds!r}).build()\n")


@dataclass
class Op:
    """One checked operation: a trained model or a CLI command's output."""

    key: str
    values: dict | None = None    # quality values compared with the reference
    theta: np.ndarray | None = None
    output: str | None = None     # text that must repeat byte for byte across passes
    error: str | None = None


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_cli(argv):
    """Run the CLI in process; returns None on exit code 0, else what went wrong."""
    try:
        code = cli.main(argv)
    except Exception as exc:  # a traceback escaping main is a failed operation
        return _error_text(exc)
    return None if code == 0 else f"{argv[0]} exited with code {code}"


@contextmanager
def timed_calls(targets):
    """Time the calls made through ``(owner, attribute, label)`` bindings.

    Yields a list that collects ``(label, CPU seconds of the calling thread,
    result)`` per call; the original bindings are restored on exit.  CPU time,
    because compare's cells share the interpreter lock: a cell's wall time
    depends on whether it happened to overlap the lasso cell.
    """
    calls = []
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]

    def timed(label, fn):
        def call(*args, **kwargs):
            start = time.thread_time()
            result = fn(*args, **kwargs)
            calls.append((label, time.thread_time() - start, result))
            return result
        return call

    for (owner, attr, label), (_, _, fn) in zip(targets, originals):
        setattr(owner, attr, timed(label, fn))
    try:
        yield calls
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


class SpectralTrain:
    """Library calls: the three spectral filters on pre-built a1 worlds."""

    name = "a1-spectral-train"

    def __init__(self, seed, scratch, worlds=None):
        self.worlds = worlds if worlds is not None else [
            (SPECTRAL_WORLDS * seed + i) % REFERENCE_WORLDS for i in range(SPECTRAL_WORLDS)]
        self.setup_samples = {"gen_s": []}
        self.inputs = []

    def build(self):
        """Build the pass's inputs; each build gives the same inputs."""
        self.inputs = inputs = []
        for w in self.worlds:
            env = envs.make_env(envs.A1_ENV, w)
            gen_start = time.perf_counter()
            dataset, truth = envs.generate_trajectories(env, N_TRAJECTORIES, seed=w)
            self.setup_samples["gen_s"].append(time.perf_counter() - gen_start)
            train_set, eval_set = data.split(dataset, 0.5, w)
            inputs.append((w, train_set, eval_set, truth))

    def run_pass(self):
        ops, steps, timings = [], {}, {"train_s": [], "eval_s": []}
        for w, train_set, eval_set, truth in self.inputs:
            for method in SPECTRAL_METHODS:
                key = f"{w}/{method}"
                try:
                    cfg = learner.default_config(method, reward_bound=train_set.reward_bound)
                    t0 = time.perf_counter()
                    bundle, _ = learner.train(train_set, method, cfg, seed=w)
                    t1 = time.perf_counter()
                    report = policy.evaluate(bundle, truth.theta_star, eval_set,
                                             env=None, seed=w)
                    t2 = time.perf_counter()
                    model_text = learner.model_json_text(bundle)
                except Exception as exc:  # counted as a failed operation; the loop goes on
                    ops.append(Op(key, error=_error_text(exc)))
                    continue
                steps[f"{key}/train"], steps[f"{key}/eval"] = t1 - t0, t2 - t1
                timings["train_s"].append(t1 - t0)
                timings["eval_s"].append(t2 - t1)
                ops.append(Op(key, values={"param_gap": report.parameter_gap,
                                           "reward": report.cumulative_reward},
                              theta=bundle.theta_matrix(), output=model_text))
        return steps, ops, timings


class Compare:
    """``sblq compare`` on one a1 world with a two-thread pool."""

    name = "a1-compare"

    def __init__(self, seed, scratch, worlds=None):
        self.world = COMPARE_WORLD
        self.worlds = [self.world]
        self.out = scratch / "compare"
        self.setup_samples = {}

    def build(self):
        """Nothing to build: the pass generates its own inputs."""

    def run_pass(self):
        argv = ["compare", "--preset", "a1-performance", "--seeds", "1",
                "--jobs", str(COMPARE_JOBS), "--seed", str(self.world), "--out", str(self.out)]
        targets = [(cli, "train", "train"), (cli, "train_baseline", "train"),
                   (cli, "evaluate", "eval"), (envs, "generate_trajectories", "gen")]
        with timed_calls(targets) as calls:
            start = time.perf_counter()
            error = run_cli(argv)
            wall = time.perf_counter() - start
        timings = {f"{label}_s": [statistics.fmean(s for lab, s, _ in calls if lab == label)]
                   for label in ("train", "eval", "gen") if any(lab == label for lab, _, _ in calls)}
        keys = [f"{self.world}/{m}" for m in config.METHODS]
        steps = {"compare": wall}
        if error is not None:
            return steps, [Op(k, error=error) for k in keys], timings
        bundles = {}
        for label, _, result in calls:
            if label == "train":
                bundle = result[0] if isinstance(result, tuple) else result
                bundles[bundle.filter_kind] = bundle
        with open(self.out / "compare.csv", newline="") as fh:
            rows = {row["method"]: row for row in csv.DictReader(fh)
                    if row["seed"] == str(self.world)}
        ops = []
        for method, key in zip(config.METHODS, keys):
            row, bundle = rows.get(method), bundles.get(method)
            if row is None or bundle is None:
                ops.append(Op(key, error=f"no compare row or model for {method}"))
                continue
            ops.append(Op(key, values={"param_gap": float(row["parameter_gap"]),
                                       "policy_gap": float(row["policy_gap"]),
                                       "reward": float(row["reward"])},
                          theta=bundle.theta_matrix(), output=learner.model_json_text(bundle)))
        return steps, ops, timings


class CliPipeline:
    """``gen``, ``train --method cutoff``, ``eval --env``, ``report --topk 4,16``
    through files, in process."""

    name = "a1-cli-pipeline"

    def __init__(self, seed, scratch, worlds=None):
        self.world = worlds[0] if worlds else seed % REFERENCE_WORLDS
        self.worlds = [self.world]
        self.data_dir = scratch / "data"
        self.run_dir = scratch / "run"
        self.setup_samples = {}

    def build(self):
        """Nothing to build: the pass generates its own inputs."""

    def _steps(self):
        s, d, r = str(self.world), str(self.data_dir), str(self.run_dir)
        model, env = str(self.run_dir / "model.json"), str(self.data_dir / "env.json")
        episodes = str(PIPELINE_EPISODES)
        return (
            ("gen", ["gen", "--preset", "a1-performance", "--seed", s,
                     "--n", str(PIPELINE_TRAJECTORIES), "--out", d]),
            ("train", ["train", "--dataset", d, "--method", "cutoff", "--seed", s, "--out", r]),
            ("eval", ["eval", "--model", model, "--dataset", d,
                      "--truth", str(self.data_dir / "ground_truth.json"), "--env", env,
                      "--n-episodes", episodes, "--seed", s, "--out", r]),
            ("report", ["report", "--model", model, "--dataset", d, "--env", env,
                        "--topk", "4,16", "--n-episodes", episodes, "--seed", s, "--out", r]),
        )

    def run_pass(self):
        steps, errors = {}, {}
        for name, argv in self._steps():
            t0 = time.perf_counter()
            errors[name] = run_cli(argv)
            steps[name] = time.perf_counter() - t0

        ops = []
        for name, read in (("gen", self._gen_op), ("train", self._train_op),
                           ("eval", self._eval_op), ("report", self._report_op)):
            key = f"{self.world}/{name}"
            if errors[name] is not None:
                ops.append(Op(key, error=errors[name]))
                continue
            try:
                ops.append(read(key))
            except (OSError, ValueError, KeyError) as exc:
                ops.append(Op(key, error=_error_text(exc)))
        return steps, ops, {f"{name}_s": [s] for name, s in steps.items()}

    def _gen_op(self, key):
        digest = hashlib.sha256()
        for name in ("header.json", "trajectories.jsonl", "ground_truth.json", "env.json"):
            digest.update((self.data_dir / name).read_bytes())
        return Op(key, output=digest.hexdigest())

    def _train_op(self, key):
        text = (self.run_dir / "model.json").read_text()
        theta = np.array([s["theta"] for s in json.loads(text)["stages"]], dtype=float)
        return Op(key, theta=theta, output=text)

    def _eval_op(self, key):
        metrics = json.loads((self.run_dir / "metrics.json").read_text())
        return Op(key, values={"param_gap": metrics["parameter_gap"],
                               "policy_gap": metrics["policy_gap"],
                               "reward": metrics["cumulative_reward"]})

    def _report_op(self, key):
        with open(self.run_dir / "topk.csv", newline="") as fh:
            curve = {f"topk_{row['k']}": float(row["reward"]) for row in csv.DictReader(fh)}
        return Op(key, values=curve,
                  output=(self.run_dir / "contributions.json").read_text())


WORKLOADS = {w.name: w for w in (SpectralTrain, Compare, CliPipeline)}


class Checker:
    """Checks each operation and counts the failures."""

    def __init__(self, reference):
        self.reference = reference
        self.first_output = {}
        self.attempted = 0
        self.failures = []

    def problems(self, op):
        if op.error is not None:
            return [op.error]
        found = []
        if op.theta is not None and not np.all(np.isfinite(op.theta)):
            found.append("non-finite theta")
        if op.values is not None:
            expected = self.reference.get(op.key)
            if expected is None:
                found.append("no reference value recorded")
            else:
                for field, want in expected.items():
                    got = op.values.get(field)
                    if got is None or not abs(got - want) <= REL_TOL * abs(want) + 1e-12:
                        found.append(f"{field} = {got!r}, reference {want!r}")
        if op.output is not None:
            first = self.first_output.setdefault(op.key, op.output)
            if op.output != first:
                found.append("output bytes differ from the first pass")
        return found

    def check(self, ops):
        for op in ops:
            self.attempted += 1
            found = self.problems(op)
            if found:
                self.failures.append((op.key, found))


def run_passes(workload, checker, seconds, setup):
    """Closed loop: repeat passes until the next would overrun ``seconds``,
    taking the set-up samples between passes.

    Returns each step's samples, keyed by step, the other timing samples and
    the first pass's operations.
    """
    steps, timings, first_ops, lengths = {}, {}, None, []
    start = time.perf_counter()
    while True:
        setup.sample_if_due(time.perf_counter() - start)
        pass_start = time.perf_counter()
        pass_steps, ops, pass_timings = workload.run_pass()
        checker.check(ops)
        lengths.append(time.perf_counter() - pass_start)
        first_ops = first_ops or ops
        for key, value in pass_steps.items():
            steps.setdefault(key, []).append(value)
        for key, values in pass_timings.items():
            timings.setdefault(key, []).extend(values)
        if time.perf_counter() - start + statistics.median(lengths) > seconds:
            break
    return steps, timings, first_ops, len(lengths)


def run_traced(workload, checker, seconds, setup):
    """Closed loop of untraced and traced passes in turn, so that both halves
    of each pair see the same machine state.  Returns the tracer, the
    untraced and traced pass times and cmd_compare's parallel efficiencies."""
    tracer = Tracer(OBSERVERS)
    untraced, traced, efficiency = [], [], []
    start = time.perf_counter()
    while True:
        setup.sample_if_due(time.perf_counter() - start)
        steps, ops, _ = workload.run_pass()
        untraced.append(sum(steps.values()))
        checker.check(ops)
        tracer.install(SBLQ_MODULES, TRACED_METHODS)
        try:
            steps, ops, _ = workload.run_pass()
        finally:
            tracer.uninstall()
        traced.append(sum(steps.values()))
        checker.check(ops)
        efficiency.extend(tracer.parallel_efficiency("cli.cmd_compare", COMPARE_JOBS))
        tracer.fold()
        pair = statistics.median(untraced) + statistics.median(traced)
        if time.perf_counter() - start + pair > seconds:
            return tracer, untraced, traced, efficiency


class SetUp:
    """Set-up samples: the wall time of ``SETUP_PROBE`` in a fresh
    interpreter, taken at times spread evenly over the run's ``seconds``.
    The host's speed drifts within a run, and samples taken back to back
    would all fall in one phase of that drift.  A child process, so that the
    benchmark's own peak memory does not count a second copy of the inputs.
    """

    def __init__(self, workload, scratch, seconds):
        self.code = SETUP_PROBE.format(bench=str(BENCH_DIR), name=workload.name,
                                       scratch=str(scratch), worlds=workload.worlds)
        self.seconds = seconds
        self.samples = []

    def sample_if_due(self, elapsed):
        done = len(self.samples)
        if done >= SETUP_REPEATS or elapsed < done * self.seconds / SETUP_REPEATS:
            return
        start = time.perf_counter()
        # No timeout: with one, subprocess polls the child in steps of up to
        # 50 ms, which would quantize the measurement.
        subprocess.run([sys.executable, "-c", self.code], cwd=ROOT, check=True)
        self.samples.append(time.perf_counter() - start)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_info():
    """BLAS library name and version from numpy's build record, and the thread
    count the loaded OpenBLAS reports (None where it cannot be queried)."""
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        name = "unknown"
    threads = None
    for lib_path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        if threads is not None:
            break
    return name, threads


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, workload, passes):
    blas_name, blas_threads = blas_info()
    return {
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_name, "blas_threads": blas_threads,
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": args.workload, "seed": args.seed, "a1_worlds": workload.worlds,
        "passes": passes, "seconds": args.seconds, "trace": args.trace,
    }


def describe(samples, unit):
    """Minimum (the reported value), median, and the highest percentile with
    at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    text = f"min {xs[0]:.4f} {unit}, median {statistics.median(xs):.4f} {unit}"
    for p in (99.9, 99.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            cut = statistics.quantiles(xs, n=1000, method="inclusive")[round(p * 10) - 1]
            return f"{text}, p{p:g} {cut:.4f} {unit} (n={n})"
    return f"{text} (n={n}; too few samples for a tail percentile)"


def end_to_end(workload, steps, timings, first_ops, setup_s, reference):
    """End-to-end metrics; a value whose samples are missing (a failed run) is 0.

    A timing is the fastest of the run's samples, and run_s is the sum over a
    pass's steps of each step's fastest time.  On a shared virtual machine
    the speed drifts by a third or more as other tenants load the host, in
    phases that can outlast a run, so the median of a run reports which phase
    the run fell in.  A short stretch of code still runs at full speed at some
    moment of nearly every run: the fastest of many short samples estimates
    its cost with the least interference, and the shorter the sample, the
    steadier that estimate.

    Quality is reported relative to the recorded reference values of the
    pass's models, so it reads 1 on every world while the package's numbers
    are unchanged: param_gap_ratio = sum(param_gap) / sum(reference), lower is
    better; reward_ratio = 1 + (sum(reward) - sum(reference)) /
    sum(|reference|), higher is better.  Sums, so that no single model with
    a reference near 0 dominates.
    """
    walls = [sum(values) for values in zip(*steps.values())]
    samples = {"run_s": walls, **workload.setup_samples, **timings}
    pairs = [(op.values, reference[op.key]) for op in first_ops
             if op.values and "param_gap" in op.values and op.key in reference]
    got_gap = sum(got["param_gap"] for got, _ in pairs)
    ref_gap = sum(ref["param_gap"] for _, ref in pairs)
    got_reward = sum(got["reward"] for got, _ in pairs)
    ref_reward = sum(ref["reward"] for _, ref in pairs)
    ref_scale = sum(abs(ref["reward"]) for _, ref in pairs)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "param_gap_ratio": got_gap / ref_gap if ref_gap else 0.0,
        "reward_ratio": 1.0 + (got_reward - ref_reward) / ref_scale if ref_scale else 0.0,
        "param_gap": got_gap / len(pairs) if pairs else 0.0,
        "reward": got_reward / len(pairs) if pairs else 0.0,
    }
    metrics["run_s"] = sum(min(values) for values in steps.values())
    for key in ("train_s", "eval_s"):
        metrics[key] = min(samples[key]) if samples.get(key) else 0.0
    return metrics, samples


# Counters whose source is not a span of the same name.
COUNTER_SOURCES = {
    "learner.scan": "learner.select_lambda",
    "cli.compare": "cli.cmd_compare",
}


def _count_scan(args, kwargs, result):
    report = result[2]
    fallback = int(not np.any(np.asarray(report.diff_norms) >= np.asarray(report.thresholds)))
    return {"learner.scan.grid_points": len(report.ks),
            "learner.scan.fallback_stages": fallback,
            f"learner.scan.fallback_stages.{args[2].kind}": fallback}


def _count_lasso(args, kwargs, result):
    return {"learner.fit_lasso.iterations": result.iterations,
            "learner.fit_lasso.converged": int(result.converged)}


def _count_jsonl(args, kwargs, result):
    return {"data.dataset_jsonl_text.bytes": len(result.encode())}


def _count_load(args, kwargs, result):
    return {"data.load_dataset.bytes": sum(os.path.getsize(p) for p in args[:2])}


OBSERVERS = {
    "learner.select_lambda": _count_scan,
    "learner.fit_lasso": _count_lasso,
    "data.dataset_jsonl_text": _count_jsonl,
    "data.load_dataset": _count_load,
}


def per_layer(tracer, untraced, traced, efficiency):
    """Per-pass layer metrics from the traced passes."""
    n = tracer.passes
    metrics = {}
    for name, (calls, inside, self_s) in tracer.totals.items():
        metrics[f"{name}.calls"] = calls / n
        metrics[f"{name}.s"] = inside / n
        metrics[f"{name}.self_s"] = self_s / n
    for key, value in tracer.counters.items():
        metrics[key] = value / n
    lasso_calls = tracer.totals.get("learner.fit_lasso", [0])[0]
    converged = tracer.counters.get("learner.fit_lasso.converged", 0.0)
    metrics["learner.fit_lasso.converged_ratio"] = converged / lasso_calls if lasso_calls else 0.0
    metrics["cli.compare.parallel_efficiency"] = statistics.fmean(efficiency) if efficiency else 0.0
    metrics["trace.run_s"] = statistics.fmean(traced)
    metrics["trace.overhead_s"] = statistics.median(t - u for u, t in zip(untraced, traced))
    metrics["trace.spans"] = sum(v[0] for v in tracer.totals.values()) / n
    return metrics


def is_absent(metric, tracer):
    """A layer metric is absent when the function it is measured at is no
    longer in the package, or its observer no longer fits the signature."""
    if metric.startswith("trace."):
        return False
    base = metric.rsplit(".", 1)[0]
    source = COUNTER_SOURCES.get(base, base)
    return source not in tracer.installed or source in tracer.broken


def print_trace_report(metrics, tracer):
    traced_run_s = metrics["trace.run_s"]
    print("per-layer (means per traced pass; share = self time / mean traced pass time):")
    selfs = sorted(((k[:-len(".self_s")], v) for k, v in metrics.items() if k.endswith(".self_s")),
                   key=lambda kv: -kv[1])
    for name, self_s in selfs[:20]:
        print(f"  {name:<38} self {self_s:9.4f} s  share {self_s / traced_run_s:6.1%}"
              f"  calls {metrics[name + '.calls']:.0f}")
    trains = metrics.get("learner.train.calls", 0.0)
    if trains:
        for name in ("spectral.filter_values.calls", "learner.variance_proxy.calls",
                     "spectral.weighted_half_norm.calls", "learner.select_lambda.calls",
                     "learner.scan.grid_points", "learner.scan.fallback_stages"):
            print(f"  per spectral learner.train call: {name} = "
                  f"{metrics.get(name, 0.0) / trains:g}")
        for name in sorted(k for k in metrics if k.startswith("learner.scan.fallback_stages.")):
            print(f"  {name} = {metrics[name]:g} per pass")
    if tracer.broken:
        print(f"  observers that failed: {sorted(tracer.broken)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        workload.build()
        setup = SetUp(workload, scratch, args.seconds)
        checker = Checker(reference[args.workload])
        if args.trace:
            tracer, untraced, traced, efficiency = run_traced(workload, checker, args.seconds,
                                                              setup)
            computed = per_layer(tracer, untraced, traced, efficiency)
            tracer.write(OUT_DIR / f"trace-{args.workload}.jsonl")
            passes = len(untraced) + len(traced)
            absent = [m["name"] for m in declared if is_absent(m["name"], tracer)]
        else:
            steps, timings, first_ops, passes = run_passes(workload, checker, args.seconds, setup)
            computed, samples = end_to_end(workload, steps, timings, first_ops,
                                           statistics.median(setup.samples), checker.reference)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"sblq benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment: " + json.dumps(environment(args, workload, passes)))
    print(f"set-up: {describe(setup.samples, 's')}, each in a fresh interpreter: imports, "
          f"first BLAS calls and the input build")
    if args.trace:
        print_trace_report(computed, tracer)
        print(f"tracing overhead: traced pass {computed['trace.run_s']:.4f} s, untraced "
              f"{statistics.fmean(untraced):.4f} s (means); median paired difference "
              f"{computed['trace.overhead_s']:.4f} s over {len(traced)} pairs")
        if absent:
            print(f"absent (function no longer in the package; reported as 0): {absent}")
    else:
        print(f"  run_s        {computed['run_s']:.4f} s: sum of the fastest times of "
              f"{len(steps)} steps")
        for key in ("run_s", "train_s", "eval_s", "gen_s", "report_s"):
            if key in samples:
                label = "pass" if key == "run_s" else key
                print(f"  {label:<12} {describe(samples[key], 's')}")
        print(f"  peak_rss_mb  {computed['peak_rss_mb']:.1f} MB")
        print(f"  param_gap    {computed['param_gap']:.6g} (ratio to reference "
              f"{computed['param_gap_ratio']:.6g}), reward {computed['reward']:.6g} "
              f"(ratio {computed['reward_ratio']:.6g}); means over the first pass's models")
    failed = len(checker.failures)
    print(f"failed_ratio: {failed}/{checker.attempted} = {failed / checker.attempted:g}")
    for key, found in checker.failures[:20]:
        print(f"  FAILED {key}: {'; '.join(found)}")

    metrics = {m["name"]: {"value": float(computed.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": checker.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
