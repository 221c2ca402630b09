"""deltashell benchmark: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload spectrum|decay|oracle|cli|all
                             --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a checkout. Each workload runs in its own fresh,
single-threaded Python process on the package under src/ (nothing is
installed). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones. --workload all
runs the four in turn and prints one such object per workload, keyed by
name. --quick runs every workload for a short time, traced and untraced,
plus the referees' self-test: the benchmark's own test. See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("spectrum", "decay", "oracle", "cli")
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 150

# Import time of the package in a fresh interpreter; exits 3 if the import
# resolves anywhere but the checkout's src/.
IMPORT_PROBE = ("import sys, time\n"
                "t0 = time.perf_counter()\n"
                "import deltashell\n"
                "dt = time.perf_counter() - t0\n"
                "sys.exit(3) if not deltashell.__file__.startswith(sys.argv[1]) else print(dt)\n")


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _run(cmd, env, timeout):
    """Run cmd in its own process group; kill the whole group if it overruns."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{Path(cmd[1]).name} did not finish within {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, cmd[1:3]))}... exited {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    return out


def setup_seconds(env):
    """Median import time of deltashell over fresh interpreters.

    One untimed import first compiles the bytecode and fills the file cache,
    which users pay once per install, not once per run.
    """
    probe = [sys.executable, "-c", IMPORT_PROBE, str(SRC)]
    _run(probe, env, 60)
    return statistics.median(float(_run(probe, env, 60).split()[-1])
                             for _ in range(SETUP_SAMPLES))


def run_workload(name, seed, seconds, trace, rounds=0, env=None):
    out = OUT_DIR / f"result-{name}-{seed}-{trace}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    if rounds:
        cmd += ["--rounds", str(rounds)]
    _run(cmd, env, CHILD_TIMEOUT_S)
    return json.loads(out.read_text())


def measure(name, seed, seconds, trace, env):
    """One benchmark run of one workload: (result object, details for the log)."""
    if trace:
        traced = run_workload(name, seed, seconds, 1, env=env)
        plain = run_workload(name, seed, seconds, 0, rounds=traced["rounds"], env=env)
        metrics = traced["layers"]
        metrics["trace.overhead"] = {
            "value": 100.0 * (traced["wall_s"] / plain["wall_s"] - 1), "unit": "%"}
        res = traced
        correct = traced["correct"] and plain["correct"]
        errors = traced["errors"] + plain["errors"]
    else:
        setup = setup_seconds(env)
        res = run_workload(name, seed, seconds, 0, env=env)
        metrics = {"setup_s": {"value": setup, "unit": "s"}, **res["metrics"]}
        correct, errors = res["correct"], res["errors"]
    result = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
              "metrics": metrics}
    details = {"rounds": res["rounds"], "wall_s": res["wall_s"], "errors": errors,
               "median_ms": res["median_ms"]}
    return result, details


def report(name, result, details):
    print(f"== {name}: {result['attempted']} attempted, {result['failed']} failed "
          f"(known faults), {details['rounds']} rounds in {details['wall_s']:.2f} s, "
          f"correct={result['correct']}")
    for err in details["errors"]:
        print(f"   check failed: {err}")
    for metric, m in result["metrics"].items():
        print(f"   {metric:45s} {m['value']:14.6g} {m['unit']}")
    for kind, ms in details["median_ms"].items():
        print(f"   median latency, {kind:30s} {ms:14.6g} ms")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured time per run (default 15, or 1 with --quick)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="short traced and untraced runs of every workload plus the "
                        "referee self-test; exits 1 on any failed check")
    args = p.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else (1.0 if args.quick else 15.0)

    if not (SRC / "deltashell" / "__init__.py").is_file():
        print(f"error: no deltashell package under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    env = child_env()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.quick:
            return quick(names, args.seed, seconds, env)
        results = {}
        for name in names:
            result, details = measure(name, args.seed, seconds, args.trace, env)
            report(name, result, details)
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def quick(names, seed, seconds, env):
    ok = True
    selftest = subprocess.run([sys.executable, str(HERE / "checks.py")], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    print(f"== referee self-test: {selftest.stdout.strip() or selftest.stderr.strip()}")
    ok &= selftest.returncode == 0
    for name in names:
        for trace in (0, 1):
            result, details = measure(name, seed, seconds, trace, env)
            report(f"{name} (trace {trace})", result, details)
            ok &= result["correct"]
    print(json.dumps({"quick": True, "correct": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
