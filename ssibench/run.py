#!/usr/bin/env python3
"""Build and run ssibench, the repository's benchmark.

Run from the root of a checkout:

  python3 ssibench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      Builds the benchmark (into .bench_build/ssibench) if needed, runs one
      workload, and passes its output through: the last line is the JSON
      result.

  python3 ssibench/run.py --steady <N> [--seconds <s>] [--workloads a,b]
      Steadiness mode: for each workload, two sets of N untraced runs taken
      alternately with distinct seeds. Prints every end-to-end metric's
      median, quartiles, min/max and quartile spread per set, and the shift
      of the second set's median against the first, next to the bounds in
      BENCHMARK.json.

  python3 ssibench/run.py --selftest
      Builds and runs the benchmark's own tests.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ssibench")
WORKLOADS = ["kv_readmostly", "dbt2_wal", "rubis_embedded"]
RUN_TIMEOUT_S = 170


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("ssibench: the engine's sources are not next to ssibench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        r = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr)
        if r.returncode != 0:
            sys.exit("ssibench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    r = subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets,
                       stdout=sys.stderr)
    if r.returncode != 0:
        sys.exit("ssibench: build failed")


def run_binary(args, capture):
    """Runs the benchmark binary from the checkout root; kills it on timeout.

    With `capture`, returns its standard output and passes its standard
    error on only if it fails."""
    pipe = subprocess.PIPE if capture else None
    proc = subprocess.Popen([os.path.join(BUILD, "ssibench")] + args, cwd=ROOT,
                            stdout=pipe, stderr=pipe)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("ssibench: run timed out")
    if capture and proc.returncode != 0:
        sys.stderr.write(err.decode())
    return proc.returncode, (out.decode() if capture else "")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(n, seconds, workloads, first_seed):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    ok = True
    for w in workloads:
        sets = [[], []]
        failed_share = [set(), set()]
        for i in range(2 * n):
            seed = first_seed + i
            rc, out = run_binary(["--workload", w, "--seed", str(seed), "--seconds",
                                  str(seconds), "--trace", "0"], capture=True)
            lines = out.strip().splitlines()
            if rc != 0 or not lines:
                sys.exit(f"ssibench: {w} seed {seed} failed (exit {rc})")
            res = json.loads(lines[-1])
            sets[i % 2].append(res)
            failed_share[i % 2].add((res["failed"], res["attempted"])
                                    if res["failed"] else 0)
            print(f"# {w} seed={seed} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                flush=True)
        print(f"{w}: {n} runs per set, failed shares {sorted(failed_share[0])} / "
              f"{sorted(failed_share[1])}")
        print(f"  {'metric':16} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'min':>12} {'max':>12} {'spread':>7} {'bound':>6} {'shift':>7}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, runs in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = quartiles(vals)
                medians.append(med)
                spread = (q3 - q1) / med if med else float("inf")
                shift = ""
                if s == 1:
                    worse = (medians[1] - medians[0]) / medians[0]
                    if m["better"] == "higher":
                        worse = -worse
                    shift = f"{worse:+.3f}"
                    if worse > bound:
                        ok = False
                if name != "setup_s" and spread > bound:
                    ok = False
                print(f"  {name:16} {s:>3} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{min(vals):12.6g} {max(vals):12.6g} {spread:7.4f} "
                      f"{bound:6.3f} {shift:>7}")
    print("steady: " + ("every spread and shift within its bound" if ok
                        else "SOME SPREAD OR SHIFT EXCEEDS ITS BOUND"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, default=0)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()

    if a.selftest:
        build(["ssibench_test"])
        return subprocess.run([os.path.join(BUILD, "ssibench_test")],
                              cwd=ROOT).returncode
    build(["ssibench"])
    if a.steady:
        return steady(a.steady, a.seconds, a.workloads.split(","), a.seed)
    if not a.workload:
        p.error("--workload is required")
    rc, _ = run_binary(["--workload", a.workload, "--seed", str(a.seed),
                        "--seconds", str(a.seconds), "--trace", str(a.trace)],
                       capture=False)
    return rc


if __name__ == "__main__":
    sys.exit(main())
