"""Run the benchmark several times per workload and report the spread.

    python3 perfbench/steadiness.py --runs 10 [--first-seed 1]
        [--workload fit-small ...] [--seconds S] [--out FILE]

Each run gets its own seed.  For every end-to-end metric the report
gives the median, the quartiles (statistics.quantiles(values, n=4)),
the spread (third minus first quartile, as a share of the median) and
the bound from BENCHMARK.json.  Two workload seeds move an ESS figure
by dataset and chain differences alone, so this doubles as the
seed-sensitivity check.  With --out the runs and the summary are
written as JSON (inside the checkout, e.g. under .perfbench_out/).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    return json.loads(lines[-1]), env


def main(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="perfbench/steadiness.py")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {"runs": [], "summary": {}}
    worst = 0.0
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {name: [] for name in bounds}
        for k in range(args.runs):
            seed = args.first_seed + k
            result, env = run_once(workload, seed, args.seconds)
            record["runs"].append({"workload": workload, "seed": seed,
                                   "result": result, "env": env})
            if not result["correct"]:
                print(f"{workload} seed {seed}: INCORRECT "
                      f"({result['failed']} of {result['attempted']} failed)",
                      flush=True)
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            record["summary"].setdefault(workload, {})[name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds[name], "min": min(vals), "max": max(vals)}
            print(f"  {workload:10s} {name:18s} median {med:10.4g}  "
                  f"spread {spread:6.1%}  bound {bounds[name]:.0%}"
                  f"{'  OVER' if spread > bounds[name] else ''}")
    print(f"largest spread/bound (setup_s excluded): {worst:.2f}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
