"""genfrob benchmark harness.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...    # the four workloads in turn
    python3 perfbench/run.py --record-golden

Each pass runs every instance of the workload through
``genfrob.cli.main(argv)`` in a fresh interpreter whose imports are
done before the clock starts (child.py). Passes repeat, one child at a
time, until ``--seconds`` have elapsed. Every output is checked after
the passes (checks.py). The last line of stdout is one JSON object:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of traced passes (layertrace.py) interleaved with
untraced ones. See README.md for the metrics and the workloads.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
GOLDEN = HERE / "golden_seed0.json"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from child import probe_work  # noqa: E402
from layertrace import LAYERS, layer_self_times  # noqa: E402

SETUP_SAMPLES = 9
CHILD_TIMEOUT = 150
# Seconds child.probe_work() takes at the reference speed. A pass's time is
# reported at that speed: each instance's wall time is multiplied by
# REF_S over the median probe time measured around it in the same child.
REF_S = 0.00175
# Single-call figures from ROADMAP.md item 1: (call, weights, k) -> seconds.
ROADMAP_FIGURES = {
    ("frobenius.frobenius", (1001, 1003, 1007), 1): 1.9,
    ("frobenius.frobenius", (1001, 1003, 1007), 20): 3.3,
    ("poset.structure_poset", (31, 37, 41), None): 2.85,
    ("modules.minimal_generators", (13, 17, 29), 4): 0.015,
    ("modules.minimal_generators", (13, 17, 29), 6): 0.49,
    ("modules.minimal_generators", (13, 17, 29), 8): 13.0,
}
ROADMAP_IDEAL_7VAR = 0.39  # ROADMAP.md does not name the weights


class HarnessError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("GENFROB_DEGREE_CAP", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def probe_time():
    """Median time of three runs of child.probe_work() in this process."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        probe_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure_setup(samples):
    """(seconds at the reference speed, raw seconds) from spawning an
    interpreter until ``import genfrob.cli`` has finished, one sample per
    fresh interpreter, scaled by probe times taken just before and after."""
    out = []
    code = "import genfrob.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    for _ in range(samples):
        before = probe_time()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=child_env(), cwd=ROOT)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            _, err = proc.communicate(timeout=CHILD_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != b"ready\n" or proc.returncode != 0:
            raise HarnessError(f"cannot import genfrob.cli: {err.decode(errors='replace').strip()}")
        ref = (before + probe_time()) / 2
        out.append(((t1 - t0) * REF_S / ref, t1 - t0))
    return out


def prepare(workload, seed):
    """The workload's instances, with their argv (basis files written)."""
    WORK.mkdir(exist_ok=True)
    instances = workloads.build(workload, seed)
    argvs = []
    for i, inst in enumerate(instances):
        argv = list(inst["argv"])
        if inst["basis"]:
            path = WORK / f"{workload}-{seed}-{i}.basis"
            path.write_text(workloads.basis_lines(checks.weights_of(argv), inst["basis"]))
            argv += ["--basis", str(path)]
        argvs.append(argv)
    return instances, argvs


def run_pass(argvs, tag, spans_path=None):
    spec = WORK / f"{tag}.instances.json"
    spec.write_text(json.dumps(argvs))
    cmd = [sys.executable, str(HERE / "child.py"), str(spec)]
    if spans_path:
        cmd += ["--trace", str(spans_path)]
    proc = subprocess.run(cmd, capture_output=True, env=child_env(), cwd=ROOT,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise HarnessError(f"pass failed: {proc.stderr.decode(errors='replace').strip()}")
    return json.loads(proc.stdout)


def at_reference_speed(result):
    """One instance's wall time at the reference speed."""
    return result["wall_s"] * REF_S / result["ref_s"]


def scaled(pass_result):
    """The pass's wall time at the reference speed."""
    return sum(map(at_reference_speed, pass_result["results"]))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def check_passes(workload, seed, instances, passes, argvs):
    """(attempted, failed, problems, probe_failures) over every pass.

    The known-defect probe is checked like any verify instance but
    tallied apart: ROADMAP item 4b makes it fail on the reference code.
    """
    golden = None
    if seed == workloads.DEFAULT_SEED:
        golden = json.loads(GOLDEN.read_text())[workload]
    cross = {}
    if golden is None:
        crosses = [checks.cross_argv(inst) for inst in instances]
        wanted = [c for c in crosses if c]
        if wanted:
            got = run_pass(wanted, f"{workload}-{seed}-cross")["results"]
            cross = {i: got[wanted.index(c)] for i, c in enumerate(crosses) if c}
    attempted = failed = probe_failed = 0
    problems = []
    for p in passes:
        for i, (inst, res) in enumerate(zip(instances, p["results"])):
            if inst["argv"][0] == "verify":
                found = checks.check_verify(res)
            elif golden is not None:
                found = checks.check_golden(res, golden[i])
            else:
                found = checks.check_consistency(inst, res, cross.get(i))
            if inst["probe"]:
                probe_failed += bool(found)
                continue
            attempted += 1
            if found:
                failed += 1
                problems.append(f"{' '.join(argvs[i])}: {'; '.join(found)}")
    return attempted, failed, problems, probe_failed


def per_layer_metrics(dumps, traced, plain):
    """Layer metrics of the traced passes; times at the reference speed."""
    selfs = []
    for d, t in zip(dumps, traced):
        factor = scaled(t) / t["wall_s"]
        selfs.append({k: v * factor for k, v in layer_self_times(d["spans"], d["hot_time"]).items()})
    c = dumps[-1]["counters"]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (statistics.median(s.get(layer, 0.0) for s in selfs), "s")
    for name in ("counting.table_builds", "counting.table_cells", "counting.restarts",
                 "frobenius.f1_scans", "ideal.calls", "neighbourhood.ball_points",
                 "modules.candidates", "modules.generators", "poset.elements",
                 "poset.covers", "poset.cover_tests", "lattice.basis_builds",
                 "lattice.class_ops"):
        m[name] = (c[name], "count")
    m["frobenius.f1_useful_ratio"] = (ratio(dumps[-1]["f1_distinct_bases"], c["frobenius.f1_scans"]), "ratio")
    m["ideal.useful_ratio"] = (ratio(dumps[-1]["ideal_distinct_bases"], c["ideal.calls"]), "ratio")
    m["modules.useful_ratio"] = (ratio(c["modules.generators"], c["modules.candidates"]), "ratio")
    m["trace.overhead_s"] = (statistics.median(map(scaled, traced))
                             - statistics.median(map(scaled, plain)), "s")
    return m


def roadmap_lines(dump, factor):
    """Traced single-call durations beside the ROADMAP item-1 figures;
    factor converts a traced time to the reference speed."""
    lines = []
    for call in dump["calls"]:
        name, a, k = call["name"], tuple(call["a"]), call["k"]
        if call["index"] != 1:
            continue
        if name == "ideal.lattice_ideal" and len(a) == 7:
            ref = f"ROADMAP {ROADMAP_IDEAL_7VAR} s for 7 variables (weights not named)"
        elif name == "modules.minimal_generators" and a == (13, 17, 29):
            ref = "ROADMAP " + ", ".join(
                f"k={kk}: {v} s" for (n, aa, kk), v in ROADMAP_FIGURES.items() if n == name)
        elif (name, a, k) in ROADMAP_FIGURES:
            ref = f"ROADMAP {ROADMAP_FIGURES[(name, a, k)]} s"
        else:
            continue
        start, end = dump["spans"][call["span"]][1:3]
        lines.append(f"roadmap: {name} a={a} k={k}: traced {end - start:.3f} s "
                     f"({(end - start) * factor:.3f} s at the reference speed); {ref}")
    return lines


def record_golden():
    out = {}
    for workload in workloads.WORKLOADS:
        instances, argvs = prepare(workload, workloads.DEFAULT_SEED)
        res = run_pass(argvs, f"{workload}-golden")["results"]
        out[workload] = [
            {"argv": inst["argv"], "exit": r["exit"],
             "stdout": None if inst["argv"][0] == "verify" else r["stdout"]}
            for inst, r in zip(instances, res)
        ]
    GOLDEN.write_text(json.dumps(out, indent=1) + "\n")


def run(workload, seed, seconds, trace):
    if not (ROOT / "src" / "genfrob" / "cli.py").is_file():
        raise HarnessError(f"genfrob sources not found under {ROOT / 'src'}")
    instances, argvs = prepare(workload, seed)
    tag = f"{workload}-{seed}"
    spans_path = WORK / f"{tag}.spans.json"
    plain, traced, dumps, setup = [], [], [], []
    deadline = time.monotonic() + seconds
    while not plain or (trace and not traced) or time.monotonic() < deadline:
        # Set-up samples are spread over the run, like the passes.
        setup += measure_setup(2)
        if trace and len(traced) < len(plain):
            traced.append(run_pass(argvs, tag, spans_path))
            dumps.append(json.loads(spans_path.read_text()))
        else:
            plain.append(run_pass(argvs, tag))
    setup += measure_setup(max(SETUP_SAMPLES - len(setup), 0))
    attempted, failed, problems, probe_failed = check_passes(
        workload, seed, instances, plain + traced, argvs)
    for t in traced:
        for p_res, t_res, argv in zip(plain[0]["results"], t["results"], argvs):
            attempted += 1
            if (p_res["exit"], p_res["stdout"]) != (t_res["exit"], t_res["stdout"]):
                failed += 1
                problems.append(f"{' '.join(argv)}: traced output differs from untraced")

    walls = [scaled(p) for p in plain]
    raw = [p["wall_s"] for p in plain]
    rss = [p["rss_kb"] / 1024 for p in plain]
    lo, hi = quartiles(walls)
    print(f"workload {workload} seed {seed}: {len(instances)} instances, {len(plain)} untraced "
          f"and {len(traced)} traced passes")
    for i, inst in enumerate(instances):
        t = statistics.median(at_reference_speed(p["results"][i]) for p in plain)
        print(f"  {t:8.4f} s  genfrob {' '.join(inst['argv'])}"
              + (f" --basis <multipliers {inst['basis']}>" if inst["basis"] else "")
              + ("  [known-defect probe]" if inst["probe"] else ""))
    print(f"wall_s: median {statistics.median(walls):.4f} s, quartiles {lo:.4f}..{hi:.4f} s "
          f"(n={len(walls)} passes, at the reference speed)")
    r_lo, r_hi = quartiles(raw)
    refs = [r["ref_s"] for p in plain for r in p["results"]]
    print(f"raw wall time: median {statistics.median(raw):.4f} s, quartiles {r_lo:.4f}..{r_hi:.4f} s; "
          f"speed probe {min(refs) * 1e3:.3f}..{max(refs) * 1e3:.3f} ms (nominal {REF_S * 1e3} ms)")
    setup, setup_raw = [s for s, _ in setup], [r for _, r in setup]
    s_lo, s_hi = quartiles(setup)
    print(f"setup_s: median {statistics.median(setup):.4f} s, quartiles {s_lo:.4f}..{s_hi:.4f} s "
          f"(n={len(setup)} interpreters, at the reference speed; raw median "
          f"{statistics.median(setup_raw):.4f} s)")
    print(f"peak_rss_mb: median {statistics.median(rss):.3f} MB (n={len(rss)} passes)")
    print(f"error_rate: {failed}/{attempted} checked instance runs")
    n_probe = sum(inst["probe"] for inst in instances) * len(plain + traced)
    if n_probe:
        print(f"known-defect probe (ROADMAP item 4b, verify on weights containing 1): "
              f"{probe_failed}/{n_probe} runs failed; counting it, error_rate is "
              f"{failed + probe_failed}/{attempted + n_probe}")
    for line in problems[:20]:
        print(f"FAILED {line}")
    print("waiting: none. One process, one child at a time, no queues, locks or threads.")

    if trace:
        metrics = per_layer_metrics(dumps, traced, plain)
        for name, (value, unit) in metrics.items():
            print(f"  {name}: {value:.6g} {unit}")
        print("  poset.cover_tests is computed as the sum of N^3 over the posets built.")
        for line in roadmap_lines(dumps[0], scaled(traced[0]) / traced[0]["wall_s"]):
            print(line)
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description="genfrob benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all four in turn")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="record the default-seed outputs as golden_seed0.json")
    args = parser.parse_args(argv)
    try:
        if args.record_golden:
            record_golden()
        elif args.workload is None:
            parser.error("--workload is required")
        else:
            names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
            for name in names:
                run(name, args.seed, args.seconds, args.trace)
    except (HarnessError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
