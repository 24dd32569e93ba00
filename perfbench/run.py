"""Benchmark for centext: one workload per run, measured end to end or traced.

    python3 perfbench/run.py --workload h2-deg4 --seed 1 --seconds 20 --trace 0

It runs from the root of a source checkout and imports the package from
``src/`` there.  With ``--trace 0`` it repeats whole rounds of the
workload's operations until ``--seconds`` have passed and prints the
end-to-end metrics, timed at a reference machine speed (see
``speed.py``); with ``--trace 1`` it runs one plain round and one round
with every layer wrapped in spans (see ``spans.py``), and prints the
per-layer metrics.  Every output is checked by ``checks.py`` after the
timed region.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--smoke`` runs small
sizes of the same operations in seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"  # inputs written at set-up, and span files
SETUP_SAMPLES = 9

PER_LAYER = (
    ("fields.Scalar.created", "count"),
    ("identities.evaluate_tree.calls", "count"),
    ("identities.evaluate_tree.self_s", "s"),
    ("identities.builtin_variety.self_s", "s"),
    ("algebra.multiply.calls", "count"),
    ("algebra.multiply.self_s", "s"),
    ("algebra.satisfies_variety.calls", "count"),
    ("algebra.satisfies_variety.self_s", "s"),
    ("cohomology.cocycle_space.self_s", "s"),
    ("cohomology.second_cohomology.calls", "count"),
    ("cohomology.second_cohomology.self_s", "s"),
    ("cohomology.check_cocycle.calls", "count"),
    ("cohomology.check_cocycle.self_s", "s"),
    ("cohomology.reduce_class.calls", "count"),
    ("cohomology.reduce_class.self_s", "s"),
    ("cohomology.annihilator_intersection.calls", "count"),
    ("cohomology.annihilator_intersection.self_s", "s"),
    ("linalg.kernel_basis.calls", "count"),
    ("linalg.kernel_basis.self_s", "s"),
    ("linalg.kernel_basis.rows", "count"),
    ("linalg.kernel_basis.cols", "count"),
    ("linalg.kernel_basis.rank", "count"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.rref_with_transform.self_s", "s"),
    ("linalg.mat_vec.calls", "count"),
    ("linalg.mat_vec.self_s", "s"),
    ("linalg.mat_mul.calls", "count"),
    ("linalg.mat_mul.self_s", "s"),
    ("automorphisms.Automorphism.created", "count"),
    ("automorphisms.class_action_matrix.calls", "count"),
    ("automorphisms.class_action_matrix.self_s", "s"),
    ("automorphisms.act_on_cocycle.calls", "count"),
    ("automorphisms.act_on_cocycle.self_s", "s"),
    ("orbits.ClassAction.apply.calls", "count"),
    ("orbits.ClassAction.apply.self_s", "s"),
    ("orbits.ClassAction.normalize_line.calls", "count"),
    ("orbits.ClassAction.line_in_t1.calls", "count"),
    ("orbits.ClassAction.line_in_t1.self_s", "s"),
    ("orbits.classify.self_s", "s"),
    ("orbits.domain_size", "count"),
    ("orbits.orbit_count", "count"),
    ("orbits.check_table1.self_s", "s"),
    ("extensions.central_extension.calls", "count"),
    ("extensions.central_extension.self_s", "s"),
    ("extensions.build_extension.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("bench.trace_overhead_s", "s"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small sizes, runs in seconds")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_package():
    """Import centext from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "centext" / "__init__.py").is_file():
        raise SystemExit(f"error: no centext package under {src}")
    sys.path.insert(0, str(src))
    centext = importlib.import_module("centext")
    if Path(centext.__file__).resolve().parent != (src / "centext").resolve():
        raise SystemExit(f"error: imported centext from {centext.__file__}, not {src}")
    importlib.import_module("centext.cli")
    return centext


def setup(args, recorder=None):
    """What every CLI invocation pays: import the package, build the
    workload's varieties, and make the inputs.  With a recorder, all but
    the import is traced, as operation -1."""
    centext = import_package()
    if recorder is None:
        return build_inputs(centext, args)
    import spans

    restore = spans.install(recorder)
    try:
        return build_inputs(centext, args)
    finally:
        restore()


def build_inputs(centext, args):
    wl = workloads.build(args.workload, args.seed, args.smoke, OUT_DIR / "inputs")
    varieties = {v: centext.identities.builtin_variety(v) for v in wl.varieties}
    fields = {}
    for op in wl.ops:
        if op.trial is not None:
            t = op.trial
            fld = fields.setdefault(t["field"], centext.Field.from_spec(t["field"]))
            op.ctx = {
                "base": centext.null_filiform(t["n"], fld),
                "variety": varieties[t["variety"]],
                "theta": centext.BilinearForm.from_vector(
                    fld, t["n"], [fld.scalar(x) for x in t["entries"]]
                ),
            }
    return centext, wl


def setup_samples(args):
    """Set-up times of fresh interpreters, one after another."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up run failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def _call(centext, op, buf, err):
    """The operation itself: one CLI call, or one lemma trial."""
    if op.trial is not None:
        a, v, theta = op.ctx["base"], op.ctx["variety"], op.ctx["theta"]
        return (
            centext.is_cocycle(a, v, theta),
            centext.satisfies_variety(centext.build_extension(a, [theta]), v),
        )
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        rc = centext.cli.main(op.argv)
    if rc not in (0, 1):
        raise SystemExit(rc)
    return buf.getvalue()


def run_op(centext, op, sampling):
    """Run one operation.  Returns its Sampler, its output (None when it
    failed) and its failure (None when it did not)."""
    gc.collect()
    buf, err = io.StringIO(), io.StringIO()
    out = failure = None
    with speed.Sampler(sampling) as timer:
        try:
            out = _call(centext, op, buf, err)
        except SystemExit as exc:  # usage errors, and exit codes other than 0 and 1
            failure = f"exit {exc.code}: {err.getvalue().strip()}"
        except Exception as exc:  # a traceback for the user: count it, go on
            failure = f"{type(exc).__name__}: {exc}"
    return timer, out, failure


@dataclass
class Round:
    raw_s: list         # per operation, as measured
    scaled_s: list      # per operation, at reference speed
    outputs: list
    failures: list


def run_round(centext, wl, sampling, recorder=None):
    """One pass over the operations.  Traced runs do not sample the
    machine's speed, so spans hold only the package's work."""
    rnd = Round([], [], [], [])
    for k, op in enumerate(wl.ops):
        if recorder is not None:
            recorder.op = k
        timer, out, failure = run_op(centext, op, sampling)
        rnd.raw_s.append(timer.raw_s)
        rnd.scaled_s.append(timer.scaled_s)
        rnd.outputs.append(out)
        rnd.failures.append(failure)
        if recorder is not None and out is not None and op.argv is not None:
            recorder.add("cli.stdout_bytes", len(out.encode()))
    return rnd


def check_outputs(wl, rounds):
    """Check the first round's outputs; later rounds must repeat them."""
    problems = []
    first, fails = rounds[0].outputs, rounds[0].failures
    for k, op in enumerate(wl.ops):
        if any(r.outputs[k] != first[k] or r.failures[k] != fails[k] for r in rounds[1:]):
            problems.append(f"{op.name}: output changed between rounds")
        if fails[k] is not None:
            if not op.expect_fault:
                print(f"  unexpected failure in {op.name}: {fails[k]}", file=sys.stderr)
            continue
        try:
            op.check(first[k])
        except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
            problems.append(f"{op.name}: {type(exc).__name__}: {exc}")
    return problems


def report(args, wl, rounds, columns, metrics, problems):
    """Print a per-operation table (columns: (title, seconds per op)), the
    metrics, and last the one-line JSON result."""
    attempted = len(wl.ops) * len(rounds)
    failed = sum(f is not None for r in rounds for f in r.failures)
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  rounds {len(rounds)}")
    print("  " + "  ".join(f"{title:>12}" for title, _ in columns) + "  operation (* frontier)")
    for k, op in enumerate(wl.ops):
        mark = " *" if op.frontier else ""
        fail = f"  FAILED: {rounds[0].failures[k]}" if rounds[0].failures[k] else ""
        cells = "  ".join(f"{col[k]:10.4f} s" for _, col in columns)
        print(f"  {cells}  {op.name}{mark}{fail}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    print(f"  attempted {attempted}  failed {failed}  correct {not problems}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


def measure(args):
    with speed.Sampler() as timer:
        centext, wl = setup(args)
    samples = [timer.scaled_s] + setup_samples(args)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(run_round(centext, wl, sampling=True))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    problems = check_outputs(wl, rounds)
    raw = [statistics.median(r.raw_s[k] for r in rounds) for k in range(len(wl.ops))]
    per_op = [statistics.median(r.scaled_s[k] for r in rounds) for k in range(len(wl.ops))]
    frontier = next(k for k, op in enumerate(wl.ops) if op.frontier)
    print(f"raw wall_s {sum(raw):.4f} s; the speed snippet took "
          f"{1000 * speed.REFERENCE_S * sum(raw) / sum(per_op):.3f} ms on average")
    metrics = {
        "setup_s": {"value": statistics.median(samples), "unit": "s"},
        "wall_s": {"value": sum(per_op), "unit": "s"},
        "frontier_s": {"value": per_op[frontier], "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }
    columns = [("raw", raw), ("at ref speed", per_op)]
    return report(args, wl, rounds, columns, metrics, problems)


def trace(args):
    import spans

    recorder = spans.Recorder()
    centext, wl = setup(args, recorder)
    plain = run_round(centext, wl, sampling=False)
    restore = spans.install(recorder)
    try:
        traced = run_round(centext, wl, False, recorder)
    finally:
        restore()
    problems = check_outputs(wl, [plain, traced])
    OUT_DIR.mkdir(exist_ok=True)
    recorder.write(OUT_DIR / f"spans-{wl.name}.bin")
    values = dict(recorder.counters)
    for name in recorder.names:
        values[f"{name}.calls"] = recorder.calls[name]
        values[f"{name}.self_s"] = recorder.self_s[name]
    values["bench.trace_overhead_s"] = sum(traced.raw_s) - sum(plain.raw_s)
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
    columns = [("untraced", plain.raw_s), ("traced", traced.raw_s)]
    return report(args, wl, [plain, traced], columns, metrics, problems)


def main(argv=None):
    args = parse_args(argv)
    for _ in range(3):  # the first snippets in a fresh interpreter run cold
        speed.snippet()
    if args.setup_only:
        with speed.Sampler() as timer:
            setup(args)
        print(json.dumps({"setup_s": timer.scaled_s}))
        return 0
    return trace(args) if args.trace else measure(args)


if __name__ == "__main__":
    sys.exit(main())
