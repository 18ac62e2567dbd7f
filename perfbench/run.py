"""Seeded end-to-end benchmark of the pbergman command line.

    python3 perfbench/run.py --workload kernel --seed 1 --seconds 36 --trace 0

Drives the program only through ``pbergman.cli.main(argv)``, in-process, as
a closed loop: one caller starts the next item when the last one returns.
It runs whole rounds (a workload's item list, see ``workloads.py``) until
``--seconds`` is spent, then checks every output.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of
``spans.py`` with ``--trace 1``.  A traced run alternates untraced and
traced rounds; ``trace.overhead_s`` is the difference of their median
round times.

An item fails when the CLI exits non-zero, its JSON says converged: false,
an output check fails, or a solve inside it returned converged = False.
``correct`` is false when any output is missing or fails its check.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import env

env.pin_threads()  # before numpy is imported

import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from time import perf_counter  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 9
# start another round only if it is expected to end within a quarter round
# of the deadline
ROUND_OVERSHOOT = 0.25

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_s_p50": "s",
    "solved_frac": "frac",
    "peak_rss_mb": "MB",
    "oracle_digits": "digits",
}


def import_program():
    """Import pbergman.cli afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "pbergman" or n.startswith("pbergman.")]:
        del sys.modules[name]
    cli = importlib.import_module("pbergman.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "pbergman").resolve():
        raise ImportError(f"pbergman was imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload: str, seed: int, workdir: Path):
    """Import plus input generation, repeated; returns the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir()
        cli = import_program()
        rounds = workloads.generate(workload, seed, workdir)
        times.append(perf_counter() - start)
    return cli, rounds, statistics.median(times)


class Tally:
    """Failures, check results and oracle digits over every item run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.digits = workloads.DIGITS_CAP
        self.problems: list[str] = []

    def record(self, item, code, stdout, stderr, nonconverged) -> None:
        self.attempted += 1
        reasons = []
        if code != 0:
            reasons.append(f"exit {code}")
        if nonconverged:
            reasons.append(f"{nonconverged} solve(s) not converged")
        if code in (0, 2):  # a record was printed
            try:
                errors, converged = item.check(stdout)
                if not converged:
                    reasons.append("converged: false")
                self.digits = min([self.digits] + [workloads.digits(e) for e in errors])
            except (workloads.CheckError, KeyError, IndexError, TypeError, ValueError) as exc:
                self.correct = False
                reasons.append(f"check failed: {exc!r}")
        else:
            self.correct = False
            reasons.append(f"no record: {stderr.strip()[-300:]}")
        if reasons:
            self.failed += 1
            self.problems.append(f"{' '.join(item.argv)}: {'; '.join(reasons)}")


def run_round(cli, items, counter: spans.SolveCounter, tally: Tally):
    """Run one item list back to back; returns (round seconds, item seconds)."""
    item_seconds, results = [], []
    round_start = perf_counter()
    for item in items:
        out, err = io.StringIO(), io.StringIO()
        before = counter.nonconverged
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(item.argv))
        except Exception:  # the program raised instead of exiting; keep measuring
            code = None
            err.write(traceback.format_exc())
        item_seconds.append(perf_counter() - start)
        results.append((item, code, out.getvalue(), err.getvalue(), counter.nonconverged - before))
    round_seconds = perf_counter() - round_start
    for result in results:
        tally.record(*result)
    return round_seconds, item_seconds


def measure(cli, rounds, seconds: float, trace: bool):
    counter = spans.SolveCounter()
    counter.install()
    tracer = spans.Tracer() if trace else None
    tally = Tally()
    plain_rounds, plain_items, traced_rounds = [], [], []
    start = perf_counter()
    for index, items in enumerate(rounds):
        done = plain_rounds + traced_rounds
        if len(done) >= (2 if trace else 1):
            expected = statistics.mean(done)
            if perf_counter() - start + (1.0 - ROUND_OVERSHOOT) * expected > seconds:
                break
        traced = trace and index % 2 == 1
        with tracer if traced else nullcontext():
            round_s, item_s = run_round(cli, items, counter, tally)
        if traced:
            traced_rounds.append(round_s)
        else:
            plain_rounds.append(round_s)
            plain_items += item_s
    return tally, tracer, plain_rounds, plain_items, traced_rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pbergman" / "cli.py").is_file():
        print(f"error: no pbergman sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))

    with tempfile.TemporaryDirectory(prefix="work-", dir=HERE) as tmp:
        cli, rounds, setup_s = set_up(args.workload, args.seed, Path(tmp) / "inputs")
        tally, tracer, plain_rounds, plain_items, traced_rounds = measure(
            cli, rounds, args.seconds, bool(args.trace)
        )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    print("environment: " + json.dumps(env.describe()))
    print(
        f"workload {args.workload}, seed {args.seed}: {len(plain_rounds)} untraced and "
        f"{len(traced_rounds)} traced rounds, {tally.attempted} items "
        f"({len(plain_items)} timed, the item_s_p50 sample count)"
    )
    # the result reports this as solved_frac = 1 - failed_frac, a metric that
    # is never 0
    print(f"failed_frac = {tally.failed / tally.attempted!r} frac "
          f"({tally.failed} failed / {tally.attempted} attempted)")
    print("round seconds: untraced " + " ".join(f"{t:.3f}" for t in plain_rounds)
          + ", traced " + " ".join(f"{t:.3f}" for t in traced_rounds))
    for problem in tally.problems[:10]:
        print("failed item: " + problem)
    if args.trace:
        traces = HERE / "traces"
        traces.mkdir(exist_ok=True)
        tracer.write(traces / f"{args.workload}-seed{args.seed}.jsonl")
        values = tracer.layer_metrics(len(traced_rounds))
        values["trace.overhead_s"] = (
            statistics.median(traced_rounds) - statistics.median(plain_rounds)
        )
        units = {name: spans.LAYER_UNITS.get(name, "count") for name in values}
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(plain_rounds),
            "item_s_p50": statistics.median(plain_items),
            "solved_frac": (tally.attempted - tally.failed) / tally.attempted,
            "peak_rss_mb": peak_rss_mb,
            "oracle_digits": tally.digits,
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
