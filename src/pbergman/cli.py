"""Command-line entry point: every experiment as a reproducible run.

Output: levi, holder and limit write CSV when --out ends in .csv and JSON
otherwise; the kernel sweep (more than one p or z) always writes CSV; a
kernel point, metric and lacunary always write JSON, whatever the path.  The
fully resolved configuration leads the output (the "config" key, or a
"# config:" line above the CSV header), followed by the timestamp.  Only
limit runs seeded restarts, so only limit takes and echoes --seed and
--restarts.  Identical configuration gives byte-identical numeric output
modulo the timestamp.  Floats are printed with 17 significant digits
so they round-trip.

Exit codes: 0 converged, 2 numerically degraded (result still printed),
1 usage or precondition error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import analysis, kernel, lacunary
from .geometry import build_grid, parse_domain
from .solver import SolverConfig, solution_record

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGRADED = 2

OUTPUT_DIR_ENV = "PBERGMAN_OUTPUT_DIR"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt_float(x: float) -> str:
    return format(x, ".17g")


def _json_dump(obj, indent: int = 0) -> str:
    """JSON with floats at 17 significant digits and complex as {re, im}."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        items = [f'{inner}"{k}": {_json_dump(v, indent + 1).lstrip()}' for k, v in obj.items()]
        return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        items = [inner + _json_dump(v, indent + 1).lstrip() for v in obj]
        return pad + "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return pad + ("true" if obj else "false")
    if isinstance(obj, complex):
        return _json_dump({"re": obj.real, "im": obj.imag}, indent)
    if isinstance(obj, float):
        if math.isnan(obj):
            return pad + '"nan"'
        if math.isinf(obj):
            return pad + ('"inf"' if obj > 0 else '"-inf"')
        return pad + _fmt_float(obj)
    if isinstance(obj, int):
        return pad + str(obj)
    if obj is None:
        return pad + "null"
    return pad + '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise ValueError(f"cannot parse complex number {text!r}") from None


def _parse_list(text: str, parse):
    return [parse(tok) for tok in text.split(",") if tok.strip()]


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        nr, na = text.lower().split("x")
        return int(nr), int(na)
    except ValueError:
        raise ValueError(f"cannot parse grid spec {text!r}, expected e.g. 128x256") from None


def _resolve_out(out: str | None) -> Path | None:
    if out is None:
        return None
    path = Path(out)
    if not path.is_absolute():
        path = Path(os.environ.get(OUTPUT_DIR_ENV, ".")) / path
    return path


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


# What a command returns: the configuration, the JSON body without config and
# timestamp (None for the kernel sweep), an optional (header, rows) table of
# raw numbers, and whether every solve converged (exit 0, else exit 2).
_Table = tuple[list[str], list[list]]
_Result = tuple[dict, dict | None, _Table | None, bool]


def _emit(conf: dict, out: Path | None, document: dict | None, table: _Table | None) -> None:
    """Write a command's result to ``out``, or to stdout when it is None.

    The table goes out as CSV when ``out`` ends in .csv or there is no
    document, with the configuration and the timestamp as comment lines above
    the header; otherwise the document goes out as JSON, led by the same two
    fields.
    """
    if document is None or (table is not None and out is not None and out.suffix == ".csv"):
        header, rows = table
        lines = [
            "# config: " + _json_dump(conf).replace("\n", " "),
            "# timestamp: " + _timestamp(),
            ",".join(header),
        ]
        lines += [",".join(_fmt_float(x) for x in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = _json_dump({"config": conf, "timestamp": _timestamp()} | document) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _setup(args) -> kernel.Setup:
    domain = parse_domain(args.domain)
    return kernel.Setup(
        domain,
        degree=args.degree,
        n_min=args.nmin,
        grid=build_grid(domain, *_parse_grid(args.grid)),
        config=SolverConfig(tolerance=args.tol),
        margin=args.margin,
    )


def _common_arguments(sub):
    sub.add_argument("--domain", default="disk:1", help="disk:R, annulus:r0,r1, or punctured:R")
    sub.add_argument("--degree", type=int, default=kernel.DEFAULT_DEGREE)
    sub.add_argument("--nmin", type=int, default=None, help="lowest basis exponent")
    sub.add_argument(
        "--grid",
        default="128x256",
        help="radial x angular counts; a solve runs its early smoothing stages "
        "on a grid a quarter as fine each way when that keeps >= 16x32",
    )
    sub.add_argument("--tol", type=float, default=1e-10)
    sub.add_argument("--margin", type=float, default=None, help="boundary margin override")
    sub.add_argument("--out", default=None, help=f"output path (relative to ${OUTPUT_DIR_ENV})")


def _base_config(args, command: str) -> dict:
    return {
        "command": command,
        "domain": args.domain,
        "degree": args.degree,
        "nmin": args.nmin,
        "grid": args.grid,
        "tolerance": args.tol,
        "margin": args.margin,
    }


def _cmd_kernel(setup: kernel.Setup, args) -> _Result:
    ps = _parse_list(args.p, float)
    zs = _parse_list(args.z, _parse_complex)
    conf = _base_config(args, "kernel") | {"p": ps, "z": zs}
    if len(ps) == 1 and len(zs) == 1:
        result = kernel.mp_minimizer(setup, ps[0], zs[0])
        document = {
            "z": result.z,
            "p": result.p,
            "m_p": result.m_p,
            "K_p": result.k_p,
            "degree": result.basis_degree,
            "converged": result.minimizer.converged,
            "diagnostics": solution_record(result.minimizer),
        }
        return conf, document, None, result.minimizer.converged

    columns = ("p", "re_z", "im_z", "K_p", "B_p")
    rows = kernel.kernel_metric_sweep(setup, ps, zs)
    table = (list(columns), [[r[k] for k in columns] for r in rows])
    return conf, None, table, all(r["converged"] for r in rows)


def _cmd_metric(setup: kernel.Setup, args) -> _Result:
    p = float(args.p)
    z = _parse_complex(args.z)
    direction = _parse_complex(args.direction)
    conf = _base_config(args, "metric") | {"p": p, "z": z, "direction": direction}
    result = kernel.metric_at(setup, p, z, direction)
    document = {
        "z": result.z,
        "p": result.p,
        "direction": result.direction,
        "B_p": result.b_p,
        "converged": result.extremal.converged,
        "diagnostics": solution_record(result.extremal),
    }
    return conf, document, None, result.extremal.converged


def _cmd_levi(setup: kernel.Setup, args) -> _Result:
    ps = _parse_list(args.p, float)
    direction = _parse_complex(args.direction)
    conf = _base_config(args, "levi") | {"p": ps, "direction": direction, "step": args.step}
    records = [analysis.levi_metric_gap(setup, p, direction, args.step) for p in ps]
    document = {
        "records": [
            {
                "p": r.p,
                "z": r.z,
                "levi": r.levi,
                "bp2": r.b_p_squared,
                "gap": r.gap,
                "fd_step": r.fd_step,
                "converged": r.converged,
            }
            for r in records
        ],
    }
    table = (
        ["p", "re_z", "im_z", "levi", "bp2", "gap"],
        [[r.p, r.z.real, r.z.imag, r.levi, r.b_p_squared, r.gap] for r in records],
    )
    return conf, document, table, all(r.converged for r in records)


def _default_radii() -> list[float]:
    return [0.1 * 2.0**-k for k in range(6)]


def _cmd_holder(setup: kernel.Setup, args) -> _Result:
    p = float(args.p)
    z_prime = _parse_complex(args.zprime)
    w = _parse_complex(args.w)
    radii = _parse_list(args.radii, float) if args.radii else _default_radii()
    conf = _base_config(args, "holder") | {
        "p": p, "zprime": z_prime, "w": w, "radii": radii,
        "directions": args.directions, "quantity": args.quantity,
    }
    if args.quantity == "mp":
        fit = analysis.holder_exponent(setup, p, z_prime, w, radii, args.directions)
    else:
        fit = analysis.hp_scaling_exponent(setup, p, w, radii, args.directions)
    document = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "radii": list(fit.radii),
        "deltas": list(fit.deltas),
        "converged": fit.converged,
    }
    fitted = [math.exp(fit.intercept) * r**fit.slope for r in fit.radii]
    table = (["r", "delta", "fitted"], [list(row) for row in zip(fit.radii, fit.deltas, fitted)])
    return conf, document, table, fit.converged


def _cmd_limit(setup: kernel.Setup, args) -> _Result:
    ps = _parse_list(args.p_list, float)
    z = _parse_complex(args.z)
    conf = _base_config(args, "limit") | {
        "seed": args.seed, "restarts": args.restarts, "p_list": ps, "z": z,
    }
    record = analysis.limit_sweep(setup, z, ps, restarts=args.restarts, seed=args.seed)
    rows = list(zip(record.p_list, record.k_p_values, record.d_p_estimates, record.statuses))
    document = {
        "z": record.z,
        "bound": "lower",
        "restarts": record.restarts,
        "rows": [{"p": p, "K_p": k, "d_p": d, "status": s} for p, k, d, s in rows],
    }
    table = (["p", "K_p", "d_p", "restarts"], [[p, k, d, record.restarts] for p, k, d, _ in rows])
    return conf, document, table, all(s == "ok" for s in record.statuses)


def _cmd_lacunary(args) -> _Result:
    series = lacunary.read_series_csv(args.file)
    p = float(args.p)
    conf = {
        "command": "lacunary",
        "file": str(args.file),
        "p": p,
        "circle_radius": args.r,
    }
    document = lacunary.integrability_record(series, p)
    if args.r is not None:
        document["circle_norm_ratio"] = lacunary.circle_norm_ratio(series, args.r, p)
    return conf, document, None, True


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built on first use and then shared: parsing does
    not change it, and building it costs milliseconds per invocation."""
    parser = _Parser(prog="pbergman", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_kernel = sub.add_parser("kernel", help="m_p and K_p at a point, or a (p, z) sweep")
    _common_arguments(p_kernel)
    p_kernel.add_argument("--p", required=True, help="exponent p, or comma list for a sweep")
    p_kernel.add_argument("--z", required=True, help="evaluation point, or comma list")
    p_kernel.set_defaults(func=_cmd_kernel)

    p_metric = sub.add_parser("metric", help="B_p(z; X)")
    _common_arguments(p_metric)
    p_metric.add_argument("--p", required=True)
    p_metric.add_argument("--z", required=True)
    p_metric.add_argument("--direction", default="1", help="direction X, complex")
    p_metric.set_defaults(func=_cmd_metric)

    p_levi = sub.add_parser("levi", help="Levi form of log K_p vs B_p^2 at the disk center")
    _common_arguments(p_levi)
    p_levi.add_argument("--p", required=True, help="exponent p, or comma list")
    p_levi.add_argument("--direction", default="1")
    p_levi.add_argument("--step", type=float, default=1e-2)
    p_levi.set_defaults(func=_cmd_levi, degree=16)

    p_holder = sub.add_parser("holder", help="log-log slope of m_p or H_p probes")
    _common_arguments(p_holder)
    p_holder.add_argument("--p", required=True)
    p_holder.add_argument("--zprime", default="0.2")
    p_holder.add_argument("--w", default="0.4")
    p_holder.add_argument("--radii", default=None, help="comma list, default 0.1*2^-k, k<6")
    p_holder.add_argument("--directions", type=int, default=8)
    p_holder.add_argument(
        "--quantity", choices=("mp", "hp"), default="mp",
        help="probe the minimizer values (mp) or the H_p combination (hp)",
    )
    p_holder.set_defaults(func=_cmd_holder, degree=16)

    p_limit = sub.add_parser("limit", help="K_p and maximizer-spread sweep for p up to 1")
    _common_arguments(p_limit)
    p_limit.add_argument("--seed", type=int, default=0)
    p_limit.add_argument("--restarts", type=int, default=16)
    p_limit.add_argument("--p-list", required=True, dest="p_list")
    p_limit.add_argument("--z", default="0")
    p_limit.set_defaults(func=_cmd_limit, degree=8)

    p_lac = sub.add_parser("lacunary", help="integrability criterion for a series file")
    p_lac.add_argument("--file", required=True)
    p_lac.add_argument("--p", required=True)
    p_lac.add_argument("--r", type=float, default=None, help="also report the circle norm ratio at radius r")
    p_lac.add_argument("--out", default=None)
    p_lac.set_defaults(func=_cmd_lacunary)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "lacunary":
            conf, document, table, converged = args.func(args)
        else:
            conf, document, table, converged = args.func(_setup(args), args)
        _emit(conf, _resolve_out(args.out), document, table)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if converged else EXIT_DEGRADED


if __name__ == "__main__":
    sys.exit(main())
